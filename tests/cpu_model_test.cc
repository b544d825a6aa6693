#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "storage/disk_manager.h"
#include "cost/cpu_model.h"
#include "cost/statistics.h"
#include "obs/query_stats.h"
#include "join/hhnl.h"
#include "join/hvnl.h"
#include "join/vvm.h"
#include "test_util.h"

namespace textjoin {
namespace {

using testing_util::MakeFixture;
using testing_util::RandomCollection;

CostInputs InputsFor(const testing_util::JoinFixture& f, int64_t B,
                     const JoinSpec& spec) {
  CostInputs in;
  in.c1 = StatisticsOf(f.inner);
  in.c2 = StatisticsOf(f.outer);
  in.sys.buffer_pages = B;
  in.sys.page_size = f.disk->page_size();
  in.sys.alpha = 5.0;
  in.query.lambda = spec.lambda;
  in.query.delta = MeasuredDelta(f.inner, f.outer);
  in.q = MeasuredTermOverlap(f.outer, f.inner);
  return in;
}

TEST(CpuStatsTest, ArithmeticAndToString) {
  CpuStats a{10, 20, 5, 7};
  CpuStats b{1, 2, 3, 4};
  a += b;
  EXPECT_EQ(a.cell_compares, 11);
  EXPECT_EQ(a.accumulations, 22);
  EXPECT_EQ(a.heap_offers, 8);
  EXPECT_EQ(a.cells_decoded, 11);
  EXPECT_DOUBLE_EQ(a.Total(), 52.0);
  EXPECT_NE(a.ToString().find("accum=22"), std::string::npos);
}

// The key structural property: all three algorithms perform EXACTLY the
// same number of similarity accumulations — one per (pair, common term) —
// and offer EXACTLY the same candidates — one per pair with a non-zero
// score — in either HHNL order.
// With an inner subset only the eligible inner documents' pairs count.
// The dense accumulators are drained and reused across VVM's passes (a
// buffer forcing several) and across HVNL's outer documents (also in
// greedy order), and must count the same there too.
TEST(CpuCountingTest, AccumulationsIdenticalAcrossAlgorithms) {
  SimulatedDisk disk(256);
  auto f = MakeFixture(&disk, RandomCollection(&disk, "c1", 50, 6, 60, 71),
                       RandomCollection(&disk, "c2", 35, 5, 60, 72));
  std::vector<DocId> every_other;
  for (DocId d = 0; d < f->inner.num_documents(); d += 2) {
    every_other.push_back(d);
  }
  HhnlJoin hhnl;
  HhnlJoin hhnl_backward(HhnlJoin::Options{/*backward=*/true});
  HvnlJoin hvnl;
  HvnlJoin hvnl_greedy(HvnlJoin::Options{
      HvnlJoin::Replacement::kLowestOuterDf,
      HvnlJoin::OuterOrder::kGreedyIntersection});
  VvmJoin vvm;
  struct Case {
    const char* name;
    TextJoinAlgorithm* algorithm;
    int64_t buffer_pages = 100;
    bool multi_pass = false;
  };
  const Case algorithms[] = {
      {"HHNL", &hhnl},
      {"HHNL backward", &hhnl_backward},
      {"HVNL", &hvnl},
      {"HVNL greedy", &hvnl_greedy},
      {"VVM", &vvm},
      {"VVM multi-pass", &vvm, /*buffer_pages=*/6, /*multi_pass=*/true}};

  for (const bool subset : {false, true}) {
    JoinSpec spec;
    spec.lambda = 4;
    if (subset) spec.inner_subset = every_other;

    // Sum over eligible inner documents of their terms' outer df.
    int64_t expected = 0;
    for (DocId d = 0; d < f->inner.num_documents(); ++d) {
      if (subset && d % 2 != 0) continue;
      auto doc = f->inner.ReadDocument(d);
      ASSERT_TRUE(doc.ok());
      for (const DCell& c : doc->cells()) {
        expected += f->outer.DocumentFrequency(c.term);
      }
    }

    int64_t heap_offers = -1;
    for (const Case& c : algorithms) {
      QueryStatsCollector collector(&disk);
      JoinContext ctx = f->Context(c.buffer_pages);
      ctx.stats = &collector;
      JoinSpec run_spec = spec;
      // delta = 1 inflates VVM's matrix charge so the small buffer splits
      // it into several passes; results do not depend on delta.
      if (c.multi_pass) run_spec.delta = 1.0;
      ASSERT_TRUE(c.algorithm->Run(ctx, run_spec).ok());
      const PhaseStats root = collector.Finish().root;
      const std::string run =
          std::string(c.name) + (subset ? " (inner subset)" : "");
      if (c.multi_pass) {
        EXPECT_GE(root.Counter("passes"), 2) << run;
      }
      EXPECT_EQ(root.cpu.accumulations, expected) << run;
      if (heap_offers < 0) heap_offers = root.cpu.heap_offers;
      EXPECT_EQ(root.cpu.heap_offers, heap_offers) << run;
    }
    EXPECT_GT(heap_offers, 0);
  }
}

// HHNL's term-at-a-time scoring visits every resident cell once, when its
// batch is indexed, and every streamed cell once per batch it probes:
//   forward:  cell_compares = sum(outer cells) + outer_batches * sum(inner)
//   backward: cell_compares = sum(inner cells) + inner_batches * sum(outer)
// (participating documents only). The buffer forces several batches.
TEST(CpuCountingTest, HhnlIndexesAndProbesEachCellOncePerBatch) {
  SimulatedDisk disk(256);
  auto f = MakeFixture(&disk, RandomCollection(&disk, "c1", 30, 6, 50, 73),
                       RandomCollection(&disk, "c2", 20, 5, 50, 74));
  std::vector<DocId> every_other;
  for (DocId d = 0; d < f->inner.num_documents(); d += 2) {
    every_other.push_back(d);
  }
  auto cells = [](const DocumentCollection& c, const std::vector<DocId>& only) {
    int64_t n = 0;
    for (DocId d = 0; d < c.num_documents(); ++d) {
      if (only.empty() || std::binary_search(only.begin(), only.end(), d)) {
        n += c.directory_entry(d).term_count;
      }
    }
    return n;
  };
  const int64_t outer_cells = cells(f->outer, {});

  for (const bool subset : {false, true}) {
    for (const bool backward : {false, true}) {
      JoinSpec spec;
      spec.lambda = 3;
      if (subset) spec.inner_subset = every_other;
      const int64_t inner_cells = cells(f->inner, spec.inner_subset);
      QueryStatsCollector collector(&disk);
      JoinContext ctx = f->Context(3);
      ctx.stats = &collector;
      HhnlJoin join(HhnlJoin::Options{backward});
      ASSERT_TRUE(join.Run(ctx, spec).ok());
      const PhaseStats root = collector.Finish().root;
      const int64_t batches =
          root.Counter(backward ? "inner_batches" : "outer_batches");
      EXPECT_GE(batches, 2);
      EXPECT_EQ(root.cpu.cell_compares,
                backward ? inner_cells + batches * outer_cells
                         : outer_cells + batches * inner_cells)
          << (backward ? "backward" : "forward")
          << (subset ? " (inner subset)" : "");
    }
  }
}

// Each VVM pass reads both inverted files in full but decodes only what
// its slice of the outer documents needs. Per pass, exactly:
//   * the cells of every C2 block whose span overlaps the slice, for terms
//     both files hold;
//   * the cells of every C1 entry whose term has a C2 cell in the slice;
//   * the cells of every entry whose term the other file lacks (the scan
//     passes over it whole).
TEST(CpuCountingTest, VvmDecodesOnlyWhatEachPassNeeds) {
  SimulatedDisk disk(256);
  auto f = MakeFixture(&disk, RandomCollection(&disk, "c1", 50, 6, 60, 75),
                       RandomCollection(&disk, "c2", 35, 5, 60, 76));
  JoinSpec spec;
  spec.lambda = 3;
  spec.delta = 1.0;
  QueryStatsCollector collector(&disk);
  JoinContext ctx = f->Context(6);  // forces several passes
  ctx.stats = &collector;
  VvmJoin join;
  const int64_t m = f->outer.num_documents();
  const int64_t passes = std::min(VvmJoin::Passes(ctx, spec), m);
  ASSERT_GT(passes, 1);
  ASSERT_TRUE(join.Run(ctx, spec).ok());
  const PhaseStats root = collector.Finish().root;
  EXPECT_EQ(root.Counter("passes"), passes);

  const InvertedFile& inv1 = f->inner_index;
  const InvertedFile& inv2 = f->outer_index;
  const int64_t per_pass = (m + passes - 1) / passes;
  int64_t expected = 0;
  for (int64_t pass = 0; pass < passes; ++pass) {
    // Every outer document participates, so the slice is a document range.
    const int64_t lo = pass * per_pass;
    const int64_t hi = std::min(lo + per_pass, m) - 1;
    for (const auto& e2 : inv2.entries()) {
      const int64_t i1 = inv1.FindEntry(e2.term);
      if (i1 < 0) {
        expected += e2.cell_count;
        continue;
      }
      for (const auto& block : e2.blocks) {
        if (block.last_doc >= lo && block.first_doc <= hi) {
          expected += block.cell_count;
        }
      }
      auto cells2 = inv2.FetchEntry(e2.term);
      ASSERT_TRUE(cells2.ok());
      if (std::any_of(cells2->begin(), cells2->end(), [&](const ICell& c) {
            return c.doc >= lo && c.doc <= hi;
          })) {
        expected += inv1.entries()[i1].cell_count;
      }
    }
    for (const auto& e1 : inv1.entries()) {
      if (inv2.FindEntry(e1.term) < 0) expected += e1.cell_count;
    }
  }
  EXPECT_EQ(root.cpu.cells_decoded, expected);
}

TEST(CpuCountingTest, NullCpuPointerCountsNothing) {
  SimulatedDisk disk(256);
  auto f = MakeFixture(&disk, RandomCollection(&disk, "c1", 20, 5, 40, 77),
                       RandomCollection(&disk, "c2", 15, 4, 40, 78));
  JoinSpec spec;
  HhnlJoin join;
  auto r = join.Run(f->Context(100), spec);  // ctx.stats == nullptr
  EXPECT_TRUE(r.ok());
}

// The analytic model tracks the measured counters within a modest band
// (its inputs are averages; the collections are genuinely random).
TEST(CpuModelTest, EstimatesTrackMeasurements) {
  SimulatedDisk disk(256);
  auto f = MakeFixture(&disk, RandomCollection(&disk, "c1", 80, 8, 120, 79),
                       RandomCollection(&disk, "c2", 60, 6, 120, 80));
  JoinSpec spec;
  spec.lambda = 5;
  CostInputs in = InputsFor(*f, 100, spec);

  auto check = [](double measured, double estimated, double band,
                  const char* what) {
    ASSERT_GT(estimated, 0) << what;
    EXPECT_LT(measured / estimated, band) << what << " measured=" << measured
                                          << " estimated=" << estimated;
    EXPECT_GT(measured / estimated, 1.0 / band)
        << what << " measured=" << measured << " estimated=" << estimated;
  };

  {
    QueryStatsCollector collector(&disk);
    JoinContext ctx = f->Context(100);
    ctx.stats = &collector;
    HhnlJoin join;
    ASSERT_TRUE(join.Run(ctx, spec).ok());
    const CpuStats cpu = collector.Finish().root.cpu;
    CpuEstimate est = HhnlCpuCost(in);
    check(static_cast<double>(cpu.cell_compares), est.cell_compares, 1.5,
          "HHNL compares");
    check(static_cast<double>(cpu.accumulations), est.accumulations, 2.0,
          "HHNL accumulations");
  }
  {
    QueryStatsCollector collector(&disk);
    JoinContext ctx = f->Context(100);
    ctx.stats = &collector;
    HvnlJoin join;
    ASSERT_TRUE(join.Run(ctx, spec).ok());
    const CpuStats cpu = collector.Finish().root.cpu;
    CpuEstimate est = HvnlCpuCost(in);
    check(static_cast<double>(cpu.accumulations), est.accumulations, 2.0,
          "HVNL accumulations");
  }
  {
    QueryStatsCollector collector(&disk);
    JoinContext ctx = f->Context(100);
    ctx.stats = &collector;
    VvmJoin join;
    ASSERT_TRUE(join.Run(ctx, spec).ok());
    const CpuStats cpu = collector.Finish().root.cpu;
    CpuEstimate est = VvmCpuCost(in);
    check(static_cast<double>(cpu.cells_decoded), est.cells_decoded, 1.2,
          "VVM decoded");
  }
}

TEST(CpuModelTest, CombinedCostAddsWeightedCpu) {
  AlgorithmCost io;
  io.seq = 100;
  io.rand = 500;
  CpuEstimate cpu;
  cpu.accumulations = 1000;
  EXPECT_DOUBLE_EQ(CombinedCost(io, cpu, 100.0), 110.0);
  io.feasible = false;
  io.seq = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(std::isinf(CombinedCost(io, cpu, 100.0)));
}

TEST(CpuModelTest, AccumulationEstimateConsistentAcrossAlgorithms) {
  CostInputs in;
  in.c1 = {1000, 50, 5000};
  in.c2 = {800, 40, 4000};
  in.sys = {10000, 4096, 5.0};
  in.query = {20, 0.1};
  in.q = 0.8;
  double a1 = HhnlCpuCost(in).accumulations;
  double a2 = HvnlCpuCost(in).accumulations;
  double a3 = VvmCpuCost(in).accumulations;
  EXPECT_NEAR(a1, a2, 1e-6 * a1);
  EXPECT_NEAR(a1, a3, 1e-6 * a1);
}

}  // namespace
}  // namespace textjoin
