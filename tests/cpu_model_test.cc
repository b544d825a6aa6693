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
// score — whether JoinSpec::prune is on or off and in either HHNL order.
// With an inner subset only the eligible inner documents' pairs count.
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
  VvmJoin vvm;
  const std::pair<const char*, TextJoinAlgorithm*> algorithms[] = {
      {"HHNL", &hhnl},
      {"HHNL backward", &hhnl_backward},
      {"HVNL", &hvnl},
      {"VVM", &vvm}};

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
    for (const bool prune : {false, true}) {
      spec.prune = prune;
      for (const auto& [name, algorithm] : algorithms) {
        QueryStatsCollector collector(&disk);
        JoinContext ctx = f->Context(100);
        ctx.stats = &collector;
        ASSERT_TRUE(algorithm->Run(ctx, spec).ok());
        const CpuStats cpu = collector.Finish().root.cpu;
        const std::string run = std::string(name) +
                                (prune ? " pruned" : "") +
                                (subset ? " (inner subset)" : "");
        EXPECT_EQ(cpu.accumulations, expected) << run;
        if (heap_offers < 0) heap_offers = cpu.heap_offers;
        EXPECT_EQ(cpu.heap_offers, heap_offers) << run;
      }
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

TEST(CpuCountingTest, VvmDecodesBothFilesPerPass) {
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
  int64_t passes = VvmJoin::Passes(ctx, spec);
  ASSERT_GT(passes, 1);
  // Pass-slice block skipping (JoinSpec::prune) leaves posting blocks
  // undecoded, so full decode only holds without it.
  spec.prune = false;
  ASSERT_TRUE(join.Run(ctx, spec).ok());
  const CpuStats cpu = collector.Finish().root.cpu;
  EXPECT_EQ(cpu.cells_decoded,
            passes * (f->inner.total_cells() + f->outer.total_cells()));

  // With block skipping, decode work can only go down — never up.
  QueryStatsCollector blocked(&disk);
  ctx.stats = &blocked;
  spec.prune = true;
  ASSERT_TRUE(join.Run(ctx, spec).ok());
  EXPECT_LE(blocked.Finish().root.cpu.cells_decoded, cpu.cells_decoded);
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
