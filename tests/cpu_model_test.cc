#include <gtest/gtest.h>

#include <cmath>
#include <limits>

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
// same number of similarity accumulations — one per (pair, common term).
// With an inner subset only the eligible inner documents' pairs count.
TEST(CpuCountingTest, AccumulationsIdenticalAcrossAlgorithms) {
  SimulatedDisk disk(256);
  auto f = MakeFixture(&disk, RandomCollection(&disk, "c1", 50, 6, 60, 71),
                       RandomCollection(&disk, "c2", 35, 5, 60, 72));
  std::vector<DocId> every_other;
  for (DocId d = 0; d < f->inner.num_documents(); d += 2) {
    every_other.push_back(d);
  }

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

    // The invariant holds for the exhaustive accumulation: HHNL's pruning
    // skips provably-losing work, which is tested in pruning_test. HVNL
    // and VVM never skip an accumulation, so they run with pruning on too.
    for (int pass = 0; pass < 5; ++pass) {
      spec.prune = pass >= 3;
      QueryStatsCollector collector(&disk);
      JoinContext ctx = f->Context(100);
      ctx.stats = &collector;
      Result<JoinResult> r(Status::OK());
      if (pass == 0) {
        HhnlJoin join;
        r = join.Run(ctx, spec);
      } else if (pass == 1 || pass == 3) {
        HvnlJoin join;
        r = join.Run(ctx, spec);
      } else {
        VvmJoin join;
        r = join.Run(ctx, spec);
      }
      ASSERT_TRUE(r.ok());
      const CpuStats cpu = collector.Finish().root.cpu;
      EXPECT_EQ(cpu.accumulations, expected)
          << "pass " << pass << (subset ? " (inner subset)" : "");
    }
  }
}

TEST(CpuCountingTest, HhnlComparesBoundedByCellSums) {
  SimulatedDisk disk(256);
  auto f = MakeFixture(&disk, RandomCollection(&disk, "c1", 30, 6, 50, 73),
                       RandomCollection(&disk, "c2", 20, 5, 50, 74));
  JoinSpec spec;
  spec.lambda = 3;
  spec.prune = false;  // the bound needs full merges
  QueryStatsCollector collector(&disk);
  JoinContext ctx = f->Context(100);
  ctx.stats = &collector;
  HhnlJoin join;
  ASSERT_TRUE(join.Run(ctx, spec).ok());
  const CpuStats cpu = collector.Finish().root.cpu;
  // Each pair walks at most K1 + K2 cells and at least max(K1, K2).
  int64_t pairs = f->inner.num_documents() * f->outer.num_documents();
  EXPECT_LE(cpu.cell_compares, pairs * (6 + 5));
  EXPECT_GE(cpu.cell_compares, pairs * 6);
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
  spec.prune = false;  // unpruned estimates below
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

TEST(CpuModelTest, ExpectedPruningRateProperties) {
  CostInputs in;
  in.c1 = {1000, 50, 5000};
  in.c2 = {800, 40, 4000};
  in.query = {20, 0.1};
  const double rate = ExpectedPruningRate(in);
  EXPECT_GT(rate, 0.0);
  EXPECT_LE(rate, 0.9);
  // More kept matches -> less prunable work.
  in.query.lambda = 80;
  EXPECT_LT(ExpectedPruningRate(in), rate);
  // lambda >= all candidates -> nothing to prune.
  in.query.lambda = 1000;
  in.query.delta = 1.0;
  EXPECT_DOUBLE_EQ(ExpectedPruningRate(in), 0.0);
}

TEST(CpuModelTest, PruningDiscountsEstimatedWork) {
  CostInputs in;
  in.c1 = {1000, 50, 5000};
  in.c2 = {800, 40, 4000};
  in.sys = {10000, 4096, 5.0};
  in.query = {20, 0.1};
  in.q = 0.8;
  const CpuEstimate base = HhnlCpuCost(in);
  in.pruning_rate = ExpectedPruningRate(in);
  in.prune = true;
  const CpuEstimate pruned = HhnlCpuCost(in);
  EXPECT_LT(pruned.cell_compares, base.cell_compares);
  EXPECT_LT(pruned.accumulations, base.accumulations);
  EXPECT_GT(pruned.bound_checks, 0.0);
  EXPECT_GT(pruned.pairs_pruned, 0.0);
  // The discount must beat the bound-check surcharge for the rate to be
  // worth modeling at all.
  EXPECT_LT(pruned.Total(), base.Total());
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
