// Property-style accuracy tests for the observability layer: sweeping the
// buffer size B, the query lambda and the seek weight alpha, (a) the
// per-phase predicted costs (cost/cost_model.h AlgorithmCost::phases) must
// sum exactly to the Section 5 totals, (b) the measured cost of every real
// executor must stay within an explainable band of the model's sequential
// prediction, and (c) the QueryStats tree must conserve I/O — the phases
// account for every page the run touched.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "storage/disk_manager.h"
#include "cost/cost_model.h"
#include "cost/statistics.h"
#include "join/hhnl.h"
#include "join/hvnl.h"
#include "join/vvm.h"
#include "obs/query_stats.h"
#include "test_util.h"

namespace textjoin {
namespace {

using testing_util::JoinFixture;
using testing_util::MakeFixture;
using testing_util::RandomCollection;

constexpr int64_t kBufferSweep[] = {8, 60, 300};
constexpr int64_t kLambdaSweep[] = {1, 4};
constexpr double kAlphaSweep[] = {2.0, 5.0, 10.0};

std::unique_ptr<JoinFixture> SweepFixture(SimulatedDisk* disk) {
  return MakeFixture(disk, RandomCollection(disk, "c1", 60, 6, 60, 91),
                     RandomCollection(disk, "c2", 45, 5, 60, 92));
}

CostInputs InputsFor(const JoinFixture& f, const JoinContext& ctx,
                     const JoinSpec& spec) {
  CostInputs in;
  in.c1 = StatisticsOf(f.inner);
  in.c2 = StatisticsOf(f.outer);
  in.sys = ctx.sys;
  in.query.lambda = spec.lambda;
  in.query.delta = spec.delta;
  in.q = MeasuredTermOverlap(f.outer, f.inner);
  return in;
}

double PhaseSeqSum(const std::vector<PhaseCost>& phases) {
  double s = 0;
  for (const PhaseCost& p : phases) s += p.seq;
  return s;
}

double PhaseRandSum(const std::vector<PhaseCost>& phases) {
  double s = 0;
  for (const PhaseCost& p : phases) s += p.rand;
  return s;
}

std::string ComboName(int64_t B, int64_t lambda, double alpha) {
  return "B=" + std::to_string(B) + " lambda=" + std::to_string(lambda) +
         " alpha=" + std::to_string(alpha);
}

// (a) The per-phase decomposition is exact: for every algorithm (and the
// backward HHNL order) the phase costs sum to the advertised totals, in
// both the sequential and the random variant, across the whole sweep.
TEST(StatsAccuracyTest, PhaseDecompositionSumsToTotalsExactly) {
  SimulatedDisk disk(256);
  auto f = SweepFixture(&disk);
  for (int64_t B : kBufferSweep) {
    for (int64_t lambda : kLambdaSweep) {
      for (double alpha : kAlphaSweep) {
        JoinSpec spec;
        spec.lambda = lambda;
        JoinContext ctx = f->Context(B);
        ctx.sys.alpha = alpha;
        CostInputs in = InputsFor(*f, ctx, spec);
        SCOPED_TRACE(ComboName(B, lambda, alpha));

        struct Case {
          const char* name;
          AlgorithmCost total;
        };
        const Case cases[] = {
            {"HHNL", HhnlCost(in)},
            {"HHNL backward", HhnlBackwardCost(in)},
            {"HVNL", HvnlCost(in)},
            {"VVM", VvmCost(in)},
        };
        for (const Case& c : cases) {
          if (!c.total.feasible) continue;
          ASSERT_FALSE(c.total.phases.empty()) << c.name;
          EXPECT_NEAR(PhaseSeqSum(c.total.phases), c.total.seq, 1e-6)
              << c.name;
          EXPECT_NEAR(PhaseRandSum(c.total.phases), c.total.rand, 1e-6)
              << c.name;
        }
      }
    }
  }
}

// Runs `algo` with a collector; returns the finished stats tree.
QueryStats MeteredRun(TextJoinAlgorithm& algo, SimulatedDisk* disk,
                      const JoinContext& base, const JoinSpec& spec) {
  disk->ResetStats();
  disk->ResetHeads();
  QueryStatsCollector collector(disk);
  JoinContext ctx = base;
  ctx.stats = &collector;
  auto result = algo.Run(ctx, spec);
  TEXTJOIN_CHECK_OK(result.status());
  return collector.Finish();
}

// (b) Measured weighted cost vs the model's prediction, per algorithm.
// The bands mirror tests/io_accounting_test.cc: HHNL and VVM agree up to
// seek slack, HVNL up to the fractional-size rounding band (and case 3
// deliberately overestimates thrashing, so only a loose lower bound holds).
TEST(StatsAccuracyTest, MeasuredCostTracksModelAcrossSweep) {
  SimulatedDisk disk(256);
  auto f = SweepFixture(&disk);
  for (int64_t B : kBufferSweep) {
    for (int64_t lambda : kLambdaSweep) {
      for (double alpha : kAlphaSweep) {
        JoinSpec spec;
        spec.lambda = lambda;
        JoinContext ctx = f->Context(B);
        ctx.sys.alpha = alpha;
        CostInputs in = InputsFor(*f, ctx, spec);
        SCOPED_TRACE(ComboName(B, lambda, alpha));

        AlgorithmCost hhnl_model = HhnlCost(in);
        if (hhnl_model.feasible) {
          HhnlJoin hhnl;
          QueryStats stats = MeteredRun(hhnl, &disk, ctx, spec);
          double measured = stats.root.io.Cost(alpha);
          double scans =
              std::ceil(static_cast<double>(f->outer.num_documents()) /
                        HhnlBatchSize(in));
          EXPECT_NEAR(measured, hhnl_model.seq, (scans + 2) * (alpha - 1) + 2)
              << "HHNL model=" << hhnl_model.seq;
        }

        AlgorithmCost hvnl_model = HvnlCost(in);
        if (hvnl_model.feasible) {
          HvnlJoin hvnl;
          QueryStats stats = MeteredRun(hvnl, &disk, ctx, spec);
          double measured = stats.root.io.Cost(alpha);
          EXPECT_LE(measured, hvnl_model.seq * 1.5 + 3 * alpha)
              << "HVNL model=" << hvnl_model.seq;
          EXPECT_GT(measured, hvnl_model.seq / 4)
              << "HVNL model=" << hvnl_model.seq;
        }

        AlgorithmCost vvm_model = VvmCost(in);
        if (vvm_model.feasible) {
          VvmJoin vvm;
          QueryStats stats = MeteredRun(vvm, &disk, ctx, spec);
          double measured = stats.root.io.Cost(alpha);
          double passes = static_cast<double>(VvmPasses(in));
          // model.seq uses fractional tightly-packed sizes: it is a lower
          // bound of the physical page count, and within 1/0.7 of it.
          EXPECT_GE(measured, vvm_model.seq - 1e-9)
              << "VVM model=" << vvm_model.seq;
          EXPECT_LE(measured,
                    vvm_model.seq / 0.7 + 2 * passes * (alpha - 1) + 4)
              << "VVM model=" << vvm_model.seq;
        }
      }
    }
  }
}

// (c) Conservation: the phases of the stats tree account for every page
// the disk served during the run — no I/O escapes attribution — and the
// algorithm counters agree with the analytic batch/pass structure.
TEST(StatsAccuracyTest, PhasesConserveIoAndCountersMatchStructure) {
  SimulatedDisk disk(256);
  auto f = SweepFixture(&disk);
  for (int64_t B : kBufferSweep) {
    JoinSpec spec;
    spec.lambda = 3;
    JoinContext ctx = f->Context(B);
    CostInputs in = InputsFor(*f, ctx, spec);
    SCOPED_TRACE("B=" + std::to_string(B));

    if (HhnlCost(in).feasible) {
      HhnlJoin hhnl;
      QueryStats stats = MeteredRun(hhnl, &disk, ctx, spec);
      EXPECT_EQ(stats.root.ChildIoSum(), stats.root.io);
      int64_t scans = static_cast<int64_t>(
          std::ceil(static_cast<double>(f->outer.num_documents()) /
                    HhnlBatchSize(in)));
      EXPECT_EQ(stats.root.Counter("outer_batches"), scans);
      EXPECT_EQ(stats.root.Counter("batch_size_X"),
                static_cast<int64_t>(HhnlBatchSize(in)));
      // The scan-inner phase ran once per batch.
      const PhaseStats* scan = stats.root.Child(phase::kScanInner);
      ASSERT_NE(scan, nullptr);
      EXPECT_EQ(scan->entered, scans);
    }

    if (HvnlCost(in).feasible) {
      HvnlJoin hvnl;
      QueryStats stats = MeteredRun(hvnl, &disk, ctx, spec);
      EXPECT_EQ(stats.root.ChildIoSum(), stats.root.io);
      // Every directory probe either hits the cache, fetches the entry, or
      // finds no entry at all; hits and fetches can never exceed probes.
      EXPECT_GT(stats.root.Counter("directory_probes"), 0);
      EXPECT_LE(stats.root.Counter("cache_hits") +
                    stats.root.Counter("entry_fetches"),
                stats.root.Counter("directory_probes"));
    }

    if (VvmCost(in).feasible) {
      VvmJoin vvm;
      QueryStats stats = MeteredRun(vvm, &disk, ctx, spec);
      EXPECT_EQ(stats.root.ChildIoSum(), stats.root.io);
      EXPECT_EQ(stats.root.Counter("passes"), VvmPasses(in));
      const PhaseStats* merge = stats.root.Child(phase::kMergeScan);
      ASSERT_NE(merge, nullptr);
      EXPECT_EQ(merge->entered, VvmPasses(in));
    }
  }
}

}  // namespace
}  // namespace textjoin
