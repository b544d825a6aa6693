#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "exec/governor.h"
#include "join/executor.h"
#include "planner/planner.h"
#include "storage/disk_manager.h"
#include "storage/reliable_disk.h"
#include "test_util.h"

namespace textjoin {
namespace {

using testing_util::BruteForceJoin;
using testing_util::MakeFixture;
using testing_util::RandomCollection;

// `scripts/check.sh chaos` re-runs this binary under several seed offsets;
// every schedule seed below is shifted by it so each sweep explores a
// different deterministic fault universe.
uint64_t SeedOffset() {
  const char* s = std::getenv("TEXTJOIN_CHAOS_SEED");
  return s != nullptr ? std::strtoull(s, nullptr, 10) : 0;
}

// The deterministic chaos harness: every algorithm, several seeds, fault
// rates from "background noise" to "failing device". The contract under
// chaos is all-or-nothing:
//   * with retry enabled, a run either returns the exact fault-free
//     result (recovery masked every fault) or a clean non-OK status —
//     never a wrong answer, never a crash;
//   * with retry disabled, the same fault schedule must surface as a
//     non-OK status whenever it fired at all.
class ChaosSweepTest
    : public ::testing::TestWithParam<std::tuple<Algorithm, uint64_t, int>> {};

TEST_P(ChaosSweepTest, RecoversOrFailsCleanly) {
  const auto [algorithm, seed, rate_permille] = GetParam();
  const double rate = rate_permille / 1000.0;

  SimulatedDisk base(256);
  ReliableDisk disk(&base);
  auto f = MakeFixture(&disk, RandomCollection(&disk, "c1", 40, 6, 50, 21),
                       RandomCollection(&disk, "c2", 25, 5, 50, 22));
  JoinSpec spec;
  spec.lambda = 3;
  JoinContext ctx = f->Context(60);

  // The ground truth, computed fault-free.
  auto clean = RunAlgorithm(algorithm, false, ctx, spec);
  ASSERT_TRUE(clean.ok()) << clean.status();

  FaultSchedule schedule;
  schedule.seed = seed + SeedOffset();
  schedule.transient_rate = rate;
  schedule.corruption_rate = rate;

  // Pass 1: retry enabled (default policy).
  base.set_fault_schedule(schedule);
  base.ResetHeads();
  disk.ResetStats();
  auto recovered = RunAlgorithm(algorithm, false, ctx, spec);
  if (recovered.ok()) {
    EXPECT_EQ(*recovered, *clean)
        << AlgorithmName(algorithm) << " returned a wrong result under "
        << "faults instead of failing";
  } else {
    EXPECT_TRUE(IsIoFailure(recovered.status())) << recovered.status();
  }
  const bool faults_fired = disk.retry_stats().any();

  // Pass 2: retry disabled, identical schedule (reseeding replays the
  // same fault sequence). The first fault the recovery layer masked above
  // must now surface as an error.
  RetryPolicy no_retry;
  no_retry.max_attempts = 1;
  disk.set_policy(no_retry);
  base.set_fault_schedule(schedule);
  base.ResetHeads();
  disk.ResetStats();
  auto exposed = RunAlgorithm(algorithm, false, ctx, spec);
  if (faults_fired) {
    EXPECT_FALSE(exposed.ok())
        << AlgorithmName(algorithm)
        << ": schedule fired under retry but not without it";
    if (!exposed.ok()) {
      EXPECT_TRUE(IsIoFailure(exposed.status()));
    }
  } else if (exposed.ok()) {
    EXPECT_EQ(*exposed, *clean);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ChaosSweepTest,
    ::testing::Combine(::testing::Values(Algorithm::kHhnl, Algorithm::kHvnl,
                                         Algorithm::kVvm),
                       ::testing::Values(uint64_t{101}, uint64_t{202},
                                         uint64_t{303}),
                       // fault rate in permille: 0.1%, 1%, 5%
                       ::testing::Values(1, 10, 50)),
    [](const ::testing::TestParamInfo<ChaosSweepTest::ParamType>& info) {
      return std::string(AlgorithmName(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param)) + "_permille" +
             std::to_string(std::get<2>(info.param));
    });

// Silent corruption inside posting blocks: a bit flipped on a posting
// page behind ReliableDisk's back (written through the BASE disk, so the
// recorded page checksum goes stale — exactly what silent media
// corruption looks like) must surface as kDataLoss from every executor
// that reads the inverted file, never as a wrong join result. HHNL reads
// only the document files, so it still returns the exact answer.
TEST(ChaosCorruptionTest, PostingBlockBitFlipsSurfaceAsDataLoss) {
  for (const PostingCompression comp :
       {PostingCompression::kNone, PostingCompression::kDeltaVarint,
        PostingCompression::kGroupVarint}) {
    SimulatedDisk base(256);
    ReliableDisk disk(&base);
    auto inner = RandomCollection(&disk, "c1", 40, 6, 50, 71 + SeedOffset());
    auto outer = RandomCollection(&disk, "c2", 25, 5, 50, 72 + SeedOffset());
    InvertedFile::BuildOptions opts;
    opts.compression = comp;
    auto inner_index = InvertedFile::Build(&disk, "c1.inv", inner, opts);
    auto outer_index = InvertedFile::Build(&disk, "c2.inv", outer, opts);
    ASSERT_TRUE(inner_index.ok());
    ASSERT_TRUE(outer_index.ok());
    auto simctx = SimilarityContext::Create(inner, outer, SimilarityConfig{});
    ASSERT_TRUE(simctx.ok());

    JoinContext ctx;
    ctx.inner = &inner;
    ctx.outer = &outer;
    ctx.inner_index = &*inner_index;
    ctx.outer_index = &*outer_index;
    ctx.similarity = &*simctx;
    ctx.sys = SystemParams{60, base.page_size(), 5.0};
    JoinSpec spec;
    spec.lambda = 3;
    JoinResult expected = BruteForceJoin(inner, outer, *simctx, spec);

    // Flip one bit on every posting page of c1.inv through the base disk:
    // ReliableDisk keeps the checksums it recorded at build time.
    auto inv_file = base.FindFile("c1.inv");
    ASSERT_TRUE(inv_file.ok());
    std::vector<uint8_t> buf(static_cast<size_t>(base.page_size()));
    for (int64_t p = 0; p < inner_index->size_in_pages(); ++p) {
      ASSERT_TRUE(base.PeekPage(*inv_file, p, buf.data()).ok());
      buf[13] ^= 0x20;
      ASSERT_TRUE(
          base.WritePage(*inv_file, p, buf.data(), base.page_size()).ok());
    }

    for (const Algorithm a : {Algorithm::kHvnl, Algorithm::kVvm}) {
      base.ResetHeads();
      disk.ResetStats();
      auto r = RunAlgorithm(a, false, ctx, spec);
      ASSERT_FALSE(r.ok())
          << AlgorithmName(a)
          << " returned a result from corrupt posting blocks";
      EXPECT_EQ(r.status().code(), StatusCode::kDataLoss) << r.status();
      EXPECT_NE(r.status().message().find("checksum mismatch"),
                std::string::npos)
          << r.status();
    }

    base.ResetHeads();
    disk.ResetStats();
    auto hhnl = RunAlgorithm(Algorithm::kHhnl, false, ctx, spec);
    ASSERT_TRUE(hhnl.ok()) << hhnl.status();
    EXPECT_EQ(*hhnl, expected);
  }
}

// Graceful degradation end to end: the cheapest plan needs the inverted
// file; when that file dies permanently, the planner must re-plan and
// complete the query with HHNL — same answer, fallback visible in the
// plan and in EXPLAIN ANALYZE.
TEST(PlannerFallbackTest, ReplansAroundDeadInvertedFile) {
  SimulatedDisk base(256);
  ReliableDisk disk(&base);
  auto f = MakeFixture(&disk, RandomCollection(&disk, "c1", 60, 6, 80, 31),
                       RandomCollection(&disk, "c2", 30, 5, 80, 32));
  JoinSpec spec;
  spec.lambda = 3;
  // A tiny outer subset makes the index-driven plans much cheaper than
  // scanning: the planner must NOT start on HHNL.
  spec.outer_subset = {0, 1};
  JoinContext ctx = f->Context(60);

  JoinPlanner planner;
  auto plan = planner.Plan(ctx, spec);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_NE(plan->algorithm, Algorithm::kHhnl) << plan->explanation;

  JoinResult expected = BruteForceJoin(f->inner, f->outer, f->simctx, spec);

  // Kill the postings file every index algorithm depends on.
  auto inv_file = base.FindFile("c1.inv");
  ASSERT_TRUE(inv_file.ok());
  base.FailFilePermanently(*inv_file);

  PlanChoice chosen;
  auto result = planner.Execute(ctx, spec, &chosen);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(*result, expected);
  EXPECT_EQ(chosen.algorithm, Algorithm::kHhnl);
  ASSERT_FALSE(chosen.fallbacks.empty());
  EXPECT_EQ(chosen.fallbacks.front().failed, plan->algorithm);
  EXPECT_NE(chosen.explanation.find("fallback"), std::string::npos)
      << chosen.explanation;
}

TEST(PlannerFallbackTest, ExplainAnalyzeShowsFallbackAndRecovery) {
  SimulatedDisk base(256);
  ReliableDisk disk(&base);
  auto f = MakeFixture(&disk, RandomCollection(&disk, "c1", 60, 6, 80, 41),
                       RandomCollection(&disk, "c2", 30, 5, 80, 42));
  JoinSpec spec;
  spec.lambda = 3;
  spec.outer_subset = {0, 1};
  JoinContext ctx = f->Context(60);

  JoinPlanner planner;
  auto plan = planner.Plan(ctx, spec);
  ASSERT_TRUE(plan.ok());
  ASSERT_NE(plan->algorithm, Algorithm::kHhnl);

  auto inv_file = base.FindFile("c1.inv");
  ASSERT_TRUE(inv_file.ok());
  base.FailFilePermanently(*inv_file);
  // Heavy transient noise on the surviving files so the (short) fallback
  // run also exercises — and reports — retry recovery. Retries make each
  // read fail outright only with probability 0.3^4.
  FaultSchedule schedule;
  schedule.seed = 7 + SeedOffset();
  schedule.transient_rate = 0.3;
  base.set_fault_schedule(schedule);

  auto analyzed = planner.ExecuteAnalyze(ctx, spec);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  EXPECT_EQ(analyzed->plan.algorithm, Algorithm::kHhnl);
  EXPECT_FALSE(analyzed->plan.fallbacks.empty());
  EXPECT_NE(analyzed->report.find("fallback: "), std::string::npos)
      << analyzed->report;
  // The recovery counters made it through the per-phase attribution.
  EXPECT_TRUE(analyzed->stats.root.io.retry.any());
  EXPECT_NE(analyzed->report.find("recovery:"), std::string::npos)
      << analyzed->report;
}

// All algorithms dead ends: every input file fails, so degradation runs
// out of candidates and reports the terminal error cleanly.
TEST(PlannerFallbackTest, AllAlgorithmsFailingIsATerminalError) {
  SimulatedDisk base(256);
  ReliableDisk disk(&base);
  auto f = MakeFixture(&disk, RandomCollection(&disk, "c1", 30, 6, 50, 51),
                       RandomCollection(&disk, "c2", 20, 5, 50, 52));
  JoinSpec spec;
  JoinContext ctx = f->Context(60);

  for (FileId file = 0; file < base.file_count(); ++file) {
    base.FailFilePermanently(file);
  }
  JoinPlanner planner;
  PlanChoice chosen;
  auto result = planner.Execute(ctx, spec, &chosen);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(result.status().message().find("all feasible algorithms failed"),
            std::string::npos)
      << result.status();
  EXPECT_FALSE(chosen.fallbacks.empty());
}

// Fault-induced retries count against the query deadline: a query that
// exhausts its deadline mid-retry reports DEADLINE_EXCEEDED — the honest
// answer ("you ran out of time") — not UNAVAILABLE ("the device is sick").
// Without a deadline the identical schedule exhausts its attempts and
// reports UNAVAILABLE, and cancellation never triggers planner re-planning.
TEST(ChaosGovernanceTest, RetryBackoffExhaustsDeadline) {
  SimulatedDisk base(256);
  // One backoff charges more simulated time than any realistic deadline,
  // so the outcome is independent of wall-clock speed.
  RetryPolicy policy;
  policy.backoff_base_ms = 1e9;
  policy.max_backoff_ms = 1e10;
  ReliableDisk disk(&base, policy);
  auto f = MakeFixture(&disk, RandomCollection(&disk, "c1", 30, 6, 50, 61),
                       RandomCollection(&disk, "c2", 20, 5, 50, 62));
  JoinSpec spec;
  spec.lambda = 3;
  JoinContext ctx = f->Context(60);
  JoinPlanner planner;

  // With a deadline: the first retry's backoff blows it.
  {
    QueryGovernor governor(GovernorLimits{/*deadline_ms=*/600000.0, 0});
    ScopedDiskGovernor scoped(&disk, &governor);
    ctx.governor = &governor;
    base.InjectReadFault(5);
    auto result = planner.Execute(ctx, spec);
    base.ClearReadFault();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
        << result.status();
    EXPECT_FALSE(IsIoFailure(result.status()))
        << "a deadline mid-retry must not be classified as an I/O failure";
    // The backoff that killed the query is on the books.
    EXPECT_GT(disk.retry_stats().backoff_ms, 0);
  }

  // Without a deadline: the same schedule burns through its attempts and
  // surfaces the device error from the executor the planner picks.
  {
    ctx.governor = nullptr;
    base.ResetHeads();
    disk.ResetStats();
    auto plan = planner.Plan(ctx, spec);
    ASSERT_TRUE(plan.ok()) << plan.status();
    base.InjectReadFault(5);
    auto result =
        RunAlgorithm(plan->algorithm, plan->hhnl_backward, ctx, spec);
    base.ClearReadFault();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kUnavailable)
        << result.status();
    EXPECT_TRUE(IsIoFailure(result.status()));
  }
}

}  // namespace
}  // namespace textjoin
