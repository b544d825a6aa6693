// Query-lifecycle governance: cooperative cancellation at randomized
// checkpoints, deadline enforcement, memory-budget degradation with
// bit-identical results, and admission control / load shedding.
//
// `scripts/check.sh stress` re-runs this binary under several values of
// TEXTJOIN_STRESS_SEED; the randomized cancellation points below shift
// with it so each sweep explores different interrupt positions.

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "exec/admission.h"
#include "exec/governor.h"
#include "join/hhnl.h"
#include "join/hvnl.h"
#include "join/vvm.h"
#include "parallel/parallel_join.h"
#include "planner/planner.h"
#include "relational/database.h"
#include "serve/scheduler.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "test_util.h"

namespace textjoin {
namespace {

using testing_util::MakeFixture;
using testing_util::RandomCollection;

uint64_t SeedOffset() {
  const char* s = std::getenv("TEXTJOIN_STRESS_SEED");
  return s != nullptr ? std::strtoull(s, nullptr, 10) : 0;
}

Result<JoinResult> RunAlgorithm(Algorithm algorithm, const JoinContext& ctx,
                                const JoinSpec& spec) {
  switch (algorithm) {
    case Algorithm::kHhnl: {
      HhnlJoin join;
      return join.Run(ctx, spec);
    }
    case Algorithm::kHvnl: {
      HvnlJoin join;
      return join.Run(ctx, spec);
    }
    case Algorithm::kVvm: {
      VvmJoin join;
      return join.Run(ctx, spec);
    }
  }
  return Status::Internal("unknown algorithm");
}

// ---------------------------------------------------------------------------
// QueryGovernor unit behaviour.

TEST(GovernorTest, DefaultGovernorNeverFires) {
  QueryGovernor g;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(g.Checkpoint("loop").ok());
    EXPECT_TRUE(g.PollIo().ok());
  }
  EXPECT_EQ(g.checkpoints(), 100);
  EXPECT_EQ(g.io_polls(), 100);
  EXPECT_FALSE(g.cancelled());
  EXPECT_LT(g.time_to_cancel_ms(), 0);
}

TEST(GovernorTest, CancelStopsBothCheckpointAndIoPaths) {
  QueryGovernor g;
  ASSERT_TRUE(g.Checkpoint("before").ok());
  g.Cancel();
  Status at_checkpoint = g.Checkpoint("after");
  EXPECT_EQ(at_checkpoint.code(), StatusCode::kCancelled);
  EXPECT_TRUE(IsCancellation(at_checkpoint));
  EXPECT_EQ(g.PollIo().code(), StatusCode::kCancelled);
  EXPECT_GE(g.time_to_cancel_ms(), 0);
}

TEST(GovernorTest, CancelAtNthCheckpointIsDeterministic) {
  QueryGovernor g;
  g.CancelAtCheckpoint(3);
  EXPECT_TRUE(g.Checkpoint("a").ok());
  // I/O polls must not advance the checkpoint ordinal.
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(g.PollIo().ok());
  EXPECT_TRUE(g.Checkpoint("b").ok());
  Status third = g.Checkpoint("c");
  EXPECT_EQ(third.code(), StatusCode::kCancelled);
  EXPECT_NE(third.message().find("c"), std::string::npos) << third;
}

TEST(GovernorTest, SimulatedTimeCountsAgainstDeadline) {
  QueryGovernor g(GovernorLimits{/*deadline_ms=*/1000.0, 0});
  EXPECT_TRUE(g.Checkpoint("early").ok());
  g.ChargeSimulatedMs(2000.0);
  Status late = g.Checkpoint("late");
  EXPECT_EQ(late.code(), StatusCode::kDeadlineExceeded);
  // The deadline latches the shared cancel flag: every later observer
  // (e.g. a sibling worker) stops too.
  EXPECT_TRUE(g.cancelled());
}

TEST(GovernorTest, WorkerSharesCancellationAndRemainingDeadline) {
  QueryGovernor parent(GovernorLimits{/*deadline_ms=*/1000.0, 32});
  QueryGovernor worker = parent.SpawnWorker();
  EXPECT_GT(worker.limits().deadline_ms, 0);
  EXPECT_LE(worker.limits().deadline_ms, 1000.0);
  EXPECT_EQ(worker.limits().memory_budget_pages, 32);
  parent.Cancel();
  EXPECT_EQ(worker.Checkpoint("worker step").code(), StatusCode::kCancelled);
  // And the other direction: a worker failure cancels the parent.
  QueryGovernor parent2;
  QueryGovernor worker2 = parent2.SpawnWorker();
  worker2.Cancel();
  EXPECT_TRUE(parent2.cancelled());
}

TEST(GovernorTest, CapBufferPagesRecordsDegradation) {
  QueryGovernor unlimited;
  EXPECT_EQ(unlimited.CapBufferPages(500), 500);
  EXPECT_FALSE(unlimited.degraded());

  QueryGovernor capped(GovernorLimits{0, /*memory_budget_pages=*/100});
  EXPECT_EQ(capped.CapBufferPages(50), 50);  // budget does not bite
  EXPECT_FALSE(capped.degraded());
  EXPECT_EQ(capped.CapBufferPages(500), 100);
  EXPECT_TRUE(capped.degraded());
}

// ---------------------------------------------------------------------------
// (a) Cancellation sweep: every algorithm, randomized interrupt points.

class CancellationSweepTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(CancellationSweepTest, CleanErrorAtRandomizedCheckpoints) {
  const Algorithm algorithm = GetParam();
  SimulatedDisk disk(256);
  auto f = MakeFixture(&disk, RandomCollection(&disk, "c1", 40, 6, 50, 31),
                       RandomCollection(&disk, "c2", 25, 5, 50, 32));
  JoinSpec spec;
  spec.lambda = 3;
  JoinContext ctx = f->Context(60);

  // Ground truth, ungoverned.
  auto clean = RunAlgorithm(algorithm, ctx, spec);
  ASSERT_TRUE(clean.ok()) << clean.status();

  // A governed run with no limits must not change the result, and tells
  // us how many checkpoints this algorithm passes on this input.
  QueryGovernor count_governor;
  {
    ScopedDiskGovernor scoped(&disk, &count_governor);
    ctx.governor = &count_governor;
    auto governed = RunAlgorithm(algorithm, ctx, spec);
    ASSERT_TRUE(governed.ok()) << governed.status();
    EXPECT_EQ(*governed, *clean)
        << AlgorithmName(algorithm) << ": a no-limit governor changed the result";
  }
  const int64_t total = count_governor.checkpoints();
  ASSERT_GE(total, 1) << AlgorithmName(algorithm)
                      << " passed no cancellation checkpoints";
  EXPECT_GT(count_governor.io_polls(), 0)
      << AlgorithmName(algorithm) << " never polled on the I/O path";

  // Cancel at the first, the last, and three randomized checkpoints.
  Rng rng(77 + static_cast<uint64_t>(algorithm) + SeedOffset());
  std::vector<int64_t> cancel_points = {1, total};
  for (int i = 0; i < 3; ++i) {
    cancel_points.push_back(
        1 + static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(total))));
  }
  for (int64_t n : cancel_points) {
    QueryGovernor governor;
    governor.CancelAtCheckpoint(n);
    ScopedDiskGovernor scoped(&disk, &governor);
    ctx.governor = &governor;
    auto result = RunAlgorithm(algorithm, ctx, spec);
    // Never a partial result presented as complete: the run is an error.
    ASSERT_FALSE(result.ok())
        << AlgorithmName(algorithm) << " ignored cancellation at checkpoint "
        << n << "/" << total;
    EXPECT_TRUE(IsCancellation(result.status())) << result.status();
    EXPECT_FALSE(IsIoFailure(result.status()))
        << "cancellation must not look like an I/O failure (the planner "
        << "would re-plan it): " << result.status();
    EXPECT_EQ(governor.checkpoints(), n)
        << AlgorithmName(algorithm) << " kept running past its cancellation";
    EXPECT_GE(governor.time_to_cancel_ms(), 0);

    // Leak invariant: a cancelled query leaves no pinned buffer frames.
    // While the cancelled governor is installed, the pool refuses new
    // pins without pinning; once it is gone, the pool works again.
    BufferPool pool(&disk, 4);
    auto file = disk.FindFile("c1");
    ASSERT_TRUE(file.ok());
    auto pinned = pool.Pin(*file, 0);
    ASSERT_FALSE(pinned.ok());
    EXPECT_TRUE(IsCancellation(pinned.status())) << pinned.status();
    EXPECT_EQ(pool.pinned_frames(), 0);
    ctx.governor = nullptr;
  }

  // After every cancelled run the disk is untouched: the same join still
  // produces the clean result.
  auto again = RunAlgorithm(algorithm, ctx, spec);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(*again, *clean);
}

TEST_P(CancellationSweepTest, TinyDeadlineFailsWithDeadlineExceeded) {
  const Algorithm algorithm = GetParam();
  SimulatedDisk disk(256);
  auto f = MakeFixture(&disk, RandomCollection(&disk, "c1", 30, 6, 50, 41),
                       RandomCollection(&disk, "c2", 20, 5, 50, 42));
  JoinSpec spec;
  spec.lambda = 3;
  JoinContext ctx = f->Context(60);

  QueryGovernor governor(GovernorLimits{/*deadline_ms=*/1e-9, 0});
  ScopedDiskGovernor scoped(&disk, &governor);
  ctx.governor = &governor;
  auto result = RunAlgorithm(algorithm, ctx, spec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status();
}

INSTANTIATE_TEST_SUITE_P(Sweep, CancellationSweepTest,
                         ::testing::Values(Algorithm::kHhnl, Algorithm::kHvnl,
                                           Algorithm::kVvm),
                         [](const auto& info) {
                           return std::string(AlgorithmName(info.param));
                         });

// Parallel joins: the parent governor reaches every worker.
TEST(ParallelGovernanceTest, CancellationReachesWorkers) {
  SimulatedDisk disk(256);
  auto f = MakeFixture(&disk, RandomCollection(&disk, "c1", 30, 6, 50, 51),
                       RandomCollection(&disk, "c2", 24, 5, 50, 52));
  JoinSpec spec;
  spec.lambda = 3;
  JoinContext ctx = f->Context(60);

  ParallelTextJoin parallel({Algorithm::kHhnl, /*workers=*/3});
  auto clean = parallel.Run(ctx, spec);
  ASSERT_TRUE(clean.ok()) << clean.status();

  // A no-limit governor is transparent.
  {
    QueryGovernor governor;
    ScopedDiskGovernor scoped(&disk, &governor);
    ctx.governor = &governor;
    auto governed = parallel.Run(ctx, spec);
    ASSERT_TRUE(governed.ok()) << governed.status();
    EXPECT_EQ(governed->result, clean->result);
  }

  // Parent checkpoints: "parallel setup", then one per worker. Cancelling
  // at each position stops the whole query with a clean error.
  for (int64_t n = 1; n <= 4; ++n) {
    QueryGovernor governor;
    governor.CancelAtCheckpoint(n);
    ScopedDiskGovernor scoped(&disk, &governor);
    ctx.governor = &governor;
    auto result = parallel.Run(ctx, spec);
    ASSERT_FALSE(result.ok()) << "parallel join ignored cancellation at " << n;
    EXPECT_TRUE(IsCancellation(result.status())) << result.status();
  }
  ctx.governor = nullptr;
}

TEST(ParallelGovernanceTest, DeadlineCancelsParallelJoin) {
  SimulatedDisk disk(256);
  auto f = MakeFixture(&disk, RandomCollection(&disk, "c1", 30, 6, 50, 61),
                       RandomCollection(&disk, "c2", 24, 5, 50, 62));
  JoinSpec spec;
  spec.lambda = 3;
  JoinContext ctx = f->Context(60);

  // The deadline expires inside a worker (the setup checkpoints pass
  // before any simulated time is charged... so charge it up front).
  QueryGovernor governor(GovernorLimits{/*deadline_ms=*/5.0, 0});
  governor.ChargeSimulatedMs(10.0);
  ScopedDiskGovernor scoped(&disk, &governor);
  ctx.governor = &governor;
  ParallelTextJoin parallel({Algorithm::kHhnl, /*workers=*/3});
  auto result = parallel.Run(ctx, spec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status();
  ctx.governor = nullptr;
}

// ---------------------------------------------------------------------------
// (b) Memory-budget degradation: bit-identical results at half the buffer.

class DegradationTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(DegradationTest, HalfBudgetIsBitIdentical) {
  const Algorithm algorithm = GetParam();
  SimulatedDisk disk(256);
  auto f = MakeFixture(&disk, RandomCollection(&disk, "c1", 40, 6, 50, 71),
                       RandomCollection(&disk, "c2", 25, 5, 50, 72));
  JoinSpec spec;
  spec.lambda = 3;
  const int64_t B = 60;
  JoinContext ctx = f->Context(B);

  auto unconstrained = RunAlgorithm(algorithm, ctx, spec);
  ASSERT_TRUE(unconstrained.ok()) << unconstrained.status();

  QueryGovernor governor(GovernorLimits{0, /*memory_budget_pages=*/B / 2});
  ScopedDiskGovernor scoped(&disk, &governor);
  ctx.governor = &governor;

  if (algorithm == Algorithm::kVvm) {
    // A budget tight enough to shrink the matrix partition forces more,
    // smaller passes — and still the identical result. (The half-B budget
    // below leaves the matrix whole on this input, so the pass-count
    // assertion needs its own, tighter governor.)
    JoinContext full = ctx;
    full.governor = nullptr;
    QueryGovernor tiny(GovernorLimits{0, /*memory_budget_pages=*/3});
    JoinContext tiny_ctx = ctx;
    tiny_ctx.governor = &tiny;
    EXPECT_GT(VvmJoin::Passes(tiny_ctx, spec), VvmJoin::Passes(full, spec));
    ScopedDiskGovernor tiny_scoped(&disk, &tiny);
    auto multi_pass = RunAlgorithm(algorithm, tiny_ctx, spec);
    ASSERT_TRUE(multi_pass.ok()) << multi_pass.status();
    EXPECT_EQ(*multi_pass, *unconstrained)
        << "multi-pass VVM changed the join result";
    EXPECT_TRUE(tiny.degraded());
  }
  if (algorithm == Algorithm::kHhnl) {
    JoinContext full = ctx;
    full.governor = nullptr;
    EXPECT_LT(HhnlJoin::BatchSize(ctx, spec), HhnlJoin::BatchSize(full, spec));
  }

  auto constrained = RunAlgorithm(algorithm, ctx, spec);
  ASSERT_TRUE(constrained.ok()) << constrained.status();
  EXPECT_EQ(*constrained, *unconstrained)
      << AlgorithmName(algorithm)
      << ": degradation changed the join result";
  EXPECT_TRUE(governor.degraded())
      << AlgorithmName(algorithm) << " never consulted the memory budget";
  ctx.governor = nullptr;
}

INSTANTIATE_TEST_SUITE_P(Sweep, DegradationTest,
                         ::testing::Values(Algorithm::kHhnl, Algorithm::kHvnl,
                                           Algorithm::kVvm),
                         [](const auto& info) {
                           return std::string(AlgorithmName(info.param));
                         });

// ---------------------------------------------------------------------------
// (c) Admission control: N slots, 4N submissions.

TEST(AdmissionTest, AdmitsQueuesAndSheds) {
  AdmissionOptions options;
  options.max_concurrent = 2;
  options.max_queue = 4;
  AdmissionController controller(options);

  const int64_t N = options.max_concurrent;
  std::vector<AdmissionGrant> admitted;
  std::vector<AdmissionGrant> queued;
  int64_t shed = 0;
  for (int64_t i = 0; i < 4 * N; ++i) {
    auto grant = controller.Submit(/*predicted_cost_pages=*/100,
                                   /*memory_claim_pages=*/10);
    if (!grant.ok()) {
      EXPECT_EQ(grant.status().code(), StatusCode::kResourceExhausted)
          << grant.status();
      EXPECT_TRUE(IsRetriableAdmission(grant.status()));
      EXPECT_FALSE(IsCancellation(grant.status()));
      ++shed;
      continue;
    }
    if (grant->outcome == AdmissionOutcome::kAdmitted) {
      admitted.push_back(*grant);
    } else {
      EXPECT_EQ(grant->outcome, AdmissionOutcome::kQueued);
      queued.push_back(*grant);
    }
  }
  EXPECT_EQ(static_cast<int64_t>(admitted.size()), N);
  EXPECT_EQ(static_cast<int64_t>(queued.size()), options.max_queue);
  EXPECT_EQ(shed, 4 * N - N - options.max_queue);
  EXPECT_EQ(controller.running(), N);
  EXPECT_EQ(controller.queued(), options.max_queue);
  EXPECT_EQ(controller.total_admitted(), N);
  EXPECT_EQ(controller.total_queued(), options.max_queue);
  EXPECT_EQ(controller.total_shed(), shed);

  // Finishing a running query promotes the head of the FIFO, whose Await
  // then reports the simulated queue wait.
  controller.Release(admitted[0].ticket, /*elapsed_ms=*/25.0);
  auto resolved = controller.Await(queued[0].ticket);
  ASSERT_TRUE(resolved.ok()) << resolved.status();
  EXPECT_EQ(resolved->outcome, AdmissionOutcome::kQueued);
  EXPECT_DOUBLE_EQ(resolved->queue_wait_ms, 25.0);
  EXPECT_EQ(controller.running(), N);

  // A ticket that never got a slot resolves to a shed, not a hang.
  controller.Release(resolved->ticket);
  controller.Release(admitted[1].ticket);
  auto second = controller.Await(queued[1].ticket);
  ASSERT_TRUE(second.ok());
  auto starved = controller.Await(queued[3].ticket);
  EXPECT_FALSE(starved.ok());
  EXPECT_TRUE(IsRetriableAdmission(starved.status())) << starved.status();
}

TEST(AdmissionTest, QueueTimeoutShedsWaiters) {
  AdmissionOptions options;
  options.max_concurrent = 1;
  options.max_queue = 2;
  options.queue_timeout_ms = 10.0;
  AdmissionController controller(options);

  auto first = controller.Submit(0, 0);
  ASSERT_TRUE(first.ok());
  auto waiting = controller.Submit(0, 0);
  ASSERT_TRUE(waiting.ok());
  EXPECT_EQ(waiting->outcome, AdmissionOutcome::kQueued);

  // The running query takes longer than the waiter is allowed to wait.
  controller.Release(first->ticket, /*elapsed_ms=*/50.0);
  auto resolved = controller.Await(waiting->ticket);
  ASSERT_FALSE(resolved.ok());
  EXPECT_EQ(resolved.status().code(), StatusCode::kResourceExhausted)
      << resolved.status();
  EXPECT_EQ(controller.running(), 0);
  EXPECT_EQ(controller.total_shed(), 1);
}

TEST(AdmissionTest, QueueTimeoutChargesWaitAndCountsTimeoutShed) {
  AdmissionOptions options;
  options.max_concurrent = 1;
  options.max_queue = 2;
  options.queue_timeout_ms = 10.0;
  AdmissionController controller(options);

  auto running = controller.Submit(0, 0);
  ASSERT_TRUE(running.ok());
  auto waiter = controller.Submit(0, 0);
  ASSERT_TRUE(waiter.ok());
  EXPECT_EQ(waiter->outcome, AdmissionOutcome::kQueued);

  // Time passes with no Release: the timeout must fire from the clock
  // alone, and the 25 ms the waiter actually sat in the queue must be
  // charged to the wait accounting, not silently dropped with the query.
  controller.AdvanceTimeMs(25.0);
  EXPECT_EQ(controller.StateOf(waiter->ticket), TicketState::kTimedOut);
  EXPECT_EQ(controller.queued(), 0);
  EXPECT_EQ(controller.total_timeout_shed(), 1);
  EXPECT_EQ(controller.total_shed(), 1);
  EXPECT_DOUBLE_EQ(controller.total_queue_wait_ms(), 25.0);
  EXPECT_DOUBLE_EQ(controller.shed_wait_ms(waiter->ticket), 25.0);

  // Await reports the shed; the per-ticket wait record survives it so a
  // scheduler can fill its post-mortem report.
  auto resolved = controller.Await(waiter->ticket);
  ASSERT_FALSE(resolved.ok());
  EXPECT_EQ(resolved.status().code(), StatusCode::kResourceExhausted);
  EXPECT_DOUBLE_EQ(controller.shed_wait_ms(waiter->ticket), 25.0);

  // A ticket never shed from the queue has no shed-wait record.
  EXPECT_LT(controller.shed_wait_ms(running->ticket), 0);
}

TEST(AdmissionTest, AdvanceTimeOnEmptyQueueIsHarmless) {
  AdmissionOptions options;
  options.max_concurrent = 1;
  options.queue_timeout_ms = 5.0;
  AdmissionController controller(options);

  controller.AdvanceTimeMs(100.0);
  EXPECT_DOUBLE_EQ(controller.now_ms(), 100.0);
  EXPECT_EQ(controller.total_shed(), 0);
  EXPECT_EQ(controller.total_timeout_shed(), 0);
  EXPECT_DOUBLE_EQ(controller.total_queue_wait_ms(), 0.0);
  // The controller still admits after an idle stretch.
  auto grant = controller.Submit(0, 0);
  ASSERT_TRUE(grant.ok());
  EXPECT_EQ(grant->outcome, AdmissionOutcome::kAdmitted);
}

TEST(AdmissionTest, ExactBoundaryWaitPromotesInsteadOfShedding) {
  AdmissionOptions options;
  options.max_concurrent = 1;
  options.max_queue = 2;
  options.queue_timeout_ms = 10.0;

  // wait == timeout: still within the allowed wait, so the waiter is
  // promoted and charged exactly the boundary wait.
  {
    AdmissionController controller(options);
    auto running = controller.Submit(0, 0);
    ASSERT_TRUE(running.ok());
    auto waiter = controller.Submit(0, 0);
    ASSERT_TRUE(waiter.ok());
    controller.Release(running->ticket, /*elapsed_ms=*/10.0);
    EXPECT_EQ(controller.StateOf(waiter->ticket), TicketState::kPromoted);
    auto promoted = controller.Await(waiter->ticket);
    ASSERT_TRUE(promoted.ok()) << promoted.status();
    EXPECT_DOUBLE_EQ(promoted->queue_wait_ms, 10.0);
    EXPECT_EQ(controller.total_timeout_shed(), 0);
    EXPECT_DOUBLE_EQ(controller.total_queue_wait_ms(), 10.0);
  }

  // Any strictly larger wait sheds.
  {
    AdmissionController controller(options);
    auto running = controller.Submit(0, 0);
    ASSERT_TRUE(running.ok());
    auto waiter = controller.Submit(0, 0);
    ASSERT_TRUE(waiter.ok());
    controller.Release(running->ticket, /*elapsed_ms=*/10.0 + 1e-9);
    EXPECT_EQ(controller.StateOf(waiter->ticket), TicketState::kTimedOut);
    EXPECT_EQ(controller.total_timeout_shed(), 1);
    EXPECT_FALSE(controller.Await(waiter->ticket).ok());
  }
}

TEST(AdmissionTest, PredictedRuntimeOverDeadlineIsShedUpFront) {
  AdmissionOptions options;
  options.max_concurrent = 4;
  options.cost_unit_ms = 1.0;  // 1 ms per predicted page
  AdmissionController controller(options);

  auto fits = controller.Submit(/*predicted_cost_pages=*/100, 0,
                                /*deadline_ms=*/500.0);
  ASSERT_TRUE(fits.ok()) << fits.status();
  EXPECT_DOUBLE_EQ(fits->predicted_runtime_ms, 100.0);

  auto doomed = controller.Submit(/*predicted_cost_pages=*/1000, 0,
                                  /*deadline_ms=*/500.0);
  ASSERT_FALSE(doomed.ok());
  EXPECT_EQ(doomed.status().code(), StatusCode::kDeadlineExceeded)
      << doomed.status();
  EXPECT_TRUE(IsCancellation(doomed.status()));
  EXPECT_EQ(controller.total_shed(), 1);
}

TEST(AdmissionTest, MemoryPressureGrantsPartialClaims) {
  AdmissionOptions options;
  options.max_concurrent = 4;
  options.memory_budget_pages = 100;
  AdmissionController controller(options);

  auto big = controller.Submit(0, /*memory_claim_pages=*/80);
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(big->memory_granted_pages, 80);

  // Only 20 pages remain: the next query is granted the remainder and
  // must degrade instead of being rejected.
  auto squeezed = controller.Submit(0, /*memory_claim_pages=*/50);
  ASSERT_TRUE(squeezed.ok());
  EXPECT_EQ(squeezed->memory_granted_pages, 20);
  EXPECT_EQ(controller.memory_in_use_pages(), 100);

  controller.Release(big->ticket);
  EXPECT_EQ(controller.memory_in_use_pages(), 20);
}

TEST(AdmissionTest, FifoFairnessNoOvertaking) {
  AdmissionOptions options;
  options.max_concurrent = 1;
  options.max_queue = 2;
  AdmissionController controller(options);

  auto running = controller.Submit(0, 0);
  ASSERT_TRUE(running.ok());
  auto waiter = controller.Submit(0, 0);
  ASSERT_TRUE(waiter.ok());
  EXPECT_EQ(waiter->outcome, AdmissionOutcome::kQueued);

  // Even after the slot frees, a newcomer must not jump the queue.
  controller.Release(running->ticket, 5.0);
  auto newcomer = controller.Submit(0, 0);
  ASSERT_TRUE(newcomer.ok());
  EXPECT_EQ(newcomer->outcome, AdmissionOutcome::kQueued);
  auto promoted = controller.Await(waiter->ticket);
  ASSERT_TRUE(promoted.ok()) << promoted.status();
}

// ---------------------------------------------------------------------------
// Database integration: admission + governor + EXPLAIN ANALYZE + SET knobs.

const std::vector<std::string> kResumes = {
    "database indexing and query processing experience",
    "realtime embedded control firmware for avionics",
    "social media brand campaigns and market research",
    "distributed storage replication and consensus",
};
const std::vector<std::string> kJobs = {
    "database engineer for query processing",
    "embedded firmware engineer realtime control",
};

void FillDatabase(Database* db) {
  ASSERT_TRUE(db->AddCollectionFromText("resumes", kResumes).ok());
  ASSERT_TRUE(db->AddCollectionFromText("jobs", kJobs).ok());
  ASSERT_TRUE(db->BuildIndex("resumes").ok());
  ASSERT_TRUE(db->BuildIndex("jobs").ok());
}

TEST(DatabaseGovernanceTest, ExplainAnalyzeReportsGovernance) {
  DatabaseOptions options;
  options.admission.max_concurrent = 2;
  Database db(options);
  FillDatabase(&db);

  JoinSpec spec;
  spec.lambda = 1;
  auto analyzed = db.JoinAnalyze("resumes", "jobs", spec);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  EXPECT_NE(analyzed->report.find("governance: admitted"), std::string::npos)
      << analyzed->report;
  EXPECT_NE(analyzed->report.find("queue wait"), std::string::npos);
  EXPECT_NE(analyzed->report.find("checkpoints="), std::string::npos);
  EXPECT_EQ(db.admission()->running(), 0) << "query never released its slot";
  EXPECT_EQ(db.admission()->total_admitted(), 1);
}

TEST(DatabaseGovernanceTest, UngovernedReportHasNoGovernanceBlock) {
  Database db;
  FillDatabase(&db);
  JoinSpec spec;
  spec.lambda = 1;
  auto analyzed = db.JoinAnalyze("resumes", "jobs", spec);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  EXPECT_EQ(analyzed->report.find("governance:"), std::string::npos)
      << analyzed->report;
}

TEST(DatabaseGovernanceTest, SpecDeadlineCancelsJoin) {
  Database db;
  FillDatabase(&db);
  JoinSpec spec;
  spec.lambda = 1;
  spec.deadline_ms = 1e-9;
  auto result = db.Join("resumes", "jobs", spec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status();
  // Admission bookkeeping (off here) and the disk survive: the same join
  // without the deadline succeeds.
  spec.deadline_ms = 0;
  auto retry = db.Join("resumes", "jobs", spec);
  EXPECT_TRUE(retry.ok()) << retry.status();
}

TEST(DatabaseGovernanceTest, SpecMemoryBudgetDegradesNotFails) {
  Database db;
  FillDatabase(&db);
  JoinSpec spec;
  spec.lambda = 1;
  auto full = db.Join("resumes", "jobs", spec);
  ASSERT_TRUE(full.ok()) << full.status();
  spec.memory_budget_pages = 8;
  auto constrained = db.Join("resumes", "jobs", spec);
  ASSERT_TRUE(constrained.ok()) << constrained.status();
  EXPECT_EQ(*constrained, *full);
}

TEST(DatabaseGovernanceTest, SetKnobsApplyToSqlQueries) {
  Database db;
  FillDatabase(&db);

  Table applicants("Applicants",
                   std::vector<Column>{{"Name", ColumnType::kString},
                                       {"Resume", ColumnType::kText}});
  TEXTJOIN_CHECK_OK(
      applicants.AttachCollection("Resume", db.collection("resumes")));
  TEXTJOIN_CHECK_OK(applicants.AddRow({std::string("Ann"), TextRef{0}}));
  TEXTJOIN_CHECK_OK(applicants.AddRow({std::string("Bob"), TextRef{1}}));
  TEXTJOIN_CHECK_OK(applicants.AddRow({std::string("Cam"), TextRef{2}}));
  TEXTJOIN_CHECK_OK(applicants.AddRow({std::string("Dee"), TextRef{3}}));
  Table positions("Positions",
                  std::vector<Column>{{"Title", ColumnType::kString},
                                      {"Job_descr", ColumnType::kText}});
  TEXTJOIN_CHECK_OK(
      positions.AttachCollection("Job_descr", db.collection("jobs")));
  TEXTJOIN_CHECK_OK(
      positions.AddRow({std::string("DB Engineer"), TextRef{0}}));
  TEXTJOIN_CHECK_OK(
      positions.AddRow({std::string("Firmware Engineer"), TextRef{1}}));
  ASSERT_TRUE(db.RegisterTable(&applicants).ok());
  ASSERT_TRUE(db.RegisterTable(&positions).ok());

  const std::string join_sql =
      "SELECT P.Title, A.Name FROM Positions P, Applicants A "
      "WHERE A.Resume SIMILAR_TO(1) P.Job_descr";

  // SET parses, echoes, and sticks.
  auto set_out = db.ExecuteSql("SET deadline_ms = 0.000001;");
  ASSERT_TRUE(set_out.ok()) << set_out.status();
  ASSERT_EQ(set_out->rows.size(), 1u);
  EXPECT_EQ(set_out->rows[0], "SET deadline_ms = 0.000001");
  EXPECT_GT(db.session_deadline_ms(), 0);

  // The session deadline now cancels the SQL join...
  auto doomed = db.ExecuteSql(join_sql);
  ASSERT_FALSE(doomed.ok());
  EXPECT_TRUE(IsCancellation(doomed.status())) << doomed.status();

  // ...until cleared.
  ASSERT_TRUE(db.ExecuteSql("SET deadline_ms = 0").ok());
  EXPECT_EQ(db.session_deadline_ms(), 0);
  auto fine = db.ExecuteSql(join_sql);
  ASSERT_TRUE(fine.ok()) << fine.status();
  EXPECT_EQ(fine->rows.size(), 2u);

  // A memory budget degrades without changing results.
  ASSERT_TRUE(db.ExecuteSql("set memory_budget_pages = 8").ok());
  auto squeezed = db.ExecuteSql(join_sql);
  ASSERT_TRUE(squeezed.ok()) << squeezed.status();
  EXPECT_EQ(squeezed->rows, fine->rows);

  // Bad knob / bad value are one-line errors, not crashes.
  auto unknown = db.ExecuteSql("SET warp_speed = 9");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("deadline_ms"),
            std::string::npos)
      << "the error should list supported knobs: " << unknown.status();
  EXPECT_FALSE(db.ExecuteSql("SET deadline_ms = banana").ok());
  EXPECT_FALSE(db.ExecuteSql("SET deadline_ms = -5").ok());
  // strtod parses "inf" and "nan"; neither is a knob value, and an integer
  // knob past int64 has no value to store.
  for (const std::string knob :
       {"deadline_ms", "memory_budget_pages", "result_cache_entries"}) {
    for (const std::string value : {"inf", "nan", "-nan", "1e30"}) {
      // A finite deadline, however long, is a valid one (checked below).
      if (knob == "deadline_ms" && value == "1e30") continue;
      auto bad = db.ExecuteSql("SET " + knob + " = " + value);
      EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument)
          << knob << " = " << value;
    }
  }
  EXPECT_EQ(db.session_deadline_ms(), 0);
  EXPECT_EQ(db.session_memory_budget_pages(), 8);
  ASSERT_TRUE(db.ExecuteSql("SET deadline_ms = 1e30").ok());
  EXPECT_EQ(db.session_deadline_ms(), 1e30);
}

// ---------------------------------------------------------------------------
// Serving-layer governance: cancellation of one tenant's query must not
// poison the shared result cache or leak pinned buffer frames, and must
// leave the other tenant's concurrent query bit-identical.

TEST(ServingGovernanceTest, CancelledTenantLeavesNoPoisonNoLeaksNoDamage) {
  SimulatedDisk disk(256);
  DocumentCollection col =
      RandomCollection(&disk, "docs", 80, 5, 40, 91 + SeedOffset());
  auto index = InvertedFile::Build(&disk, "docs.inv", col);
  ASSERT_TRUE(index.ok()) << index.status();

  const std::vector<DCell> query_a = {{0, 2}, {1, 1}, {4, 1}};
  const std::vector<DCell> query_b = {{2, 1}, {3, 2}};

  // Ground truth: each query served alone, no cache, no sharing.
  auto isolated = [&](const std::vector<DCell>& cells) {
    ServeOptions options;
    options.result_cache_entries = 0;
    options.shared_scans = false;
    QueryScheduler alone(&disk, nullptr, options);
    TEXTJOIN_CHECK_OK(alone.AddCollection("docs", &col, &*index));
    ServeQuery q;
    q.collection = "docs";
    q.cells = cells;
    q.lambda = 4;
    TEXTJOIN_CHECK_OK(alone.Submit(q).status());
    auto records = alone.Run();
    TEXTJOIN_CHECK_OK(records.status());
    TEXTJOIN_CHECK(records.value().front().outcome == "completed");
    return records.value().front().matches;
  };
  const std::vector<Match> ref_a = isolated(query_a);
  const std::vector<Match> ref_b = isolated(query_b);

  ServeOptions options;
  options.result_cache_entries = 8;
  options.shared_scans = true;
  options.buffer_pool_pages = 24;
  options.tenants = {{"a", 8}, {"b", 8}};
  QueryScheduler scheduler(&disk, nullptr, options);
  ASSERT_TRUE(scheduler.AddCollection("docs", &col, &*index).ok());

  // Tenant a's query dies at its second checkpoint while tenant b's runs
  // interleaved with it.
  ServeQuery qa;
  qa.tenant = "a";
  qa.collection = "docs";
  qa.cells = query_a;
  qa.lambda = 4;
  qa.cancel_at_checkpoint = 2;
  ServeQuery qb;
  qb.tenant = "b";
  qb.collection = "docs";
  qb.cells = query_b;
  qb.lambda = 4;
  ASSERT_TRUE(scheduler.Submit(qa).ok());
  ASSERT_TRUE(scheduler.Submit(qb).ok());
  auto records = scheduler.Run();
  ASSERT_TRUE(records.ok()) << records.status();
  ASSERT_EQ(records->size(), 2u);

  const QueryRecord& ra = (*records)[0];
  const QueryRecord& rb = (*records)[1];
  EXPECT_EQ(ra.outcome, "cancelled") << ra.error;
  EXPECT_TRUE(ra.matches.empty())
      << "a cancelled query must not present partial matches";
  ASSERT_EQ(rb.outcome, "completed") << rb.error;
  EXPECT_EQ(rb.matches, ref_b)
      << "the surviving tenant's result changed under a neighbor's "
      << "cancellation";

  // No leaked pins, no admission slot held.
  EXPECT_EQ(scheduler.pool()->pinned_frames(), 0);
  EXPECT_EQ(scheduler.admission()->running(), 0);

  // No cache poison: the cancelled query inserted nothing, so re-running
  // it is a cold MISS that produces the correct full result...
  ServeQuery retry = qa;
  retry.cancel_at_checkpoint = 0;
  ASSERT_TRUE(scheduler.Submit(retry).ok());
  auto rerun = scheduler.Run();
  ASSERT_TRUE(rerun.ok()) << rerun.status();
  ASSERT_EQ(rerun->front().outcome, "completed") << rerun->front().error;
  EXPECT_FALSE(rerun->front().cache_hit)
      << "a cancelled query must never seed the cache";
  EXPECT_EQ(rerun->front().matches, ref_a);

  // ...and only the COMPLETED run is cached for the next repeat.
  ASSERT_TRUE(scheduler.Submit(retry).ok());
  auto warm = scheduler.Run();
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm->front().outcome, "completed");
  EXPECT_TRUE(warm->front().cache_hit);
  EXPECT_EQ(warm->front().matches, ref_a);
}

TEST(DatabaseGovernanceTest, AdmissionDefaultDeadlineGovernsJoins) {
  DatabaseOptions options;
  options.admission.default_deadline_ms = 1e-9;
  Database db(options);
  FillDatabase(&db);
  JoinSpec spec;
  spec.lambda = 1;
  auto result = db.Join("resumes", "jobs", spec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status();
  // A per-query deadline overrides the database default.
  spec.deadline_ms = 60000;
  auto generous = db.Join("resumes", "jobs", spec);
  EXPECT_TRUE(generous.ok()) << generous.status();
}

}  // namespace
}  // namespace textjoin
