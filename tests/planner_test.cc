#include <gtest/gtest.h>

#include "storage/disk_manager.h"
#include "planner/planner.h"
#include "test_util.h"

namespace textjoin {
namespace {

using testing_util::BruteForceJoin;
using testing_util::MakeFixture;
using testing_util::RandomCollection;

TEST(PlannerTest, PlanReportsAllThreeCosts) {
  SimulatedDisk disk(256);
  auto f = MakeFixture(&disk, RandomCollection(&disk, "c1", 40, 6, 50, 1),
                       RandomCollection(&disk, "c2", 25, 5, 50, 2));
  JoinPlanner planner;
  auto plan = planner.Plan(f->Context(100), JoinSpec{});
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->costs.hhnl.feasible);
  EXPECT_TRUE(plan->costs.hvnl.feasible);
  EXPECT_TRUE(plan->costs.vvm.feasible);
  EXPECT_FALSE(plan->explanation.empty());
  // The chosen algorithm has the minimum estimated sequential cost.
  double best = plan->costs.of(plan->algorithm).seq;
  EXPECT_LE(best, plan->costs.hhnl.seq);
  EXPECT_LE(best, plan->costs.hvnl.seq);
  EXPECT_LE(best, plan->costs.vvm.seq);
}

TEST(PlannerTest, MissingIndexesDisableAlgorithms) {
  SimulatedDisk disk(256);
  auto f = MakeFixture(&disk, RandomCollection(&disk, "c1", 40, 6, 50, 3),
                       RandomCollection(&disk, "c2", 25, 5, 50, 4));
  JoinPlanner planner;
  JoinContext ctx = f->Context(100);
  ctx.inner_index = nullptr;
  ctx.outer_index = nullptr;
  auto plan = planner.Plan(ctx, JoinSpec{});
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->costs.hvnl.feasible);
  EXPECT_FALSE(plan->costs.vvm.feasible);
  EXPECT_EQ(plan->algorithm, Algorithm::kHhnl);
}

TEST(PlannerTest, TinyOuterSubsetPrefersHvnl) {
  SimulatedDisk disk(256);
  // A large inner collection and two outer documents: HVNL reads only the
  // entries those two documents touch.
  auto f = MakeFixture(&disk, RandomCollection(&disk, "c1", 2000, 8, 400, 5),
                       RandomCollection(&disk, "c2", 200, 8, 400, 6));
  JoinSpec spec;
  spec.outer_subset = {3, 77};
  JoinPlanner planner;
  auto plan = planner.Plan(f->Context(60), spec);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->algorithm, Algorithm::kHvnl) << plan->explanation;
}

TEST(PlannerTest, ExecuteRunsChosenAlgorithmCorrectly) {
  SimulatedDisk disk(256);
  auto f = MakeFixture(&disk, RandomCollection(&disk, "c1", 40, 6, 50, 7),
                       RandomCollection(&disk, "c2", 25, 5, 50, 8));
  JoinSpec spec;
  spec.lambda = 3;
  JoinPlanner planner;
  PlanChoice chosen;
  auto result = planner.Execute(f->Context(100), spec, &chosen);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, BruteForceJoin(f->inner, f->outer, f->simctx, spec));
}

TEST(PlannerTest, InfeasibleBufferIsAnError) {
  SimulatedDisk disk(256);
  auto f = MakeFixture(&disk, RandomCollection(&disk, "c1", 40, 6, 50, 9),
                       RandomCollection(&disk, "c2", 25, 5, 50, 10));
  JoinPlanner planner;
  JoinContext ctx = f->Context(1);
  ctx.inner_index = nullptr;  // HHNL only, and it does not fit either
  ctx.outer_index = nullptr;
  auto plan = planner.Plan(ctx, JoinSpec{});
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kResourceExhausted);
}

TEST(PlannerTest, BackwardHhnlChosenWhenCheaper) {
  SimulatedDisk disk(256);
  // Small inner, larger outer, a buffer that forces several forward
  // batches but lets the backward order keep everything in one batch.
  auto f = MakeFixture(&disk, RandomCollection(&disk, "c1", 15, 6, 60, 21),
                       RandomCollection(&disk, "c2", 300, 6, 60, 22));
  JoinSpec spec;
  spec.lambda = 2;
  JoinContext ctx = f->Context(30);
  ctx.inner_index = nullptr;  // isolate the HHNL decision
  ctx.outer_index = nullptr;

  JoinPlanner planner;
  auto plan = planner.Plan(ctx, spec);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->algorithm, Algorithm::kHhnl);
  EXPECT_TRUE(plan->hhnl_backward) << plan->explanation;
  EXPECT_NE(plan->explanation.find("backward"), std::string::npos);

  // Execution uses the backward order and stays correct.
  auto result = planner.Execute(ctx, spec);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, BruteForceJoin(f->inner, f->outer, f->simctx, spec));
}

TEST(PlannerTest, MeasuredOverlapIsUsed) {
  SimulatedDisk disk(256);
  // Disjoint vocabularies: measured q = 0, so HVNL reads no entries.
  CollectionBuilder b1(&disk, "c1"), b2(&disk, "c2");
  for (int i = 0; i < 10; ++i) {
    TEXTJOIN_CHECK_OK(b1.AddDocument(Document::FromSortedCells(
                            {{static_cast<TermId>(i), 1}}))
                          .status());
    TEXTJOIN_CHECK_OK(b2.AddDocument(Document::FromSortedCells(
                            {{static_cast<TermId>(100 + i), 1}}))
                          .status());
  }
  auto c1 = std::move(b1.Finish()).value();
  auto c2 = std::move(b2.Finish()).value();
  auto f = MakeFixture(&disk, std::move(c1), std::move(c2));
  JoinPlanner planner;
  auto plan = planner.Plan(f->Context(100), JoinSpec{});
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan->inputs.q, 0.0);
}

}  // namespace
}  // namespace textjoin
