#include <gtest/gtest.h>

#include <string>

#include "storage/disk_manager.h"
#include "join/vvm.h"
#include "test_util.h"

namespace textjoin {
namespace {

using testing_util::BruteForceJoin;
using testing_util::DocumentNamedBy;
using testing_util::MakeFixture;
using testing_util::RandomCollection;

std::unique_ptr<testing_util::JoinFixture> SmallFixture(SimulatedDisk* disk) {
  auto inner = RandomCollection(disk, "c1", 40, 6, 50, 121);
  auto outer = RandomCollection(disk, "c2", 25, 5, 50, 232);
  return MakeFixture(disk, std::move(inner), std::move(outer));
}

TEST(VvmTest, MatchesBruteForce) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinSpec spec;
  spec.lambda = 4;
  VvmJoin join;
  auto got = join.Run(f->Context(100), spec);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, BruteForceJoin(f->inner, f->outer, f->simctx, spec));
}

// Decode bounds a posting's document number only by kMaxDocId. An inverted
// file naming documents beyond the collection it stands for — here one
// built over a 60-document collection, standing for the 40-document C1 or
// C2 — is corruption: VVM fails closed with DATA_LOSS naming the document,
// on either side, with cosine on or off.
TEST(VvmTest, PostingDocumentBeyondEitherCollectionIsDataLoss) {
  for (const bool cosine : {false, true}) {
    SimulatedDisk disk(256);
    SimilarityConfig config;
    config.cosine_normalize = cosine;
    auto f = MakeFixture(&disk, RandomCollection(&disk, "c1", 40, 6, 50, 121),
                         RandomCollection(&disk, "c2", 40, 5, 50, 232),
                         config);
    const DocumentCollection wide =
        RandomCollection(&disk, "wide", 60, 6, 50, 343);
    auto wide_index = InvertedFile::Build(&disk, "wide.inv", wide);
    ASSERT_TRUE(wide_index.ok());
    for (const bool outer_side : {false, true}) {
      JoinContext ctx = f->Context(100);
      (outer_side ? ctx.outer_index : ctx.inner_index) = &*wide_index;
      JoinSpec spec;
      VvmJoin join;
      auto r = join.Run(ctx, spec);
      const std::string run = std::string(outer_side ? "outer" : "inner") +
                              (cosine ? ", cosine" : ", raw");
      ASSERT_FALSE(r.ok()) << run;
      EXPECT_EQ(r.status().code(), StatusCode::kDataLoss) << run;
      EXPECT_GE(DocumentNamedBy(r.status()), 40) << run << ": " << r.status();
      EXPECT_LT(DocumentNamedBy(r.status()), 60) << run << ": " << r.status();
    }
  }
}

TEST(VvmTest, RequiresBothIndexes) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  VvmJoin join;
  JoinContext ctx = f->Context(100);
  ctx.outer_index = nullptr;
  EXPECT_FALSE(join.Run(ctx, JoinSpec{}).ok());
  ctx = f->Context(100);
  ctx.inner_index = nullptr;
  EXPECT_FALSE(join.Run(ctx, JoinSpec{}).ok());
}

TEST(VvmTest, MultiplePassesSameResult) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinSpec spec;
  spec.lambda = 4;
  spec.delta = 1.0;  // inflate SM so a small buffer forces several passes
  VvmJoin join;

  JoinContext roomy = f->Context(1000);
  ASSERT_EQ(VvmJoin::Passes(roomy, spec), 1);
  auto r1 = join.Run(roomy, spec);
  ASSERT_TRUE(r1.ok());

  JoinContext tight = f->Context(6);
  int64_t passes = VvmJoin::Passes(tight, spec);
  ASSERT_GT(passes, 1) << "SM=" << passes;
  auto r2 = join.Run(tight, spec);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r1, *r2);
}

TEST(VvmTest, PassesMultiplyScanCost) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinSpec spec;
  spec.lambda = 4;
  spec.delta = 1.0;
  VvmJoin join;

  disk.ResetStats();
  disk.ResetHeads();
  ASSERT_TRUE(join.Run(f->Context(1000), spec).ok());
  int64_t one_pass = disk.stats().total_reads();

  JoinContext tight = f->Context(6);
  int64_t passes = VvmJoin::Passes(tight, spec);
  ASSERT_GT(passes, 1);
  disk.ResetStats();
  disk.ResetHeads();
  ASSERT_TRUE(join.Run(tight, spec).ok());
  // Each pass rescans both inverted files.
  EXPECT_EQ(disk.stats().total_reads(), passes * one_pass);
}

TEST(VvmTest, InfeasibleBufferErrors) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  VvmJoin join;
  auto r = join.Run(f->Context(1), JoinSpec{});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(VvmTest, OuterSubset) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinSpec spec;
  spec.lambda = 3;
  spec.outer_subset = {0, 8, 16, 24};
  VvmJoin join;
  auto got = join.Run(f->Context(100), spec);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 4u);
  EXPECT_EQ(*got, BruteForceJoin(f->inner, f->outer, f->simctx, spec));
}

TEST(VvmTest, InnerSubset) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinSpec spec;
  spec.lambda = 5;
  spec.inner_subset = {2, 3, 19, 20, 21};
  VvmJoin join;
  auto got = join.Run(f->Context(100), spec);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, BruteForceJoin(f->inner, f->outer, f->simctx, spec));
}

TEST(VvmTest, OneScanEachFileWhenMemoryAmple) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinSpec spec;
  spec.lambda = 2;
  VvmJoin join;
  disk.ResetStats();
  disk.ResetHeads();
  ASSERT_TRUE(join.Run(f->Context(1000), spec).ok());
  EXPECT_EQ(disk.stats().total_reads(),
            f->inner_index.size_in_pages() + f->outer_index.size_in_pages());
  EXPECT_EQ(disk.stats().random_reads, 2);  // one positioned read per file
}

TEST(VvmTest, SubsetWithMultiplePasses) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinSpec spec;
  spec.lambda = 3;
  spec.delta = 1.0;
  spec.outer_subset = {1, 2, 3, 10, 11, 12, 20, 21, 22};
  VvmJoin join;
  JoinContext tight = f->Context(6);
  auto got = join.Run(tight, spec);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, BruteForceJoin(f->inner, f->outer, f->simctx, spec));
}

}  // namespace
}  // namespace textjoin
