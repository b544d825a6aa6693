#include <gtest/gtest.h>

#include "storage/disk_manager.h"
#include "join/hvnl.h"
#include "obs/query_stats.h"
#include "test_util.h"

namespace textjoin {
namespace {

using testing_util::BruteForceJoin;
using testing_util::DocumentNamedBy;
using testing_util::MakeFixture;
using testing_util::RandomCollection;

std::unique_ptr<testing_util::JoinFixture> SmallFixture(SimulatedDisk* disk) {
  auto inner = RandomCollection(disk, "c1", 40, 6, 50, 111);
  auto outer = RandomCollection(disk, "c2", 25, 5, 50, 222);
  return MakeFixture(disk, std::move(inner), std::move(outer));
}

TEST(HvnlTest, MatchesBruteForce) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinSpec spec;
  spec.lambda = 4;
  HvnlJoin join;
  auto got = join.Run(f->Context(100), spec);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, BruteForceJoin(f->inner, f->outer, f->simctx, spec));
}

// Decode bounds a posting's document number only by kMaxDocId. An inner
// inverted file naming documents beyond C1 — here one built over a
// 60-document collection, joined with a 40-document C1 — is corruption:
// HVNL fails closed with DATA_LOSS naming the document, rather than
// returning matches that name it or, under cosine, reading C1's norms out
// of range.
TEST(HvnlTest, PostingDocumentBeyondInnerCollectionIsDataLoss) {
  for (const bool cosine : {false, true}) {
    SimulatedDisk disk(256);
    SimilarityConfig config;
    config.cosine_normalize = cosine;
    auto f = MakeFixture(&disk, RandomCollection(&disk, "c1", 40, 6, 50, 111),
                         RandomCollection(&disk, "c2", 25, 5, 50, 222),
                         config);
    const DocumentCollection wide =
        RandomCollection(&disk, "wide", 60, 6, 50, 333);
    auto wide_index = InvertedFile::Build(&disk, "wide.inv", wide);
    ASSERT_TRUE(wide_index.ok());
    JoinContext ctx = f->Context(100);
    ctx.inner_index = &*wide_index;
    HvnlJoin join;
    auto r = join.Run(ctx, JoinSpec{});
    const char* scoring = cosine ? "cosine" : "raw";
    ASSERT_FALSE(r.ok()) << scoring;
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss) << scoring;
    EXPECT_GE(DocumentNamedBy(r.status()), 40) << r.status();
    EXPECT_LT(DocumentNamedBy(r.status()), 60) << r.status();
  }
}

TEST(HvnlTest, RequiresInnerIndex) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinContext ctx = f->Context(100);
  ctx.inner_index = nullptr;
  HvnlJoin join;
  EXPECT_FALSE(join.Run(ctx, JoinSpec{}).ok());
}

TEST(HvnlTest, SmallCacheSameResultMoreFetches) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinSpec spec;
  spec.lambda = 4;
  HvnlJoin join;

  JoinContext roomy = f->Context(200);
  ASSERT_GE(HvnlJoin::CacheCapacity(roomy, spec),
            f->inner_index.num_terms());
  auto r1 = join.Run(roomy, spec);
  ASSERT_TRUE(r1.ok());
  int64_t fetches_roomy = join.run_stats().entry_fetches;
  EXPECT_GT(join.run_stats().cache_hits, 0);

  // Find a buffer with a small but positive cache (well below the number
  // of inverted entries, so the cache thrashes).
  JoinContext tight = f->Context(0);
  int64_t cap = -1;
  for (int64_t b = 4; b <= 200 && !(cap >= 1 && cap <= 12); ++b) {
    tight = f->Context(b);
    cap = HvnlJoin::CacheCapacity(tight, spec);
  }
  ASSERT_GE(cap, 1);
  ASSERT_LE(cap, 12);
  ASSERT_LT(cap, f->inner_index.num_terms());
  auto r2 = join.Run(tight, spec);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r1, *r2);  // results identical despite thrashing
  EXPECT_GT(join.run_stats().entry_fetches, fetches_roomy);
  EXPECT_GT(join.run_stats().evictions, 0);
}

TEST(HvnlTest, InfeasibleBufferErrors) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  HvnlJoin join;
  auto r = join.Run(f->Context(1), JoinSpec{});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(HvnlTest, LruPolicySameResults) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinSpec spec;
  spec.lambda = 4;
  HvnlJoin paper_policy;
  HvnlJoin lru(HvnlJoin::Options{HvnlJoin::Replacement::kLru});
  auto r1 = paper_policy.Run(f->Context(60), spec);
  auto r2 = lru.Run(f->Context(60), spec);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r1, *r2);
}

TEST(HvnlTest, OuterSubsetReadRandomly) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinSpec spec;
  spec.lambda = 3;
  spec.outer_subset = {1, 5, 9};
  HvnlJoin join;
  auto got = join.Run(f->Context(100), spec);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 3u);
  EXPECT_EQ(*got, BruteForceJoin(f->inner, f->outer, f->simctx, spec));
}

TEST(HvnlTest, InnerSubsetFilters) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinSpec spec;
  spec.lambda = 5;
  spec.inner_subset = {3, 4, 5, 10, 11};
  HvnlJoin join;
  auto got = join.Run(f->Context(100), spec);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, BruteForceJoin(f->inner, f->outer, f->simctx, spec));
}

TEST(HvnlTest, FewerFetchesThanTermOccurrences) {
  // The cache must make the number of entry fetches at most the number of
  // distinct needed terms when everything fits.
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinSpec spec;
  spec.lambda = 2;
  HvnlJoin join;
  ASSERT_TRUE(join.Run(f->Context(200), spec).ok());
  EXPECT_LE(join.run_stats().entry_fetches, f->inner_index.num_terms());
}

TEST(HvnlTest, GreedyOrderSameResults) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinSpec spec;
  spec.lambda = 4;
  HvnlJoin storage_order;
  HvnlJoin greedy(HvnlJoin::Options{
      HvnlJoin::Replacement::kLowestOuterDf,
      HvnlJoin::OuterOrder::kGreedyIntersection});
  // Pick a pressured cache so the order actually matters.
  JoinContext ctx = f->Context(0);
  for (int64_t b = 5; b <= 300; ++b) {
    ctx = f->Context(b);
    int64_t cap = HvnlJoin::CacheCapacity(ctx, spec);
    if (cap >= 5 && cap < f->inner_index.num_terms() / 2) break;
  }
  auto r1 = storage_order.Run(ctx, spec);
  auto r2 = greedy.Run(ctx, spec);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_EQ(*r1, *r2);
  // The greedy order cannot fetch more entries than storage order does
  // for the same cache (it only reorders reuse opportunities closer).
  // It may fetch the same amount; the ablation bench quantifies typical
  // savings and the extra positioned document reads.
  EXPECT_GT(greedy.run_stats().cache_hits, 0);
}

TEST(HvnlTest, GreedyOrderWithSubset) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinSpec spec;
  spec.lambda = 3;
  spec.outer_subset = {2, 5, 9, 14, 20};
  HvnlJoin greedy(HvnlJoin::Options{
      HvnlJoin::Replacement::kLowestOuterDf,
      HvnlJoin::OuterOrder::kGreedyIntersection});
  auto got = greedy.Run(f->Context(60), spec);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, BruteForceJoin(f->inner, f->outer, f->simctx, spec));
}

TEST(HvnlTest, StatsReportCacheHitsOnRepeatedTerms) {
  // A Zipf-ish workload repeats the frequent terms across outer documents;
  // with the cache big enough to hold every inverted entry, each repeat
  // after the first is a cache hit, no entry is ever evicted, and the
  // QueryStats counters must say exactly that.
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinSpec spec;
  spec.lambda = 4;
  JoinContext ctx = f->Context(200);
  ASSERT_GE(HvnlJoin::CacheCapacity(ctx, spec), f->inner_index.num_terms());

  QueryStatsCollector collector(&disk);
  ctx.stats = &collector;
  HvnlJoin join;
  ASSERT_TRUE(join.Run(ctx, spec).ok());
  QueryStats stats = collector.Finish();

  EXPECT_EQ(stats.root.label, "HVNL");
  EXPECT_GT(stats.root.Counter("cache_hits"), 0);
  EXPECT_EQ(stats.root.Counter("evictions"), 0);
  // The counters mirror the executor's own RunStats exactly.
  EXPECT_EQ(stats.root.Counter("cache_hits"), join.run_stats().cache_hits);
  EXPECT_EQ(stats.root.Counter("entry_fetches"),
            join.run_stats().entry_fetches);
  EXPECT_EQ(stats.root.Counter("evictions"), join.run_stats().evictions);
}

TEST(HvnlTest, StatsReportEvictionsUnderCachePressure) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinSpec spec;
  spec.lambda = 4;
  // The same pressured-cache search as SmallCacheSameResultMoreFetches:
  // a capacity well below the number of inverted entries must thrash.
  JoinContext ctx = f->Context(0);
  int64_t cap = -1;
  for (int64_t b = 4; b <= 200 && !(cap >= 1 && cap <= 12); ++b) {
    ctx = f->Context(b);
    cap = HvnlJoin::CacheCapacity(ctx, spec);
  }
  ASSERT_GE(cap, 1);
  ASSERT_LT(cap, f->inner_index.num_terms());

  QueryStatsCollector collector(&disk);
  ctx.stats = &collector;
  HvnlJoin join;
  ASSERT_TRUE(join.Run(ctx, spec).ok());
  QueryStats stats = collector.Finish();

  EXPECT_EQ(stats.root.Counter("cache_capacity_X"), cap);
  EXPECT_GT(stats.root.Counter("evictions"), 0);
  // Every eviction frees one slot previously filled by a fetch, so the
  // fetch count dominates the eviction count.
  EXPECT_GE(stats.root.Counter("entry_fetches"),
            stats.root.Counter("evictions"));
  // The probe phase carries the fetch I/O: it must have read pages.
  const PhaseStats* probe = stats.root.Child(phase::kProbeEntries);
  ASSERT_NE(probe, nullptr);
  EXPECT_GT(probe->io.total_reads(), 0);
}

TEST(HvnlTest, PaysBTreeLoadCost) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinSpec spec;
  spec.lambda = 2;
  HvnlJoin join;
  disk.ResetStats();
  disk.ResetHeads();
  ASSERT_TRUE(join.Run(f->Context(200), spec).ok());
  // At least the B+tree pages plus the outer collection were read.
  EXPECT_GE(disk.stats().total_reads(),
            f->inner_index.btree().size_in_pages() +
                f->outer.size_in_pages());
}

}  // namespace
}  // namespace textjoin
