#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "join/topk.h"

namespace textjoin {
namespace {

TEST(TopKTest, KeepsBestK) {
  TopKAccumulator acc(2);
  acc.Add(1, 5.0);
  acc.Add(2, 9.0);
  acc.Add(3, 7.0);
  acc.Add(4, 1.0);
  auto out = acc.TakeSorted();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (Match{2, 9.0}));
  EXPECT_EQ(out[1], (Match{3, 7.0}));
}

TEST(TopKTest, FewerThanKCandidates) {
  TopKAccumulator acc(10);
  acc.Add(1, 2.0);
  acc.Add(2, 3.0);
  auto out = acc.TakeSorted();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].doc, 2u);
}

TEST(TopKTest, ZeroAndNegativeScoresExcluded) {
  TopKAccumulator acc(5);
  acc.Add(1, 0.0);
  acc.Add(2, -1.0);
  acc.Add(3, 0.5);
  auto out = acc.TakeSorted();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].doc, 3u);
}

TEST(TopKTest, TiesBrokenByAscendingDoc) {
  TopKAccumulator acc(2);
  acc.Add(9, 4.0);
  acc.Add(3, 4.0);
  acc.Add(7, 4.0);
  auto out = acc.TakeSorted();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].doc, 3u);
  EXPECT_EQ(out[1].doc, 7u);
}

TEST(TopKTest, KZeroKeepsNothing) {
  TopKAccumulator acc(0);
  acc.Add(1, 10.0);
  EXPECT_TRUE(acc.TakeSorted().empty());
}

TEST(TopKTest, TakeSortedResets) {
  TopKAccumulator acc(3);
  acc.Add(1, 1.0);
  EXPECT_EQ(acc.TakeSorted().size(), 1u);
  EXPECT_EQ(acc.size(), 0);
  acc.Add(2, 2.0);
  EXPECT_EQ(acc.TakeSorted().size(), 1u);
}

// Tie-breaking at the heap boundary: with equal scores the smaller
// document number wins, so an equal-score candidate with a LARGER doc than
// the boundary match must be rejected, and one with a smaller doc must
// evict it. The pruning layer leans on exactly this behavior.
TEST(TopKTest, EqualScoreEvictionAtBoundary) {
  TopKAccumulator acc(2);
  acc.Add(10, 5.0);
  acc.Add(20, 3.0);  // boundary match: (20, 3.0)
  acc.Add(30, 3.0);  // equal score, larger doc: rejected
  std::vector<Match> kept = acc.TakeSorted();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[1], (Match{20, 3.0}));

  acc.Add(10, 5.0);
  acc.Add(20, 3.0);
  acc.Add(15, 3.0);  // equal score, smaller doc: evicts (20, 3.0)
  kept = acc.TakeSorted();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[1], (Match{15, 3.0}));
}

// Property sweep: TopKAccumulator agrees with sort-then-truncate for many
// (k, n, duplicates) shapes.
class TopKPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TopKPropertyTest, MatchesSortTruncate) {
  auto [k, n, score_range] = GetParam();
  Rng rng(static_cast<uint64_t>(k * 1000003 + n * 97 + score_range));
  std::vector<Match> all;
  TopKAccumulator acc(k);
  for (int i = 0; i < n; ++i) {
    DocId doc = static_cast<DocId>(rng.NextBounded(static_cast<uint64_t>(n)));
    double score =
        static_cast<double>(rng.NextBounded(static_cast<uint64_t>(score_range)));
    acc.Add(doc, score);
    if (score > 0) all.push_back(Match{doc, score});
  }
  std::sort(all.begin(), all.end(), BetterMatch);
  if (static_cast<int>(all.size()) > k) all.resize(static_cast<size_t>(k));
  EXPECT_EQ(acc.TakeSorted(), all);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TopKPropertyTest,
    ::testing::Combine(::testing::Values(1, 3, 10, 50),
                       ::testing::Values(0, 5, 100, 1000),
                       ::testing::Values(2, 10, 1000000)));

}  // namespace
}  // namespace textjoin
