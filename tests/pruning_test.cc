#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "storage/disk_manager.h"
#include "common/random.h"
#include "join/hhnl.h"
#include "join/hvnl.h"
#include "join/pruning.h"
#include "join/vvm.h"
#include "obs/query_stats.h"
#include "test_util.h"

namespace textjoin {
namespace {

using testing_util::BruteForceJoin;
using testing_util::BuildCollection;
using testing_util::MakeFixture;
using testing_util::RandomCollection;

// Exactness is the pruning layer's hard contract: with pruning on, every
// executor must return BIT-identical results — scores compared with ==,
// including tie-breaking at the heap boundary — to the unpruned run and to
// the brute-force reference. The sweep below drives that contract across the
// three algorithms (plus HHNL's backward order), the three weighting
// configurations and several seeds; `ctest -L stress` re-runs it under
// TEXTJOIN_STRESS_SEED offsets.

uint64_t SeedOffset() {
  const char* s = std::getenv("TEXTJOIN_STRESS_SEED");
  return s != nullptr ? std::strtoull(s, nullptr, 10) : 0;
}

struct Variant {
  const char* name;
  bool cosine;
  bool idf;
};

constexpr Variant kVariants[] = {
    {"raw", false, false},
    {"idf", false, true},
    {"cosine", true, false},
    {"cosine+idf", true, true},
};

Result<JoinResult> RunOne(int executor, const JoinContext& ctx,
                          const JoinSpec& spec) {
  switch (executor) {
    case 0: {
      HhnlJoin join;
      return join.Run(ctx, spec);
    }
    case 1: {
      HhnlJoin join(HhnlJoin::Options{/*backward=*/true});
      return join.Run(ctx, spec);
    }
    case 2: {
      HvnlJoin join;
      return join.Run(ctx, spec);
    }
    default: {
      VvmJoin join;
      return join.Run(ctx, spec);
    }
  }
}

constexpr const char* kExecutorNames[] = {"HHNL", "HHNL backward", "HVNL",
                                          "VVM"};

TEST(PruningSweepTest, PrunedRunsAreBitIdentical) {
  const uint64_t base = SeedOffset();
  for (uint64_t round = 0; round < 3; ++round) {
    const uint64_t seed = base * 1000 + round * 17 + 1;
    for (const Variant& v : kVariants) {
      SimulatedDisk disk(256);
      auto inner = RandomCollection(&disk, "c1", 40, 6, 50, seed);
      auto outer = RandomCollection(&disk, "c2", 30, 5, 50, seed + 7);
      SimilarityConfig config;
      config.cosine_normalize = v.cosine;
      config.use_idf = v.idf;
      auto f = MakeFixture(&disk, std::move(inner), std::move(outer), config);

      JoinSpec spec;
      spec.lambda = 4;
      spec.similarity = config;
      const JoinResult expected =
          BruteForceJoin(f->inner, f->outer, f->simctx, spec);

      JoinContext ctx = f->Context(60);
      for (int executor = 0; executor < 4; ++executor) {
        spec.prune = true;
        auto pruned = RunOne(executor, ctx, spec);
        ASSERT_TRUE(pruned.ok())
            << kExecutorNames[executor] << "/" << v.name << ": "
            << pruned.status();
        spec.prune = false;
        auto plain = RunOne(executor, ctx, spec);
        ASSERT_TRUE(plain.ok());
        EXPECT_EQ(*pruned, *plain)
            << kExecutorNames[executor] << "/" << v.name << " seed " << seed;
        EXPECT_EQ(*pruned, expected)
            << kExecutorNames[executor] << "/" << v.name << " seed " << seed;
      }
    }
  }
}

// Skewed document lengths: one side's documents are an order of magnitude
// longer, so the adaptive kernel gallops. On the same document pairs it
// must accumulate bit-identical scores and spend measurably fewer merge
// steps than the linear walk.
TEST(PruningSweepTest, GallopingMergeSavesStepsOnSkewedLengths) {
  const uint64_t seed = SeedOffset() * 1000 + 5;
  SimulatedDisk disk(256);
  auto inner = RandomCollection(&disk, "c1", 12, 120, 400, seed);   // long
  auto outer = RandomCollection(&disk, "c2", 25, 4, 400, seed + 3);  // short
  auto f = MakeFixture(&disk, std::move(inner), std::move(outer));

  int64_t gallop_steps = 0, linear_steps = 0;
  for (DocId a = 0; a < f->inner.num_documents(); ++a) {
    auto d1 = f->inner.ReadDocument(a);
    ASSERT_TRUE(d1.ok());
    for (DocId b = 0; b < f->outer.num_documents(); ++b) {
      auto d2 = f->outer.ReadDocument(b);
      ASSERT_TRUE(d2.ok());
      const DotDetail gallop =
          WeightedDotKernel(*d1, *d2, f->simctx, MergeKernel::kAdaptive);
      const DotDetail linear =
          WeightedDotKernel(*d1, *d2, f->simctx, MergeKernel::kLinear);
      EXPECT_EQ(gallop.acc, linear.acc) << "pair " << a << "," << b;
      EXPECT_EQ(gallop.common_terms, linear.common_terms);
      gallop_steps += gallop.merge_steps;
      linear_steps += linear.merge_steps;
    }
  }
  // 120-vs-4 cells is far beyond the 16x switch ratio: galloping should
  // cut the per-pair merge cost by well over half.
  EXPECT_LT(gallop_steps, linear_steps / 2);
}

TEST(PruningSweepTest, BoundSkipPrunesPairsOnSpreadScores) {
  // Documents built so that score magnitudes spread widely: weight-8 blocks
  // for a few documents, weight-1 for the rest. With lambda=1 most pairs
  // provably lose, so the per-pair bound check must actually fire.
  SimulatedDisk disk(256);
  std::vector<std::vector<DCell>> inner_docs, outer_docs;
  for (int d = 0; d < 30; ++d) {
    std::vector<DCell> cells;
    const Weight w = d < 3 ? 8 : 1;
    for (TermId t = 0; t < 6; ++t) cells.push_back(DCell{t, w});
    inner_docs.push_back(cells);
  }
  for (int d = 0; d < 10; ++d) {
    std::vector<DCell> cells;
    for (TermId t = 0; t < 6; ++t) cells.push_back(DCell{t, 2});
    outer_docs.push_back(cells);
  }
  auto f = MakeFixture(&disk, BuildCollection(&disk, "c1", inner_docs),
                       BuildCollection(&disk, "c2", outer_docs));

  JoinSpec spec;
  spec.lambda = 1;
  const JoinResult expected =
      BruteForceJoin(f->inner, f->outer, f->simctx, spec);

  QueryStatsCollector collector(&disk);
  JoinContext ctx = f->Context(100);
  ctx.stats = &collector;
  HhnlJoin join;
  auto r = join.Run(ctx, spec);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, expected);
  const CpuStats cpu = collector.Finish().root.cpu;
  EXPECT_GT(cpu.bound_checks, 0);
  EXPECT_GT(cpu.pairs_pruned, 0);
}

// ---- Pruning primitives -------------------------------------------------

TEST(PruningPrimitivesTest, GallopLowerBoundMatchesStdLowerBound) {
  Rng rng(99);
  std::vector<DCell> cells;
  TermId t = 0;
  for (int i = 0; i < 200; ++i) {
    t += static_cast<TermId>(1 + rng.NextBounded(5));
    cells.push_back(DCell{t, 1});
  }
  for (TermId probe = 0; probe <= t + 3; ++probe) {
    for (size_t lo : {size_t{0}, cells.size() / 3, cells.size() - 1}) {
      int64_t steps = 0;
      const size_t got = GallopLowerBound(cells, lo, probe, &steps);
      const size_t want = static_cast<size_t>(
          std::lower_bound(cells.begin() + lo, cells.end(), probe,
                           [](const DCell& c, TermId term) {
                             return c.term < term;
                           }) -
          cells.begin());
      ASSERT_EQ(got, want) << "probe " << probe << " lo " << lo;
      ASSERT_GE(steps, 0);
    }
  }
}

TEST(PruningPrimitivesTest, KernelsAreBitIdentical) {
  SimulatedDisk disk(256);
  auto c1 = RandomCollection(&disk, "c1", 10, 40, 120, 31);
  auto c2 = RandomCollection(&disk, "c2", 10, 5, 120, 32);
  auto f = MakeFixture(&disk, std::move(c1), std::move(c2));
  for (DocId a = 0; a < 10; ++a) {
    for (DocId b = 0; b < 10; ++b) {
      auto d1 = f->inner.ReadDocument(a);
      auto d2 = f->outer.ReadDocument(b);
      ASSERT_TRUE(d1.ok() && d2.ok());
      const DotDetail lin =
          WeightedDotKernel(*d1, *d2, f->simctx, MergeKernel::kLinear);
      const DotDetail gal =
          WeightedDotKernel(*d1, *d2, f->simctx, MergeKernel::kGalloping);
      const DotDetail ada =
          WeightedDotKernel(*d1, *d2, f->simctx, MergeKernel::kAdaptive);
      EXPECT_EQ(lin.acc, gal.acc);  // bit-identical, not just close
      EXPECT_EQ(lin.acc, ada.acc);
      EXPECT_EQ(lin.common_terms, gal.common_terms);
      EXPECT_EQ(lin.common_terms, ada.common_terms);
    }
  }
}

TEST(PruningPrimitivesTest, PairUpperBoundDominatesTrueScore) {
  SimulatedDisk disk(256);
  auto c1 = RandomCollection(&disk, "c1", 15, 8, 40, 41);
  auto c2 = RandomCollection(&disk, "c2", 15, 6, 40, 42);
  for (const Variant& v : kVariants) {
    SimilarityConfig config;
    config.cosine_normalize = v.cosine;
    config.use_idf = v.idf;
    auto simctx = SimilarityContext::Create(c1, c2, config);
    ASSERT_TRUE(simctx.ok());
    for (DocId a = 0; a < 15; ++a) {
      for (DocId b = 0; b < 15; ++b) {
        auto d1 = c1.ReadDocument(a);
        auto d2 = c2.ReadDocument(b);
        ASSERT_TRUE(d1.ok() && d2.ok());
        const DocBounds b1 =
            ComputeDocBounds(*d1, *simctx, simctx->inner_norms.of(a));
        const DocBounds b2 =
            ComputeDocBounds(*d2, *simctx, simctx->outer_norms.of(b));
        const double acc = WeightedDot(*d1, *d2, *simctx);
        const double final_score = simctx->Finalize(acc, a, b);
        EXPECT_LE(acc, PairUpperBoundAcc(b1, b2) * kBoundSlack)
            << v.name << " pair " << a << "," << b;
        EXPECT_LE(final_score, PairUpperBound(b1, b2) * kBoundSlack)
            << v.name << " pair " << a << "," << b;
      }
    }
  }
}

TEST(PruningPrimitivesTest, CatalogBoundsMatchComputedForRawWeights) {
  SimulatedDisk disk(256);
  auto c1 = RandomCollection(&disk, "c1", 12, 7, 30, 51);
  SimilarityConfig raw;  // no idf: catalog stats ARE the wt statistics
  auto c2 = RandomCollection(&disk, "c2", 5, 4, 30, 52);
  auto simctx = SimilarityContext::Create(c1, c2, raw);
  ASSERT_TRUE(simctx.ok());
  for (DocId d = 0; d < 12; ++d) {
    auto doc = c1.ReadDocument(d);
    ASSERT_TRUE(doc.ok());
    const DocBounds computed = ComputeDocBounds(*doc, *simctx, 1.0);
    const DocBounds catalog = CatalogDocBounds(c1, d, 1.0);
    EXPECT_DOUBLE_EQ(computed.max_w, catalog.max_w);
    EXPECT_DOUBLE_EQ(computed.sum_w, catalog.sum_w);
    EXPECT_NEAR(computed.norm_w, catalog.norm_w, 1e-9 * computed.norm_w);
  }
}

TEST(PruningPrimitivesTest, SuffixBoundsDecreaseToZero) {
  SimulatedDisk disk(256);
  auto c1 = RandomCollection(&disk, "c1", 3, 9, 30, 61);
  auto c2 = RandomCollection(&disk, "c2", 3, 9, 30, 62);
  auto simctx = SimilarityContext::Create(c1, c2, SimilarityConfig{});
  ASSERT_TRUE(simctx.ok());
  auto doc = c1.ReadDocument(0);
  ASSERT_TRUE(doc.ok());
  SuffixBounds sb;
  sb.Build(*doc, *simctx);
  const size_t n = doc->cells().size();
  EXPECT_DOUBLE_EQ(sb.suffix_sum(n), 0.0);
  EXPECT_DOUBLE_EQ(sb.suffix_max(n), 0.0);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_GE(sb.suffix_sum(i), sb.suffix_sum(i + 1));
    EXPECT_GE(sb.suffix_max(i), sb.suffix_max(i + 1));
    EXPECT_LE(sb.suffix_max(i), sb.suffix_sum(i));
  }
}

// WeightedDotPruned against a full heap: when the threshold is
// unreachable the merge stops early; when it is reachable the result is
// the exact bit-identical dot product.
TEST(PruningPrimitivesTest, EarlyExitStopsOnlyProvableLosers) {
  SimulatedDisk disk(256);
  auto c1 = RandomCollection(&disk, "c1", 6, 30, 100, 71);
  auto c2 = RandomCollection(&disk, "c2", 6, 30, 100, 72);
  auto simctx = SimilarityContext::Create(c1, c2, SimilarityConfig{});
  ASSERT_TRUE(simctx.ok());
  auto d1 = c1.ReadDocument(0);
  auto d2 = c2.ReadDocument(0);
  ASSERT_TRUE(d1.ok() && d2.ok());
  const double exact = WeightedDot(*d1, *d2, *simctx);
  SuffixBounds s1, s2;
  s1.Build(*d1, *simctx);
  s2.Build(*d2, *simctx);

  TopKAccumulator accepting(2);  // empty: nothing can be pruned
  PrunedDotResult r =
      WeightedDotPruned(*d1, *d2, *simctx, s1, s2, 1.0, 0, accepting,
                        MergeKernel::kLinear);
  EXPECT_FALSE(r.pruned);
  EXPECT_EQ(r.detail.acc, exact);

  TopKAccumulator rejecting(1);
  rejecting.Add(5, 1e12);  // unbeatable threshold
  r = WeightedDotPruned(*d1, *d2, *simctx, s1, s2, 1.0, 0, rejecting,
                        MergeKernel::kLinear);
  EXPECT_TRUE(r.pruned);
  EXPECT_GT(r.bound_checks, 0);
}

}  // namespace
}  // namespace textjoin
