// Block-max posting traversal: block metadata correctness, the
// PostingCursor skipping primitives, pruning-on/off bit-identity across
// all executors (seed-swept via TEXTJOIN_STRESS_SEED, see scripts/check.sh
// stress), and the float max-weight regression — sub-1.0 (idf-scaled)
// bounds must survive quantization instead of truncating to zero.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "index/inverted_file.h"
#include "index/posting_cursor.h"
#include "join/hhnl.h"
#include "join/hvnl.h"
#include "join/vvm.h"
#include "obs/query_stats.h"
#include "storage/disk_manager.h"
#include "test_util.h"

namespace textjoin {
namespace {

using testing_util::BruteForceJoin;
using testing_util::RandomCollection;

// `scripts/check.sh stress` re-runs this binary under several seed
// offsets, so the bit-identity sweep explores different collections.
uint64_t SeedOffset() {
  const char* s = std::getenv("TEXTJOIN_STRESS_SEED");
  return s != nullptr ? std::strtoull(s, nullptr, 10) : 0;
}

InvertedFile BuildIndex(Disk* disk, const std::string& name,
                        const DocumentCollection& col,
                        PostingCompression compression) {
  InvertedFile::BuildOptions opts;
  opts.compression = compression;
  auto index = InvertedFile::Build(disk, name, col, opts);
  TEXTJOIN_CHECK_OK(index.status());
  return std::move(index).value();
}

// ---------------------------------------------------------------------------
// Block metadata.

// Every entry's block summaries must tile the cell list in
// kPostingBlockCells strides with exact spans and maxima, and each block
// must decode independently from its recorded offset (the delta restart
// invariant).
TEST(BlockMetadataTest, BlocksTileEntriesWithExactSummaries) {
  for (const PostingCompression comp :
       {PostingCompression::kNone, PostingCompression::kDeltaVarint,
        PostingCompression::kGroupVarint}) {
    SimulatedDisk disk(256);
    // 200 docs x 8 terms over a 30-term vocabulary: head terms exceed 64
    // documents, so multi-block entries occur.
    auto col = RandomCollection(&disk, "col", 200, 8, 30, 7);
    InvertedFile index = BuildIndex(&disk, "col.inv", col, comp);

    bool saw_multi_block = false;
    for (const auto& e : index.entries()) {
      ASSERT_FALSE(e.blocks.empty());
      EXPECT_EQ(static_cast<int64_t>(e.blocks.size()),
                (e.cell_count + kPostingBlockCells - 1) / kPostingBlockCells);
      if (e.blocks.size() > 1) saw_multi_block = true;

      auto cells = index.FetchEntry(e.term);
      ASSERT_TRUE(cells.ok());
      ASSERT_EQ(static_cast<int64_t>(cells->size()), e.cell_count);
      auto raw = index.FetchEntryRaw(e.term);
      ASSERT_TRUE(raw.ok());

      int64_t at = 0;
      int64_t prev_offset = -1;
      float entry_max = 0.0f;
      for (size_t b = 0; b < e.blocks.size(); ++b) {
        const auto& bm = e.blocks[b];
        ASSERT_GT(bm.cell_count, 0);
        ASSERT_LE(bm.cell_count, kPostingBlockCells);
        EXPECT_GT(bm.offset_bytes, prev_offset);
        prev_offset = bm.offset_bytes;
        EXPECT_EQ(bm.first_doc, (*cells)[at].doc);
        EXPECT_EQ(bm.last_doc, (*cells)[at + bm.cell_count - 1].doc);
        float block_max = 0.0f;
        for (int32_t k = 0; k < bm.cell_count; ++k) {
          block_max = std::max(
              block_max, static_cast<float>((*cells)[at + k].weight));
        }
        // Integer cell weights are exact in float, so the recorded bound
        // is the true maximum, not just an upper bound.
        EXPECT_EQ(bm.max_weight, block_max);
        entry_max = std::max(entry_max, bm.max_weight);

        // The block decodes in isolation from its recorded offset.
        const int64_t end = b + 1 < e.blocks.size()
                                ? e.blocks[b + 1].offset_bytes
                                : e.byte_length;
        std::vector<ICell> decoded;
        ASSERT_TRUE(DecodePostingBlock(raw->data() + bm.offset_bytes,
                                       end - bm.offset_bytes, bm.cell_count,
                                       comp, &decoded)
                        .ok());
        ASSERT_EQ(static_cast<int64_t>(decoded.size()), bm.cell_count);
        for (int32_t k = 0; k < bm.cell_count; ++k) {
          EXPECT_EQ(decoded[k].doc, (*cells)[at + k].doc);
          EXPECT_EQ(decoded[k].weight, (*cells)[at + k].weight);
        }
        at += bm.cell_count;
      }
      EXPECT_EQ(at, e.cell_count);
      EXPECT_EQ(e.blocks[0].offset_bytes, 0);
      EXPECT_EQ(e.max_weight, entry_max);
    }
    EXPECT_TRUE(saw_multi_block);
  }
}

// The catalog round-trip must preserve the block summaries and the float
// max weights bit for bit — a reopened index must skip exactly like the
// one that was saved.
TEST(BlockMetadataTest, CatalogRoundTripPreservesBlockSummaries) {
  SimulatedDisk disk(256);
  auto col = RandomCollection(&disk, "col", 200, 8, 30, 8);
  InvertedFile index =
      BuildIndex(&disk, "col.inv", col, PostingCompression::kDeltaVarint);
  ASSERT_TRUE(SaveInvertedFileCatalog(index, "col.inv.cat").ok());
  auto reopened = OpenInvertedFile(&disk, "col.inv.cat");
  ASSERT_TRUE(reopened.ok()) << reopened.status();

  ASSERT_EQ(reopened->num_terms(), index.num_terms());
  for (int64_t i = 0; i < index.num_terms(); ++i) {
    const auto& a = index.entries()[i];
    const auto& b = reopened->entries()[i];
    EXPECT_EQ(a.term, b.term);
    EXPECT_EQ(a.offset_bytes, b.offset_bytes);
    EXPECT_EQ(a.cell_count, b.cell_count);
    EXPECT_EQ(a.byte_length, b.byte_length);
    EXPECT_EQ(a.max_weight, b.max_weight);
    ASSERT_EQ(a.blocks.size(), b.blocks.size());
    for (size_t j = 0; j < a.blocks.size(); ++j) {
      EXPECT_EQ(a.blocks[j].first_doc, b.blocks[j].first_doc);
      EXPECT_EQ(a.blocks[j].last_doc, b.blocks[j].last_doc);
      EXPECT_EQ(a.blocks[j].cell_count, b.blocks[j].cell_count);
      EXPECT_EQ(a.blocks[j].offset_bytes, b.blocks[j].offset_bytes);
      EXPECT_EQ(a.blocks[j].max_weight, b.blocks[j].max_weight);
    }
  }
}

// ---------------------------------------------------------------------------
// PostingCursor.

// NextGEQ must agree with a lower_bound over the fully decoded entry for
// every target, while skipping blocks undecoded on long jumps.
TEST(PostingCursorTest, NextGEQAgreesWithFullDecode) {
  for (const PostingCompression comp :
       {PostingCompression::kNone, PostingCompression::kDeltaVarint,
        PostingCompression::kGroupVarint}) {
    SimulatedDisk disk(256);
    auto col = RandomCollection(&disk, "col", 200, 8, 30, 9);
    InvertedFile index = BuildIndex(&disk, "col.inv", col, comp);

    // The longest entry: several blocks, so skipping has room to act.
    int64_t longest = 0;
    for (int64_t i = 0; i < index.num_terms(); ++i) {
      if (index.entries()[i].cell_count >
          index.entries()[longest].cell_count) {
        longest = i;
      }
    }
    const auto& meta = index.entries()[longest];
    ASSERT_GE(meta.blocks.size(), 3u);
    auto ref = index.FetchEntry(meta.term);
    ASSERT_TRUE(ref.ok());

    // Plain forward walk visits every cell in order.
    {
      PostingCursor cur(&index, longest);
      ASSERT_TRUE(cur.Init().ok());
      for (const ICell& c : *ref) {
        ASSERT_FALSE(cur.done());
        EXPECT_EQ(cur.current().doc, c.doc);
        EXPECT_EQ(cur.current().weight, c.weight);
        ASSERT_TRUE(cur.Next().ok());
      }
      EXPECT_TRUE(cur.done());
      EXPECT_EQ(cur.cells_decoded(), meta.cell_count);
      EXPECT_EQ(cur.blocks_skipped(), 0);
    }

    // NextGEQ from a fresh cursor, for every target in the doc range plus
    // one past the end.
    for (DocId target = 0; target <= ref->back().doc + 1; target += 3) {
      PostingCursor cur(&index, longest);
      ASSERT_TRUE(cur.Init().ok());
      ASSERT_TRUE(cur.NextGEQ(target).ok());
      auto it = std::lower_bound(
          ref->begin(), ref->end(), target,
          [](const ICell& c, DocId d) { return c.doc < d; });
      if (it == ref->end()) {
        EXPECT_TRUE(cur.done()) << "target " << target;
      } else {
        ASSERT_FALSE(cur.done()) << "target " << target;
        EXPECT_EQ(cur.current().doc, it->doc);
        EXPECT_EQ(cur.current().weight, it->weight);
      }
    }

    // A jump straight to the last block's span passes over the middle
    // blocks without decoding them.
    {
      PostingCursor cur(&index, longest);
      ASSERT_TRUE(cur.Init().ok());
      ASSERT_TRUE(cur.NextGEQ(meta.blocks.back().first_doc).ok());
      ASSERT_FALSE(cur.done());
      EXPECT_GE(cur.blocks_skipped(), 1);
      EXPECT_LT(cur.cells_decoded(), meta.cell_count);
    }

    // SkipToBlock positions at the block's first cell.
    {
      const int64_t last = static_cast<int64_t>(meta.blocks.size()) - 1;
      PostingCursor cur(&index, longest);
      ASSERT_TRUE(cur.Init().ok());
      ASSERT_TRUE(cur.SkipToBlock(last).ok());
      ASSERT_FALSE(cur.done());
      EXPECT_EQ(cur.current().doc, meta.blocks.back().first_doc);
      EXPECT_EQ(cur.current_block(), last);
      EXPECT_EQ(cur.current_block_max(), meta.blocks.back().max_weight);
    }
  }
}

// ---------------------------------------------------------------------------
// Blocks-on/off bit-identity.

struct Executors {
  HhnlJoin hhnl;
  HhnlJoin hhnl_backward{HhnlJoin::Options{/*backward=*/true}};
  HvnlJoin hvnl;
  VvmJoin vvm;
  std::vector<std::pair<const char*, TextJoinAlgorithm*>> all() {
    return {{"hhnl", &hhnl},
            {"hhnl_backward", &hhnl_backward},
            {"hvnl", &hvnl},
            {"vvm", &vvm}};
  }
};

JoinContext MakeContext(SimulatedDisk* disk, const DocumentCollection& inner,
                        const InvertedFile& inner_index,
                        const DocumentCollection& outer,
                        const InvertedFile& outer_index,
                        const SimilarityContext& simctx,
                        int64_t buffer_pages) {
  JoinContext ctx;
  ctx.inner = &inner;
  ctx.outer = &outer;
  ctx.inner_index = &inner_index;
  ctx.outer_index = &outer_index;
  ctx.similarity = &simctx;
  ctx.sys = SystemParams{buffer_pages, disk->page_size(), 5.0};
  return ctx;
}

// Block skipping is an optimization, never a semantics change: pruning on
// and off must produce the same result — scores AND tie-breaks — across
// executors, weighting schemes and every posting representation, and both
// must match brute force.
TEST(BlockMaxIdentityTest, BlocksOnOffBitIdenticalAcrossExecutors) {
  const uint64_t seed = SeedOffset();
  for (const PostingCompression comp :
       {PostingCompression::kNone, PostingCompression::kDeltaVarint,
        PostingCompression::kGroupVarint}) {
    SimulatedDisk disk(256);
    auto inner = RandomCollection(&disk, "c1", 60, 6, 50, 21 + seed);
    auto outer = RandomCollection(&disk, "c2", 35, 5, 50, 22 + seed);
    InvertedFile inner_index = BuildIndex(&disk, "c1.inv", inner, comp);
    InvertedFile outer_index = BuildIndex(&disk, "c2.inv", outer, comp);

    for (const SimilarityConfig sim :
         {SimilarityConfig{false, false}, SimilarityConfig{false, true},
          SimilarityConfig{true, true}}) {
      auto simctx = SimilarityContext::Create(inner, outer, sim);
      ASSERT_TRUE(simctx.ok());
      JoinContext ctx = MakeContext(&disk, inner, inner_index, outer,
                                    outer_index, *simctx, 60);
      JoinSpec spec;
      spec.lambda = 4;
      JoinResult expected = BruteForceJoin(inner, outer, *simctx, spec);

      Executors ex;
      for (auto [label, algo] : ex.all()) {
        spec.prune = false;
        auto off = algo->Run(ctx, spec);
        ASSERT_TRUE(off.ok()) << label << ": " << off.status();
        spec.prune = true;
        auto on = algo->Run(ctx, spec);
        ASSERT_TRUE(on.ok()) << label << ": " << on.status();
        EXPECT_EQ(*off, expected) << label;
        EXPECT_EQ(*on, *off) << label << ": blocks-on result differs";
      }
    }
  }
}

// The multi-pass VVM shape: a small buffer forces several matrix passes,
// and dense multi-block outer entries give pass-slice skipping real work.
// The skips must show up in the counters without perturbing the result.
TEST(BlockMaxIdentityTest, MultiPassVvmSkipsBlocksAndStaysExact) {
  const uint64_t seed = SeedOffset();
  for (const PostingCompression comp :
       {PostingCompression::kNone, PostingCompression::kDeltaVarint,
        PostingCompression::kGroupVarint}) {
    SimulatedDisk disk(256);
    // 20-term vocabulary: outer entries average 90 cells (several blocks).
    auto inner = RandomCollection(&disk, "c1", 30, 6, 20, 31 + seed);
    auto outer = RandomCollection(&disk, "c2", 300, 6, 20, 32 + seed);
    InvertedFile inner_index = BuildIndex(&disk, "c1.inv", inner, comp);
    InvertedFile outer_index = BuildIndex(&disk, "c2.inv", outer, comp);
    auto simctx = SimilarityContext::Create(inner, outer, SimilarityConfig{});
    ASSERT_TRUE(simctx.ok());
    JoinContext ctx = MakeContext(&disk, inner, inner_index, outer,
                                  outer_index, *simctx, /*buffer_pages=*/8);
    JoinSpec spec;
    spec.lambda = 4;
    JoinResult expected = BruteForceJoin(inner, outer, *simctx, spec);

    VvmJoin vvm;
    spec.prune = false;
    auto off = vvm.Run(ctx, spec);
    ASSERT_TRUE(off.ok()) << off.status();

    QueryStatsCollector collector(&disk);
    ctx.stats = &collector;
    spec.prune = true;
    auto on = vvm.Run(ctx, spec);
    ASSERT_TRUE(on.ok()) << on.status();
    EXPECT_EQ(*off, expected);
    EXPECT_EQ(*on, *off) << "blocks-on result differs on the multi-pass run";
    EXPECT_GT(collector.Finish().root.cpu.blocks_skipped, 0)
        << "pass-slice skipping never engaged";
  }
}

// ---------------------------------------------------------------------------
// Float max-weight regression (satellite: EntryMeta::max_weight was int32;
// idf-scaled bounds are fractional and must not truncate to zero).

TEST(MaxWeightRegressionTest, SubUnitBoundsSurviveQuantization) {
  // Integer weights (the uint16 cell range) are exact in float.
  EXPECT_EQ(QuantizeMaxWeight(3.0), 3.0f);
  EXPECT_EQ(QuantizeMaxWeight(65535.0), 65535.0f);

  // An idf-scaled bound like 0.37*0.69 must survive with its value, only
  // ever rounding UP (a bound rounded down could be beaten by a real
  // score).
  const double bound = 0.37 * 0.69;
  const float q = QuantizeMaxWeight(bound);
  EXPECT_GT(q, 0.0f);
  EXPECT_GE(static_cast<double>(q), bound);
  EXPECT_LT(static_cast<double>(q) - bound, 1e-6);

  // The regression: the old int32 field truncated any sub-1.0 bound to
  // zero, so a zero "upper bound" hid real candidates from admission.
  EXPECT_EQ(static_cast<float>(static_cast<int32_t>(bound)), 0.0f);
}

}  // namespace
}  // namespace textjoin
