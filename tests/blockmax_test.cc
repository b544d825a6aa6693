// Block-granular posting traversal: block metadata correctness, the
// PostingCursor forward walk, exactness of every executor over blocked
// postings (seed-swept via TEXTJOIN_STRESS_SEED, see scripts/check.sh
// stress), and VVM's pass-slice block skip on a multi-pass shape.
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
#include "sim/synthetic.h"
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
// kPostingBlockCells strides with exact spans, and each block must decode
// independently from its recorded offset (the delta restart invariant).
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
      for (size_t b = 0; b < e.blocks.size(); ++b) {
        const auto& bm = e.blocks[b];
        ASSERT_GT(bm.cell_count, 0);
        ASSERT_LE(bm.cell_count, kPostingBlockCells);
        EXPECT_GT(bm.offset_bytes, prev_offset);
        prev_offset = bm.offset_bytes;
        EXPECT_EQ(bm.first_doc, (*cells)[at].doc);
        EXPECT_EQ(bm.last_doc, (*cells)[at + bm.cell_count - 1].doc);

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
    }
    EXPECT_TRUE(saw_multi_block);
  }
}

// The catalog round-trip must preserve the block summaries exactly — a
// reopened index must skip exactly like the one that was saved.
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
    ASSERT_EQ(a.blocks.size(), b.blocks.size());
    for (size_t j = 0; j < a.blocks.size(); ++j) {
      EXPECT_EQ(a.blocks[j].first_doc, b.blocks[j].first_doc);
      EXPECT_EQ(a.blocks[j].last_doc, b.blocks[j].last_doc);
      EXPECT_EQ(a.blocks[j].cell_count, b.blocks[j].cell_count);
      EXPECT_EQ(a.blocks[j].offset_bytes, b.blocks[j].offset_bytes);
    }
  }
}

// ---------------------------------------------------------------------------
// PostingCursor.

// A forward walk visits every cell of a multi-block entry in order,
// decoding each block once.
TEST(PostingCursorTest, ForwardWalkAgreesWithFullDecode) {
  for (const PostingCompression comp :
       {PostingCompression::kNone, PostingCompression::kDeltaVarint,
        PostingCompression::kGroupVarint}) {
    SimulatedDisk disk(256);
    auto col = RandomCollection(&disk, "col", 200, 8, 30, 9);
    InvertedFile index = BuildIndex(&disk, "col.inv", col, comp);

    // The longest entry: several blocks.
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
  }
}

// ---------------------------------------------------------------------------
// Exactness over blocked postings.

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

// Block-granular decode is an optimization, never a semantics change:
// every executor must match brute force — scores AND tie-breaks — across
// weighting schemes and every posting representation.
TEST(BlockMaxIdentityTest, BlockedPostingsMatchBruteForceAcrossExecutors) {
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
        auto got = algo->Run(ctx, spec);
        ASSERT_TRUE(got.ok()) << label << ": " << got.status();
        EXPECT_EQ(*got, expected) << label;
      }
    }
  }
}

DocumentCollection Synthetic(Disk* disk, const std::string& name,
                             const SyntheticSpec& spec) {
  auto c = GenerateCollection(disk, name, spec);
  TEXTJOIN_CHECK_OK(c.status());
  return std::move(c).value();
}

// Cells decoded plus cells compared by a multi-pass VVM run without the
// pass-slice skip, computed from the two files: every pass decodes both
// files whole, and every outer cell walks its shared C1 entry once. (That
// path also filtered every shared C2 cell once per pass; leaving those
// compares out makes a bound on this volume conservative.)
int64_t NoSkipVolume(const InvertedFile& inner_index,
                     const InvertedFile& outer_index, int64_t passes) {
  int64_t cells = 0;
  int64_t walk_visits = 0;
  for (const auto& e : inner_index.entries()) cells += e.cell_count;
  for (const auto& e2 : outer_index.entries()) {
    cells += e2.cell_count;
    const int64_t i1 = inner_index.FindEntry(e2.term);
    if (i1 >= 0) {
      walk_visits += e2.cell_count * inner_index.entries()[i1].cell_count;
    }
  }
  return passes * cells + walk_visits;
}

// Multi-pass VVM shapes: a small buffer forces several matrix passes, and
// dense multi-block outer entries give pass-slice skipping real work. The
// skips must show up in the counters without perturbing the result.
//
// The second shape is a small C1 against a large, dense C2 (30 x 2000
// documents, 22 terms each over a flattened 100-term vocabulary, 512-byte
// pages): every C2 entry spans several blocks that each cover only a slice
// of C2, and the 8-page buffer forces 10 to 24 passes. There the skip must
// save at least a fifth of NoSkipVolume. On the first shape (3 passes,
// blocks spanning most of C2) the walk visits dominate and the skip saves
// under a tenth, so only exactness and engagement are checked there.
TEST(BlockMaxIdentityTest, MultiPassVvmSkipsBlocksAndStaysExact) {
  const uint64_t seed = SeedOffset();
  for (const PostingCompression comp :
       {PostingCompression::kNone, PostingCompression::kDeltaVarint,
        PostingCompression::kGroupVarint}) {
    for (const bool dense : {false, true}) {
      SimulatedDisk disk(dense ? 512 : 256);
      // 20-term vocabulary: outer entries average 90 cells (several
      // blocks).
      auto inner =
          dense ? Synthetic(&disk, "c1", {30, 22.0, 100, 0.5, 0, 15 + seed})
                : RandomCollection(&disk, "c1", 30, 6, 20, 31 + seed);
      auto outer =
          dense ? Synthetic(&disk, "c2", {2000, 22.0, 100, 0.5, 0, 16 + seed})
                : RandomCollection(&disk, "c2", 300, 6, 20, 32 + seed);
      InvertedFile inner_index = BuildIndex(&disk, "c1.inv", inner, comp);
      InvertedFile outer_index = BuildIndex(&disk, "c2.inv", outer, comp);
      auto simctx =
          SimilarityContext::Create(inner, outer, SimilarityConfig{});
      ASSERT_TRUE(simctx.ok());
      JoinContext ctx = MakeContext(&disk, inner, inner_index, outer,
                                    outer_index, *simctx, /*buffer_pages=*/8);
      JoinSpec spec;
      spec.lambda = 4;
      JoinResult expected = BruteForceJoin(inner, outer, *simctx, spec);

      QueryStatsCollector collector(&disk);
      ctx.stats = &collector;
      VvmJoin vvm;
      auto got = vvm.Run(ctx, spec);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(*got, expected);
      const PhaseStats root = collector.Finish().root;
      EXPECT_GT(root.cpu.blocks_skipped, 0)
          << "pass-slice skipping never engaged";
      const int64_t passes = root.Counter("passes");
      ASSERT_GE(passes, 2);
      if (!dense) continue;

      const int64_t no_skip = NoSkipVolume(inner_index, outer_index, passes);
      const int64_t paid = root.cpu.cells_decoded + root.cpu.cell_compares;
      EXPECT_LE(paid * 10, no_skip * 8)
          << "decoded " << root.cpu.cells_decoded << " + compared "
          << root.cpu.cell_compares << " of a no-skip " << no_skip
          << " over " << passes << " passes";
    }
  }
}

}  // namespace
}  // namespace textjoin
