// The SIMD kernel library (src/kernel): dispatch resolution, group-varint
// decoder hardening (corrupt blocks must fail closed as kDataLoss, never
// read out of bounds), and the bit-identity contract — every compiled
// dispatch level must produce byte-for-byte the outputs of the scalar
// baseline, from raw kernel calls up through whole joins (scores AND
// tie-breaks) across executors, weighting schemes and both compressed
// posting representations. Seed-swept via TEXTJOIN_STRESS_SEED (see
// scripts/check.sh stress).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "index/inverted_file.h"
#include "join/hhnl.h"
#include "join/hvnl.h"
#include "join/vvm.h"
#include "kernel/dispatch.h"
#include "kernel/group_varint.h"
#include "kernel/kernels.h"
#include "storage/disk_manager.h"
#include "test_util.h"

namespace textjoin {
namespace {

using testing_util::BruteForceJoin;
using testing_util::RandomCollection;

uint64_t SeedOffset() {
  const char* s = std::getenv("TEXTJOIN_STRESS_SEED");
  return s != nullptr ? std::strtoull(s, nullptr, 10) : 0;
}

// ---------------------------------------------------------------------------
// Dispatch.

TEST(DispatchTest, ScalarAlwaysAvailableAndLevelsAscend) {
  auto levels = kernel::AvailableLevels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), kernel::Level::kScalar);
  EXPECT_TRUE(std::is_sorted(levels.begin(), levels.end()));
  // The active level must be one of the available ones, and its table must
  // carry the matching name.
  const kernel::Level active = kernel::ActiveLevel();
  EXPECT_NE(std::find(levels.begin(), levels.end(), active), levels.end());
  EXPECT_STREQ(kernel::Active().name, kernel::LevelName(active));
}

TEST(DispatchTest, ParseLevelAcceptsExactlyTheThreeNames) {
  kernel::Level l;
  EXPECT_TRUE(kernel::ParseLevel("scalar", &l));
  EXPECT_EQ(l, kernel::Level::kScalar);
  EXPECT_TRUE(kernel::ParseLevel("sse42", &l));
  EXPECT_EQ(l, kernel::Level::kSse42);
  EXPECT_TRUE(kernel::ParseLevel("avx2", &l));
  EXPECT_EQ(l, kernel::Level::kAvx2);
  for (const char* bad : {"", "SSE42", "avx512", "auto", "scalar "}) {
    EXPECT_FALSE(kernel::ParseLevel(bad, &l)) << bad;
  }
}

TEST(DispatchTest, SetLevelForTestRejectsUnavailableAndSwitches) {
  const auto levels = kernel::AvailableLevels();
  const kernel::Level original = kernel::ActiveLevel();
  for (kernel::Level l :
       {kernel::Level::kScalar, kernel::Level::kSse42, kernel::Level::kAvx2}) {
    const bool available =
        std::find(levels.begin(), levels.end(), l) != levels.end();
    EXPECT_EQ(kernel::SetLevelForTest(l), available);
    if (available) {
      EXPECT_EQ(kernel::ActiveLevel(), l);
      EXPECT_STREQ(kernel::Active().name, kernel::LevelName(l));
    }
  }
  ASSERT_TRUE(kernel::SetLevelForTest(original));
}

// ---------------------------------------------------------------------------
// Group-varint block encode/decode, per level.

std::vector<ICell> RandomBlockCells(int64_t count, Rng* rng) {
  std::vector<ICell> cells;
  uint32_t doc = static_cast<uint32_t>(rng->NextBounded(1 << 20));
  for (int64_t i = 0; i < count; ++i) {
    // Mixed gap magnitudes so every control-byte length class occurs.
    const int shift = static_cast<int>(rng->NextBounded(4)) * 6;
    doc += 1 + static_cast<uint32_t>(rng->NextBounded(uint64_t{1} << shift));
    doc = std::min(doc, kMaxDocId);
    cells.push_back(ICell{doc, static_cast<Weight>(
                                   1 + rng->NextBounded(0xFFFF))});
  }
  return cells;
}

TEST(GroupVarintTest, RoundTripsEveryCountAtEveryLevel) {
  Rng rng(101 + SeedOffset());
  for (int64_t count : {int64_t{1}, int64_t{2}, int64_t{3}, int64_t{7},
                        int64_t{8}, int64_t{63}, int64_t{64}}) {
    const auto cells = RandomBlockCells(count, &rng);
    std::vector<uint8_t> buf;
    kernel::GvEncodeBlock(cells.data(), count, &buf);
    for (kernel::Level level : kernel::AvailableLevels()) {
      const kernel::KernelTable& t = kernel::TableFor(level);
      std::vector<ICell> out(static_cast<size_t>(count));
      int64_t consumed = -1;
      ASSERT_TRUE(t.gv_decode(buf.data(), static_cast<int64_t>(buf.size()),
                              count, out.data(), &consumed)
                      .ok())
          << kernel::LevelName(level) << " count " << count;
      EXPECT_EQ(consumed, static_cast<int64_t>(buf.size()));
      EXPECT_EQ(out, cells) << kernel::LevelName(level);
    }
  }
}

// Every truncation of a valid block must be rejected as kDataLoss by every
// level — the decoder may never read past byte_length, so a prefix that is
// missing payload (or control) bytes fails closed.
TEST(GroupVarintFuzzTest, EveryTruncationIsDataLoss) {
  Rng rng(202 + SeedOffset());
  for (int64_t count : {int64_t{1}, int64_t{5}, int64_t{64}}) {
    const auto cells = RandomBlockCells(count, &rng);
    std::vector<uint8_t> buf;
    kernel::GvEncodeBlock(cells.data(), count, &buf);
    std::vector<ICell> out(static_cast<size_t>(count));
    for (kernel::Level level : kernel::AvailableLevels()) {
      const kernel::KernelTable& t = kernel::TableFor(level);
      for (size_t cut = 0; cut < buf.size(); ++cut) {
        Status s = t.gv_decode(buf.data(), static_cast<int64_t>(cut), count,
                               out.data(), nullptr);
        EXPECT_EQ(s.code(), StatusCode::kDataLoss)
            << kernel::LevelName(level) << " count " << count << " cut "
            << cut;
      }
    }
  }
}

// Single-bit flips anywhere in a block must decode (to in-range cells) or
// fail as kDataLoss — never crash, never emit a document above kMaxDocId
// or a weight above 0xFFFF, and never disagree across dispatch levels.
TEST(GroupVarintFuzzTest, BitFlipsFailClosedAndAgreeAcrossLevels) {
  Rng rng(303 + SeedOffset());
  for (int64_t count : {int64_t{3}, int64_t{64}}) {
    const auto cells = RandomBlockCells(count, &rng);
    std::vector<uint8_t> buf;
    kernel::GvEncodeBlock(cells.data(), count, &buf);
    const auto levels = kernel::AvailableLevels();
    for (size_t byte = 0; byte < buf.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::vector<uint8_t> corrupt = buf;
        corrupt[byte] ^= static_cast<uint8_t>(1u << bit);
        std::vector<ICell> ref(static_cast<size_t>(count));
        int64_t ref_consumed = -1;
        const Status ref_status = kernel::kScalarTable.gv_decode(
            corrupt.data(), static_cast<int64_t>(corrupt.size()), count,
            ref.data(), &ref_consumed);
        if (ref_status.ok()) {
          for (const ICell& c : ref) {
            EXPECT_LE(c.doc, kMaxDocId);
            EXPECT_LE(c.weight, 0xFFFF);
          }
        } else {
          EXPECT_EQ(ref_status.code(), StatusCode::kDataLoss);
        }
        for (size_t li = 1; li < levels.size(); ++li) {
          const kernel::KernelTable& t = kernel::TableFor(levels[li]);
          std::vector<ICell> out(static_cast<size_t>(count));
          int64_t consumed = -1;
          const Status s =
              t.gv_decode(corrupt.data(), static_cast<int64_t>(corrupt.size()),
                          count, out.data(), &consumed);
          EXPECT_EQ(s.ok(), ref_status.ok())
              << kernel::LevelName(levels[li]) << " byte " << byte << " bit "
              << bit;
          if (s.ok() && ref_status.ok()) {
            EXPECT_EQ(consumed, ref_consumed);
            EXPECT_EQ(out, ref) << kernel::LevelName(levels[li]);
          } else if (!s.ok()) {
            EXPECT_EQ(s.code(), StatusCode::kDataLoss);
          }
        }
      }
    }
  }
}

// Hand-built corruptions of the control region: over-long length claims
// make the payload overrun the block; nonzero bits in the unused fields of
// a partial final group are corruption by contract.
TEST(GroupVarintFuzzTest, OverlongControlRunsAndSlackBitsAreDataLoss) {
  Rng rng(404 + SeedOffset());
  for (kernel::Level level : kernel::AvailableLevels()) {
    const kernel::KernelTable& t = kernel::TableFor(level);
    // All control bytes claim 4-byte values but the payload is one byte:
    // every group overruns.
    {
      const int64_t count = 8;
      std::vector<uint8_t> buf(kernel::GvControlBytes(count), 0xFF);
      buf.push_back(0x01);
      std::vector<ICell> out(static_cast<size_t>(count));
      Status s = t.gv_decode(buf.data(), static_cast<int64_t>(buf.size()),
                             count, out.data(), nullptr);
      EXPECT_EQ(s.code(), StatusCode::kDataLoss) << kernel::LevelName(level);
    }
    // Odd cell count -> partial final group with two unused value slots;
    // setting any of their control bits must be rejected even though the
    // used slots decode fine.
    {
      const int64_t count = 3;  // 6 values: group 1 uses slots 0..1 only
      const auto cells = RandomBlockCells(count, &rng);
      std::vector<uint8_t> buf;
      kernel::GvEncodeBlock(cells.data(), count, &buf);
      const int64_t ctrl_bytes = kernel::GvControlBytes(count);
      ASSERT_EQ(ctrl_bytes, 2);
      std::vector<uint8_t> corrupt = buf;
      corrupt[1] |= 0x10;  // length bits of unused slot 2
      std::vector<ICell> out(static_cast<size_t>(count));
      Status s =
          t.gv_decode(corrupt.data(), static_cast<int64_t>(corrupt.size()),
                      count, out.data(), nullptr);
      EXPECT_EQ(s.code(), StatusCode::kDataLoss) << kernel::LevelName(level);
    }
    // Negative count is rejected outright.
    {
      uint8_t byte = 0;
      ICell cell;
      Status s = t.gv_decode(&byte, 1, -1, &cell, nullptr);
      EXPECT_EQ(s.code(), StatusCode::kDataLoss) << kernel::LevelName(level);
    }
  }
}

// ---------------------------------------------------------------------------
// Raw kernel bit-identity across levels.

TEST(KernelIdentityTest, ScaleCellsMatchesScalarBitForBit) {
  Rng rng(505 + SeedOffset());
  for (int64_t n : {int64_t{0}, int64_t{1}, int64_t{3}, int64_t{64},
                    int64_t{1000}}) {
    const auto cells = RandomBlockCells(std::max<int64_t>(n, 1), &rng);
    const double w2 = 0.37 + 0.01 * static_cast<double>(rng.NextBounded(100));
    const double factor = 1.0 / 3.0;
    std::vector<double> ref(static_cast<size_t>(n), -1.0);
    kernel::kScalarTable.scale_cells(cells.data(), n, w2, factor, ref.data());
    for (kernel::Level level : kernel::AvailableLevels()) {
      std::vector<double> out(static_cast<size_t>(n), -2.0);
      kernel::TableFor(level).scale_cells(cells.data(), n, w2, factor,
                                          out.data());
      // Zero bytes are trivially equal (and memcmp's pointers would be
      // the null data() of empty vectors).
      if (n > 0) {
        ASSERT_EQ(std::memcmp(out.data(), ref.data(), sizeof(double) * n), 0)
            << kernel::LevelName(level) << " n " << n;
      }
    }
  }
}

TEST(KernelIdentityTest, MergeLinearStepMeteringIdenticalAcrossLevels) {
  Rng rng(707 + SeedOffset());
  auto make_list = [&](int64_t n, uint32_t stride) {
    std::vector<DCell> cells;
    uint32_t t = static_cast<uint32_t>(rng.NextBounded(5));
    for (int64_t i = 0; i < n; ++i) {
      cells.push_back(DCell{t, static_cast<Weight>(1 + (i % 7))});
      t += 1 + rng.NextBounded(stride);
    }
    return cells;
  };
  struct Shape {
    int64_t na;
    int64_t nb;
    uint32_t stride;
  };
  for (const Shape shape : {Shape{40, 37, 2}, Shape{200, 5, 30},
                            Shape{64, 64, 1}}) {
    const int64_t na = shape.na;
    const int64_t nb = shape.nb;
    const auto a = make_list(na, shape.stride);
    const auto b = make_list(nb, 2);
    for (int64_t max_steps : {int64_t{1}, int64_t{7}, na + nb}) {
      kernel::MergeCursor ref_cur;
      std::vector<int32_t> ref_a(static_cast<size_t>(max_steps));
      std::vector<int32_t> ref_b(static_cast<size_t>(max_steps));
      int64_t ref_m = 0;
      int64_t ref_steps = 0;
      while (ref_cur.i < na && ref_cur.j < nb) {
        int64_t m = 0;
        ref_steps += kernel::kScalarTable.merge_linear(
            a.data(), na, b.data(), nb, &ref_cur, max_steps, ref_a.data(),
            ref_b.data(), &m);
        ref_m += m;
      }
      for (kernel::Level level : kernel::AvailableLevels()) {
        kernel::MergeCursor cur;
        std::vector<int32_t> ma(static_cast<size_t>(max_steps));
        std::vector<int32_t> mb(static_cast<size_t>(max_steps));
        int64_t total_m = 0;
        int64_t total_steps = 0;
        while (cur.i < na && cur.j < nb) {
          int64_t m = 0;
          const int64_t steps = kernel::TableFor(level).merge_linear(
              a.data(), na, b.data(), nb, &cur, max_steps, ma.data(),
              mb.data(), &m);
          ASSERT_LE(m, steps);
          total_steps += steps;
          total_m += m;
        }
        EXPECT_EQ(total_steps, ref_steps) << kernel::LevelName(level);
        EXPECT_EQ(total_m, ref_m) << kernel::LevelName(level);
        EXPECT_EQ(cur.i, ref_cur.i);
        EXPECT_EQ(cur.j, ref_cur.j);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end bit-identity: whole joins at every dispatch level.

InvertedFile BuildIndex(Disk* disk, const std::string& name,
                        const DocumentCollection& col,
                        PostingCompression compression) {
  InvertedFile::BuildOptions opts;
  opts.compression = compression;
  auto index = InvertedFile::Build(disk, name, col, opts);
  TEXTJOIN_CHECK_OK(index.status());
  return std::move(index).value();
}

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

// Runs every executor x weighting scheme x compression at every compiled
// dispatch level and demands byte-identical JoinResults (document order,
// scores, tie-breaks) against the scalar level, which itself must match
// brute force. This is the contract that lets dispatch stay invisible to
// everything above src/kernel.
TEST(KernelJoinIdentityTest, AllLevelsBitIdenticalAcrossExecutors) {
  const uint64_t seed = SeedOffset();
  const kernel::Level original = kernel::ActiveLevel();
  const auto levels = kernel::AvailableLevels();
  for (const PostingCompression comp : {PostingCompression::kDeltaVarint,
                                        PostingCompression::kGroupVarint}) {
    SimulatedDisk disk(256);
    auto inner = RandomCollection(&disk, "c1", 60, 6, 50, 41 + seed);
    auto outer = RandomCollection(&disk, "c2", 35, 5, 50, 42 + seed);
    InvertedFile inner_index = BuildIndex(&disk, "c1.inv", inner, comp);
    InvertedFile outer_index = BuildIndex(&disk, "c2.inv", outer, comp);

    for (const SimilarityConfig sim :
         {SimilarityConfig{false, false}, SimilarityConfig{false, true},
          SimilarityConfig{true, true}}) {
      auto simctx = SimilarityContext::Create(inner, outer, sim);
      ASSERT_TRUE(simctx.ok());
      JoinContext ctx;
      ctx.inner = &inner;
      ctx.outer = &outer;
      ctx.inner_index = &inner_index;
      ctx.outer_index = &outer_index;
      ctx.similarity = &*simctx;
      ctx.sys = SystemParams{60, disk.page_size(), 5.0};
      JoinSpec spec;
      spec.lambda = 4;
      const JoinResult expected = BruteForceJoin(inner, outer, *simctx, spec);

      Executors ex;
      for (auto [label, algo] : ex.all()) {
        JoinResult scalar_result;
        for (kernel::Level level : levels) {
          ASSERT_TRUE(kernel::SetLevelForTest(level));
          auto r = algo->Run(ctx, spec);
          ASSERT_TRUE(r.ok()) << label << " @ " << kernel::LevelName(level)
                              << ": " << r.status();
          if (level == kernel::Level::kScalar) {
            scalar_result = *r;
            EXPECT_EQ(scalar_result, expected) << label;
          } else {
            EXPECT_EQ(*r, scalar_result)
                << label << " @ " << kernel::LevelName(level)
                << " diverges from scalar";
          }
        }
      }
    }
  }
  ASSERT_TRUE(kernel::SetLevelForTest(original));
}

}  // namespace
}  // namespace textjoin
