// Wall-time trajectory of the dispatched hot-path kernels: every kernel
// family (posting-block decode, contribution scaling, term merge) timed at every dispatch level compiled into this binary and
// usable on this CPU, against the scalar varint decode as the pre-SIMD
// baseline. Reports ns/op and cells/sec per (kernel, level) cell and
// verifies — before timing anything — that every level produces bitwise
// identical output, so a throughput win can never hide a numeric drift.
//
//   --smoke   CI-sized workload; additionally enforces the headline the
//             tentpole must defend: group-varint decode through the best
//             available SIMD level >= 2x the scalar varint baseline in
//             cells/sec (skipped with a note when only the scalar level
//             is compiled in or the CPU lacks SIMD).
//   --json    machine-readable output (scripts/bench_json.sh commits it
//             as BENCH_kernels.json).
//
// Times here are machine-dependent by design — nothing a golden test
// pins. The machine-independent counters stay in the simulated CPU model;
// kernel::Calibrated() is the bridge between the two.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "index/inverted_file.h"
#include "kernel/aligned.h"
#include "kernel/dispatch.h"

namespace textjoin {
namespace {

// One measurement: calibrate a round count worth ~5ms, then take the
// MINIMUM average over several trials — the minimum is the least noisy
// estimator for a deterministic loop on a shared machine (anything above
// it is scheduler or frequency interference, never the code being
// faster).
template <typename Fn>
double MeasureNs(Fn&& fn, int min_rounds = 50) {
  using Clock = std::chrono::steady_clock;
  const auto time_rounds = [&](int rounds) {
    const auto t0 = Clock::now();
    for (int r = 0; r < rounds; ++r) fn();
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
  };
  fn();  // warm up: touches the data and resolves any lazy init
  int rounds = min_rounds;
  double best = 0;
  for (;;) {
    const double ns = time_rounds(rounds);
    if (ns >= 5e6 || rounds >= (1 << 22)) {
      best = ns / rounds;
      break;
    }
    rounds *= 4;
  }
  for (int trial = 0; trial < 4; ++trial) {
    const double ns = time_rounds(rounds) / rounds;
    if (ns < best) best = ns;
  }
  return best;
}

std::vector<ICell> SyntheticCells(int64_t n, uint64_t seed) {
  std::vector<ICell> cells;
  cells.reserve(static_cast<size_t>(n));
  uint64_t state = seed * 6364136223846793005ull + 1442695040888963407ull;
  uint32_t doc = 0;
  for (int64_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    // Gaps 1..64 and weights 1..1000: the mixed 1-2 byte regime real
    // posting lists live in.
    doc += 1 + static_cast<uint32_t>((state >> 33) % 64);
    const uint16_t w = static_cast<uint16_t>(1 + ((state >> 17) % 1000));
    cells.push_back(ICell{doc, w});
  }
  return cells;
}

struct EncodedList {
  std::vector<uint8_t> bytes;
  std::vector<InvertedFile::PostingBlockMeta> blocks;
};

EncodedList Encode(const std::vector<ICell>& cells,
                   PostingCompression compression) {
  EncodedList e;
  EncodePostings(cells, compression, &e.bytes, &e.blocks);
  return e;
}

int64_t BlockLength(const EncodedList& e, size_t b) {
  const int64_t end = b + 1 < e.blocks.size() ? e.blocks[b + 1].offset_bytes
                                              : static_cast<int64_t>(
                                                    e.bytes.size());
  return end - e.blocks[b].offset_bytes;
}

struct Cell {
  std::string kernel;
  std::string level;
  double ns_per_op = 0;
  double cells_per_sec = 0;
};

// Field-wise, not memcmp: an ICell assignment copies an aggregate
// temporary whose two padding bytes are indeterminate under -O2, so raw
// object bytes can differ between two correct decodes.
bool SameCells(const std::vector<ICell>& a, const std::vector<ICell>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].doc != b[i].doc || a[i].weight != b[i].weight) return false;
  }
  return true;
}

void Fatal(const char* what, const char* level) {
  std::printf("FATAL: %s differs at level %s\n", what, level);
  std::exit(1);
}

void Main(bool smoke, bool json) {
  const int64_t kBlock = kPostingBlockCells;
  const int64_t num_blocks = smoke ? 256 : 2048;
  const int64_t n = num_blocks * kBlock;
  const std::vector<ICell> cells = SyntheticCells(n, 42);
  const EncodedList varint = Encode(cells, PostingCompression::kDeltaVarint);
  const EncodedList gv = Encode(cells, PostingCompression::kGroupVarint);
  const std::vector<kernel::Level> levels = kernel::AvailableLevels();

  // ---- Bit-identity gate: every level must reproduce the scalar output
  // exactly before any of them is timed.
  std::vector<ICell> reference;
  TEXTJOIN_CHECK_OK(DecodePostings(varint.bytes.data(),
                                   static_cast<int64_t>(varint.bytes.size()),
                                   n, PostingCompression::kDeltaVarint)
                        .status());
  for (kernel::Level level : levels) {
    const kernel::KernelTable& k = kernel::TableFor(level);
    std::vector<ICell> got(static_cast<size_t>(n));
    for (size_t b = 0; b < gv.blocks.size(); ++b) {
      const auto& bm = gv.blocks[b];
      int64_t consumed = 0;
      Status s = k.gv_decode(gv.bytes.data() + bm.offset_bytes,
                             BlockLength(gv, b), bm.cell_count,
                             got.data() + static_cast<int64_t>(b) * kBlock,
                             &consumed);
      if (!s.ok()) Fatal("gv_decode status", k.name);
    }
    if (!SameCells(got, cells)) Fatal("gv_decode output", k.name);
  }
  const kernel::KernelTable& scalar = kernel::TableFor(kernel::Level::kScalar);
  {
    // Scoring and merge kernels: bitwise-compare each level to scalar.
    const int64_t nb = 1024;
    kernel::DoubleBuffer ref_contrib(static_cast<size_t>(kBlock));
    kernel::DoubleBuffer got_contrib(static_cast<size_t>(kBlock));
    scalar.scale_cells(cells.data(), kBlock, 1.25, 0.75, ref_contrib.data());
    std::vector<DCell> da, db;
    for (int64_t i = 0; i < nb; ++i) {
      da.push_back(DCell{static_cast<TermId>(2 * i), 3});
      db.push_back(DCell{static_cast<TermId>(3 * i), 5});
    }
    std::vector<int32_t> rma(static_cast<size_t>(nb)),
        rmb(static_cast<size_t>(nb)), gma(static_cast<size_t>(nb)),
        gmb(static_cast<size_t>(nb));
    kernel::MergeCursor rcur;
    int64_t rnm = 0;
    const int64_t rsteps =
        scalar.merge_linear(da.data(), nb, db.data(), nb, &rcur,
                            1ll << 60, rma.data(), rmb.data(), &rnm);
    for (kernel::Level level : levels) {
      const kernel::KernelTable& k = kernel::TableFor(level);
      k.scale_cells(cells.data(), kBlock, 1.25, 0.75, got_contrib.data());
      if (std::memcmp(ref_contrib.data(), got_contrib.data(),
                      sizeof(double) * static_cast<size_t>(kBlock)) != 0) {
        Fatal("scale_cells output", k.name);
      }
      kernel::MergeCursor cur;
      int64_t nm = 0;
      const int64_t steps =
          k.merge_linear(da.data(), nb, db.data(), nb, &cur, 1ll << 60,
                         gma.data(), gmb.data(), &nm);
      if (steps != rsteps || nm != rnm ||
          std::memcmp(rma.data(), gma.data(),
                      sizeof(int32_t) * static_cast<size_t>(rnm)) != 0 ||
          std::memcmp(rmb.data(), gmb.data(),
                      sizeof(int32_t) * static_cast<size_t>(rnm)) != 0) {
        Fatal("merge_linear output", k.name);
      }
    }
  }

  // ---- Timing. The baseline first: scalar varint block decode, the path
  // every pre-SIMD build ran.
  std::vector<Cell> results;
  kernel::ICellBuffer scratch(static_cast<size_t>(kBlock));
  const auto decode_list = [&](const EncodedList& e, auto&& decode_block) {
    for (size_t b = 0; b < e.blocks.size(); ++b) {
      decode_block(e.bytes.data() + e.blocks[b].offset_bytes,
                   BlockLength(e, b), e.blocks[b].cell_count);
    }
  };
  double varint_cells_per_sec = 0;
  {
    const double ns = MeasureNs([&] {
      decode_list(varint, [&](const uint8_t* p, int64_t len, int64_t count) {
        TEXTJOIN_CHECK_OK(DecodePostingBlockInto(
            p, len, count, PostingCompression::kDeltaVarint,
            scratch.data()));
      });
    });
    varint_cells_per_sec = static_cast<double>(n) / (ns * 1e-9);
    results.push_back(
        Cell{"varint_decode", "scalar", ns / static_cast<double>(num_blocks),
             varint_cells_per_sec});
  }

  double best_gv_cells_per_sec = 0;
  for (kernel::Level level : levels) {
    const kernel::KernelTable& k = kernel::TableFor(level);
    {
      const double ns = MeasureNs([&] {
        decode_list(gv, [&](const uint8_t* p, int64_t len, int64_t count) {
          int64_t consumed = 0;
          TEXTJOIN_CHECK_OK(
              k.gv_decode(p, len, count, scratch.data(), &consumed));
        });
      });
      const double cps = static_cast<double>(n) / (ns * 1e-9);
      if (cps > best_gv_cells_per_sec) best_gv_cells_per_sec = cps;
      results.push_back(Cell{"gv_decode", k.name,
                             ns / static_cast<double>(num_blocks), cps});
    }
    {
      kernel::DoubleBuffer out(static_cast<size_t>(kBlock));
      const double ns = MeasureNs(
          [&] { k.scale_cells(cells.data(), kBlock, 1.25, 0.75, out.data()); },
          /*min_rounds=*/1000);
      results.push_back(Cell{"scale_cells", k.name, ns,
                             static_cast<double>(kBlock) / (ns * 1e-9)});
    }
    {
      // Two merge shapes: interleaved (term strides 2 and 3 — runs of 1-2
      // cells, the common same-length-document case) and run-heavy (a
      // sparse side against a dense one — long single-side runs, where
      // the wide compare skips whole registers).
      const int64_t nd = 2048;
      std::vector<DCell> da, db, sparse;
      for (int64_t i = 0; i < nd; ++i) {
        da.push_back(DCell{static_cast<TermId>(2 * i), 3});
        db.push_back(DCell{static_cast<TermId>(3 * i), 5});
      }
      const int64_t nsparse = 64;
      for (int64_t i = 0; i < nsparse; ++i) {
        sparse.push_back(DCell{static_cast<TermId>(i * 3 * (nd / nsparse)), 7});
      }
      std::vector<int32_t> ma(static_cast<size_t>(nd)),
          mb(static_cast<size_t>(nd));
      double steps_per_call = 0;
      const double ns = MeasureNs([&] {
        kernel::MergeCursor cur;
        int64_t nm = 0;
        steps_per_call = static_cast<double>(
            k.merge_linear(da.data(), nd, db.data(), nd, &cur, 1ll << 60,
                           ma.data(), mb.data(), &nm));
      });
      results.push_back(
          Cell{"merge_linear", k.name, ns, steps_per_call / (ns * 1e-9)});
      const double ns_runs = MeasureNs([&] {
        kernel::MergeCursor cur;
        int64_t nm = 0;
        steps_per_call = static_cast<double>(
            k.merge_linear(sparse.data(), nsparse, db.data(), nd, &cur,
                           1ll << 60, ma.data(), mb.data(), &nm));
      });
      results.push_back(Cell{"merge_linear_runs", k.name, ns_runs,
                             steps_per_call / (ns_runs * 1e-9)});
    }
  }

  const double speedup = varint_cells_per_sec > 0
                             ? best_gv_cells_per_sec / varint_cells_per_sec
                             : 0;
  if (json) {
    std::printf("{\n  \"workload\": {\"blocks\": %lld, \"cells\": %lld},\n",
                static_cast<long long>(num_blocks), static_cast<long long>(n));
    std::printf("  \"active_level\": \"%s\",\n", kernel::Active().name);
    std::printf("  \"levels\": [");
    for (size_t i = 0; i < levels.size(); ++i) {
      std::printf("%s\"%s\"", i ? ", " : "", kernel::LevelName(levels[i]));
    }
    std::printf("],\n  \"decode_speedup_best_gv_vs_scalar_varint\": %.2f,\n",
                speedup);
    std::printf("  \"kernels\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
      const Cell& c = results[i];
      std::printf("    {\"kernel\": \"%s\", \"level\": \"%s\", "
                  "\"ns_per_op\": %.1f, \"cells_per_sec\": %.3e}%s\n",
                  c.kernel.c_str(), c.level.c_str(), c.ns_per_op,
                  c.cells_per_sec, i + 1 < results.size() ? "," : "");
    }
    std::printf("  ]\n}\n");
  } else {
    std::printf("== hot-path kernels: %lld cells in %lld blocks, levels:",
                static_cast<long long>(n), static_cast<long long>(num_blocks));
    for (kernel::Level level : levels) {
      std::printf(" %s", kernel::LevelName(level));
    }
    std::printf(" (active: %s) ==\n", kernel::Active().name);
    std::printf("%-14s %-8s %14s %16s\n", "kernel", "level", "ns/op",
                "cells/sec");
    for (const Cell& c : results) {
      std::printf("%-14s %-8s %14.1f %16.3e\n", c.kernel.c_str(),
                  c.level.c_str(), c.ns_per_op, c.cells_per_sec);
    }
    std::printf("\ndecode speedup, best gv vs scalar varint: %.2fx\n",
                speedup);
  }

  if (smoke) {
    if (levels.size() < 2) {
      std::printf("smoke OK (scalar-only build: speedup gate skipped)\n");
      return;
    }
    if (speedup < 2.0) {
      std::printf("FATAL: expected >= 2x decode speedup, got %.2fx\n",
                  speedup);
      std::exit(1);
    }
    std::printf("smoke OK (bit-identity verified, %.2fx decode speedup)\n",
                speedup);
  }
}

}  // namespace
}  // namespace textjoin

int main(int argc, char** argv) {
  bool smoke = false, json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }
  textjoin::Main(smoke, json);
  return 0;
}
