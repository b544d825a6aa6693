// Pruning ablation on TREC-shaped workloads: JoinSpec::prune on/off x
// posting compression (5-byte i-cells, delta+varint) x weighting (raw,
// idf, cosine+idf). The TREC profiles are statistics-only, so each
// workload is a synthetic collection pair scaled down 1:4 in per-document
// terms (and far down in document count) while keeping the profiles'
// length RATIOS — the quantity the adaptive merge kernel and the bound
// checks respond to. Every join runs twice, pruning on (the default
// JoinSpec) and off (the paper's executors), the results are verified
// bit-identical (scores AND tie-breaks) in every cell, and the table
// reports the measured CPU counters side by side:
//
//   steps   merge-step CPU cost: cell compares of the merge walks plus
//           similarity accumulations
//   total   steps + heap offers + cells decoded + bound checks, i.e.
//           everything the run paid including the checks themselves
//   pruned  candidate pairs HHNL's top-lambda bounds skipped outright
//   blk     blocks passed over: d-cell blocks HHNL's galloping merge
//           ruled out with one summary probe, and VVM posting blocks
//           outside the current pass's outer slice, never decoded
//
// HVNL has no pruning, so its rows must show identical counters. The
// FR(x2) x DOE workload is the paper's Group 5 merge transform applied to
// the FR-like side: at a ~23x length ratio HHNL's adaptive kernel gallops
// and merge steps collapse. The DOE subset x DOE workload forces VVM
// through many matrix passes; there the pass-slice block skip must cut
// merge steps by at least 20% (the run exits 1 otherwise).
//
// --smoke runs a small DOE x DOE workload plus the multi-pass shape (CI).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "index/inverted_file.h"
#include "join/hhnl.h"
#include "join/hvnl.h"
#include "join/vvm.h"
#include "obs/query_stats.h"
#include "sim/synthetic.h"
#include "storage/disk_manager.h"

namespace textjoin {
namespace {

constexpr int64_t kPage = 512;
constexpr int64_t kBufferPages = 1024;

// The merge-step reduction the multi-pass VVM workload must reach in every
// cell.
constexpr double kMultiPassFloorPct = 20.0;

DocumentCollection Gen(SimulatedDisk* disk, const std::string& name,
                       int64_t docs, double terms, uint64_t seed,
                       int64_t vocab = 4000, double zipf = 1.0) {
  // By default one shared 4000-term universe (Zipf 1.0), so every pair of
  // collections overlaps the way same-domain TREC text does.
  SyntheticSpec spec{docs, terms, vocab, zipf, 0, seed};
  auto c = GenerateCollection(disk, name, spec);
  TEXTJOIN_CHECK_OK(c.status());
  return std::move(c).value();
}

struct Measured {
  JoinResult result;
  CpuStats cpu;
};

Measured RunOnce(SimulatedDisk* disk, const DocumentCollection& inner,
                 const InvertedFile& index, const DocumentCollection& outer,
                 const InvertedFile& outer_index,
                 const SimilarityContext& simctx, TextJoinAlgorithm& algo,
                 bool prune, int64_t lambda, int64_t buffer_pages) {
  JoinContext ctx;
  ctx.inner = &inner;
  ctx.outer = &outer;
  ctx.inner_index = &index;
  ctx.outer_index = &outer_index;
  ctx.similarity = &simctx;
  ctx.sys = SystemParams{buffer_pages, kPage, 5.0};
  QueryStatsCollector collector(disk);
  ctx.stats = &collector;
  JoinSpec spec;
  spec.lambda = lambda;
  spec.similarity = simctx.config;
  spec.prune = prune;
  auto r = algo.Run(ctx, spec);
  TEXTJOIN_CHECK_OK(r.status());
  return Measured{std::move(r).value(), collector.Finish().root.cpu};
}

int64_t Steps(const CpuStats& c) { return c.cell_compares + c.accumulations; }

int64_t TotalWork(const CpuStats& c) {
  return c.cell_compares + c.accumulations + c.heap_offers + c.cells_decoded +
         c.bound_checks;
}

double Reduction(int64_t off, int64_t on) {
  if (off <= 0) return 0.0;
  return 100.0 * (1.0 - static_cast<double>(on) / static_cast<double>(off));
}

const char* SimName(const SimilarityConfig& sim) {
  if (sim.cosine_normalize) return "cos+idf";
  return sim.use_idf ? "idf" : "raw";
}

struct Workload {
  const char* title;
  int64_t lambda = 20;
  int64_t buffer_pages = kBufferPages;
  bool vvm_only = false;  // the multi-pass shape
};

// Smallest merge-step reduction over the multi-pass workload's cells.
double g_multipass_min = 100.0;

void RunAblation(SimulatedDisk* disk, const std::string& key,
                 const Workload& w, const DocumentCollection& inner,
                 const DocumentCollection& outer,
                 PostingCompression compression) {
  InvertedFile::BuildOptions opts;
  opts.compression = compression;
  auto index = InvertedFile::Build(disk, key + ".idx", inner, opts);
  TEXTJOIN_CHECK_OK(index.status());
  auto outer_index = InvertedFile::Build(disk, key + ".oidx", outer, opts);
  TEXTJOIN_CHECK_OK(outer_index.status());

  const char* comp =
      compression == PostingCompression::kNone ? "5-byte" : "delta+varint";
  std::printf("\n== %s  [%s, lambda=%lld, B=%lld] ==\n", w.title, comp,
              static_cast<long long>(w.lambda),
              static_cast<long long>(w.buffer_pages));
  std::printf("%-5s %-7s %12s %12s %7s %12s %12s %7s %8s %8s\n", "algo",
              "sim", "steps(off)", "steps(on)", "red%", "total(off)",
              "total(on)", "red%", "pruned", "blk");

  for (const SimilarityConfig sim :
       {SimilarityConfig{false, false}, SimilarityConfig{false, true},
        SimilarityConfig{true, true}}) {
    auto simctx = SimilarityContext::Create(inner, outer, sim);
    TEXTJOIN_CHECK_OK(simctx.status());
    HhnlJoin hhnl;
    HvnlJoin hvnl;
    VvmJoin vvm;
    struct Row {
      const char* label;
      TextJoinAlgorithm* algo;
    };
    for (const Row& row :
         {Row{"hhnl", &hhnl}, Row{"hvnl", &hvnl}, Row{"vvm", &vvm}}) {
      if (w.vvm_only && row.algo != &vvm) continue;
      Measured off = RunOnce(disk, inner, *index, outer, *outer_index,
                             *simctx, *row.algo, /*prune=*/false, w.lambda,
                             w.buffer_pages);
      Measured on = RunOnce(disk, inner, *index, outer, *outer_index,
                            *simctx, *row.algo, /*prune=*/true, w.lambda,
                            w.buffer_pages);
      if (!(off.result == on.result)) {
        std::printf("FATAL: %s pruned result differs (%s, %s, %s)\n",
                    row.label, w.title, comp, SimName(sim));
        std::exit(1);
      }
      const double red = Reduction(Steps(off.cpu), Steps(on.cpu));
      if (w.vvm_only) g_multipass_min = std::min(g_multipass_min, red);
      std::printf(
          "%-5s %-7s %12lld %12lld %6.1f%% %12lld %12lld %6.1f%% %8lld "
          "%8lld\n",
          row.label, SimName(sim), static_cast<long long>(Steps(off.cpu)),
          static_cast<long long>(Steps(on.cpu)), red,
          static_cast<long long>(TotalWork(off.cpu)),
          static_cast<long long>(TotalWork(on.cpu)),
          Reduction(TotalWork(off.cpu), TotalWork(on.cpu)),
          static_cast<long long>(on.cpu.pairs_pruned),
          static_cast<long long>(on.cpu.blocks_skipped));
    }
  }
}

void Main(bool smoke) {
  SimulatedDisk disk(kPage);
  std::printf(
      "== Pruning ablation: JoinSpec::prune on/off (delta=0.1) ==\n"
      "steps = cell compares + accumulations (the merge-step CPU cost);\n"
      "total adds heap offers, cells decoded and the bound checks the\n"
      "pruned run spends. Results verified bit-identical in every cell.\n");

  if (smoke) {
    DocumentCollection a = Gen(&disk, "sa", 120, 22.0, 21);
    DocumentCollection b = Gen(&disk, "sb", 120, 22.0, 22);
    RunAblation(&disk, "s1", Workload{"smoke: DOE x DOE (22 terms/doc)"}, a,
                b, PostingCompression::kDeltaVarint);
    DocumentCollection fa = Gen(&disk, "fa", 30, 22.0, 23, 100, 0.5);
    DocumentCollection fb = Gen(&disk, "fb", 2000, 22.0, 24, 100, 0.5);
    RunAblation(&disk, "s2",
                Workload{"smoke: DOE subset x DOE (VVM multi-pass)", 20, 6,
                         true},
                fa, fb, PostingCompression::kDeltaVarint);
  } else {
    // Per-document terms are the TREC averages / 4 (WSJ 329 -> 82,
    // FR 1017 -> 254, DOE 89 -> 22); document counts are bench-sized.
    DocumentCollection wsj1 = Gen(&disk, "wsj1", 240, 82.0, 11);
    DocumentCollection wsj2 = Gen(&disk, "wsj2", 240, 82.0, 12);
    DocumentCollection fr = Gen(&disk, "fr", 120, 254.0, 13);
    DocumentCollection doe = Gen(&disk, "doe", 400, 22.0, 14);
    DocumentCollection doe1 = Gen(&disk, "doe1", 400, 22.0, 15);
    // Group 5 transform on the FR side: merging consecutive documents
    // doubles the length skew against DOE (ratio ~23, past the galloping
    // switch at 16).
    auto fr2 = MergeDocuments(&disk, "fr2", fr, 2);
    TEXTJOIN_CHECK_OK(fr2.status());
    // DOE subset x DOE: a small C1 (30 documents) joined against a large
    // C2 (2000 documents), 22 terms/doc both sides over a stopworded
    // (flattened, zipf 0.5) vocabulary. C2's entries are dense — several
    // 64-cell blocks each, so every block's document span covers only a
    // slice of C2 — and an 8-page buffer forces VVM through 24 matrix
    // passes (10 under delta+varint). The pass-slice block skip then
    // decodes and pass-filters each C2 block only in the passes owning its
    // span, instead of once per pass.
    DocumentCollection doesub = Gen(&disk, "doesub", 30, 22.0, 15, 100, 0.5);
    DocumentCollection doebig =
        Gen(&disk, "doebig", 2000, 22.0, 16, 100, 0.5);

    for (const PostingCompression compression :
         {PostingCompression::kNone, PostingCompression::kDeltaVarint}) {
      const std::string tag =
          compression == PostingCompression::kNone ? "n" : "c";
      RunAblation(&disk, "w1" + tag,
                  Workload{"WSJ x WSJ (82 terms/doc both sides)"}, wsj1, wsj2,
                  compression);
      RunAblation(&disk, "w2" + tag,
                  Workload{"FR x DOE (254 vs 22 terms/doc)"}, fr, doe,
                  compression);
      RunAblation(&disk, "w3" + tag,
                  Workload{"FR(x2) x DOE (508 vs 22 terms/doc, gallops)"},
                  *fr2, doe, compression);
      // Selective query on the short-document profile: a small result
      // budget tightens HHNL's threshold early.
      RunAblation(&disk, "w4" + tag,
                  Workload{"DOE x DOE, selective", /*lambda=*/3}, doe1, doe,
                  compression);
      RunAblation(&disk, "w5" + tag,
                  Workload{"DOE subset x DOE (VVM multi-pass)", 20, 8, true},
                  doesub, doebig, compression);
    }
  }

  std::printf("\nmulti-pass VVM merge-step reduction: >= %.1f%% in every "
              "cell\n",
              g_multipass_min);
  if (g_multipass_min < kMultiPassFloorPct) {
    std::printf("FATAL: expected >= %.0f%% on the multi-pass workload\n",
                kMultiPassFloorPct);
    std::exit(1);
  }
  if (smoke) std::printf("smoke OK\n");
}

}  // namespace
}  // namespace textjoin

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  textjoin::Main(smoke);
  return 0;
}
