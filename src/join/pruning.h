#ifndef TEXTJOIN_JOIN_PRUNING_H_
#define TEXTJOIN_JOIN_PRUNING_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "join/cpu_stats.h"
#include "join/similarity.h"
#include "join/topk.h"
#include "text/document.h"
#include "text/types.h"

namespace textjoin {

// Exact top-lambda pruning for HHNL — the MaxScore/WAND family of IR
// threshold algorithms applied to the document-pair loop. JoinSpec::prune
// switches it (together with VVM's pass-slice block skip, join/vvm.h) on
// or off; HVNL and VVM accumulate every contribution either way.
//
// Write wt_i(t) = w_i(t) * idf(t) for a document's idf-scaled term weight
// (idf(t) = 1 when idf weighting is off). A pair's accumulated score is
//   acc = sum over common t of wt_1(t) * wt_2(t),
// every contribution nonnegative, so three classic inequalities bound it:
//   acc <= max_t wt_1 * sum_t wt_2          (Hoelder, either side)
//   acc <= sum_t wt_1 * max_t wt_2
//   acc <= ||wt_1|| * ||wt_2||              (Cauchy-Schwarz)
// and under cosine normalization the final score divides by the same
// norms Finalize uses. A candidate whose bound cannot beat the current
// lambda-th score theta — with BetterMatch tie-breaking, via
// TopKAccumulator::CannotQualify — can be skipped without changing the
// result set: TopKAccumulator keeps a set determined solely by the offered
// (doc, score) pairs, not by offer order, so omitting provably-losing
// offers is invisible. Evaluated pairs run the unchanged accumulation
// loops in ascending term order, so surviving scores stay bit-identical.
//
// Floating point: fp addition of nonnegative terms is monotone, so any
// partial accumulator value (finalized) is a valid lower bound on the
// final score. Bounds are computed in a different fp expression order
// than the accumulation they dominate; kBoundSlack absorbs that rounding
// so the algebraic inequality survives in fp.

// Relative slack applied to every upper bound before comparing against a
// threshold. The accumulation of n nonnegative products carries O(n*eps)
// relative error (eps = 2^-52); documents have < 2^24 cells, so 1e-9
// leaves three orders of magnitude of margin.
inline constexpr double kBoundSlack = 1.0 + 1e-9;

// Merge steps between bound re-checks inside an early-exit merge: checks
// cost two multiplies and a compare, so re-checking every step would eat
// the savings.
inline constexpr int64_t kEarlyExitStride = 8;

// Scalar bound profile of one document under a similarity configuration.
struct DocBounds {
  double max_w = 0;    // max_t wt(t)
  double sum_w = 0;    // sum_t wt(t)
  double norm_w = 0;   // sqrt(sum_t wt(t)^2)
  // Reciprocal of the document's Finalize denominator factor: 1 when
  // cosine normalization is off, 0 for an empty document under cosine
  // (Finalize maps those scores to 0).
  double inv_norm = 1;
};

// Bound profile from the document's cells (needed when idf scaling is on).
// `finalize_norm` is the DocumentNorms value Finalize divides by (pass 1.0
// when cosine normalization is off).
DocBounds ComputeDocBounds(const Document& doc, const SimilarityContext& ctx,
                           double finalize_norm);

// Bound profile from catalog metadata alone — exact for raw (non-idf)
// weighting, where the catalog's precomputed max weight / weight sum /
// norm are the wt statistics. No document access.
DocBounds CatalogDocBounds(const DocumentCollection& collection, DocId doc,
                           double finalize_norm);

// Upper bound on the accumulated (pre-Finalize) score of a pair.
inline double PairUpperBoundAcc(const DocBounds& a, const DocBounds& b) {
  const double h1 = a.max_w * b.sum_w;
  const double h2 = a.sum_w * b.max_w;
  const double cs = a.norm_w * b.norm_w;
  return std::min(std::min(h1, h2), cs);
}

// Upper bound on the pair's FINAL score (cosine-normalized when the
// profiles carry inverse norms).
inline double PairUpperBound(const DocBounds& a, const DocBounds& b) {
  return PairUpperBoundAcc(a, b) * a.inv_norm * b.inv_norm;
}

// Suffix bounds over a document's cells in ascending term order:
// suffix_sum(i) / suffix_max(i) are the sum / max of wt over cells i..end
// (0 at i == size). They bound the contribution still ahead of a merge
// that has consumed the first i cells, enabling safe early exit.
class SuffixBounds {
 public:
  void Build(const Document& doc, const SimilarityContext& ctx);

  double suffix_sum(size_t i) const { return sum_[i]; }
  double suffix_max(size_t i) const { return max_[i]; }

 private:
  std::vector<double> sum_;  // size cells + 1, trailing 0
  std::vector<double> max_;
};

// One evaluated-or-pruned pair.
struct PrunedDotResult {
  DotDetail detail;         // partial when pruned (work done is still metered)
  int64_t bound_checks = 0;  // in-merge threshold checks performed
  bool pruned = false;       // true => the candidate provably cannot qualify
};

// WeightedDot with threshold-aware early exit: merges d1 and d2 exactly
// like WeightedDotKernel, but every kEarlyExitStride steps compares
//   (acc + remaining suffix bound) * inv_denom * kBoundSlack
// against `heap` (tie-broken as candidate document `doc`) and stops once
// the pair provably cannot qualify. A completed merge returns the
// bit-identical accumulated score. `inv_denom` is the product of the two
// documents' DocBounds::inv_norm. The optional DocBlockIndex pair switches
// the galloping kernel to block-boundary probing (see similarity.h).
PrunedDotResult WeightedDotPruned(const Document& d1, const Document& d2,
                                  const SimilarityContext& ctx,
                                  const SuffixBounds& b1,
                                  const SuffixBounds& b2, double inv_denom,
                                  DocId doc, const TopKAccumulator& heap,
                                  MergeKernel kernel,
                                  const DocBlockIndex* blocks1 = nullptr,
                                  const DocBlockIndex* blocks2 = nullptr);

}  // namespace textjoin

#endif  // TEXTJOIN_JOIN_PRUNING_H_
