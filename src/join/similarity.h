#ifndef TEXTJOIN_JOIN_SIMILARITY_H_
#define TEXTJOIN_JOIN_SIMILARITY_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "text/collection.h"
#include "text/types.h"

namespace textjoin {

// How similarity between two documents is scored.
//
// The paper's base definition (Section 3) is the raw dot product of
// occurrence counts: sum over common terms of u_i * v_i. It also notes the
// two standard refinements — dividing by the document norms (cosine) and
// weighting terms by inverse document frequency — both of which can be
// folded into the same accumulation loop, so all three executors support
// them identically:
//   contribution(t) = u_t * v_t * idf(t)^2        (accumulated per pair)
//   final           = acc / (norm(d1) * norm(d2)) (if cosine_normalize)
struct SimilarityConfig {
  bool cosine_normalize = false;
  bool use_idf = false;
};

// Per-term idf weights over the union of two collections:
//   idf(t) = ln(1 + (N1 + N2) / (df1(t) + df2(t))).
// Returned object is an unmetered catalog (document frequencies are IR
// system metadata the paper assumes are kept anyway).
class IdfWeights {
 public:
  using DfMap = std::unordered_map<TermId, int64_t>;

  IdfWeights() = default;
  IdfWeights(const DocumentCollection& c1, const DocumentCollection& c2,
             const SimilarityConfig& config);
  // Weights over `n_total` documents whose df is df1(t) + df2(t). The maps
  // are borrowed and must outlive the weights; df2 may be null (one side).
  // Collection views (dynamic/delta_join.h) pass their live statistics, so
  // base + delta + deletes score with the exact formula above.
  IdfWeights(double n_total, const DfMap* df1, const DfMap* df2,
             bool enabled);

  // Squared idf of `term` (1.0 when idf weighting is off).
  double Squared(TermId term) const;

  bool enabled() const { return enabled_; }

 private:
  bool enabled_ = false;
  double n_total_ = 0;
  const DfMap* df1_ = nullptr;
  const DfMap* df2_ = nullptr;
};

// Cosine norm of one document under `idf`: sqrt of the sum of
// w * w * idf(t)^2 in ascending term order. With idf off this is
// Document::Norm, the catalog's raw norm (w * w * 1.0 == w * w).
double WeightedNorm(const std::vector<DCell>& cells, const IdfWeights& idf);

// Precomputed document norms of a collection under `config` (all 1.0 when
// cosine normalization is off). Raw norms come from the collection catalog
// (precomputed at build time, as the paper assumes); idf-weighted norms
// require one setup scan of the collection — callers build the
// SimilarityContext before metering starts.
class DocumentNorms {
 public:
  DocumentNorms() = default;
  static Result<DocumentNorms> Create(const DocumentCollection& collection,
                                      const IdfWeights& idf,
                                      const SimilarityConfig& config);

  double of(DocId doc) const {
    return norms_.empty() ? 1.0 : norms_[doc];
  }

  // Adds the norm of the next document id (collection views extend the
  // base collection's norms with their delta documents').
  void Append(double norm) { norms_.push_back(norm); }

 private:
  std::vector<double> norms_;
};

// Everything an executor needs to turn accumulated products into final
// scores. Built once per join, before I/O metering starts; all its lookups
// are unmetered in-memory work.
//
// All three executors accumulate per-pair contributions in ascending term
// order (documents and inverted files are term-sorted), so floating-point
// results are bit-identical across HHNL, HVNL and VVM.
struct SimilarityContext {
  SimilarityConfig config;
  IdfWeights idf;
  DocumentNorms inner_norms;
  DocumentNorms outer_norms;
  // What `idf` borrows when nothing else owns it: the live df map of views
  // with a delta or deletions, under idf (dynamic/delta_join.h). Usually
  // null.
  std::shared_ptr<const void> owned;

  // `inner` is C1, `outer` is C2.
  static Result<SimilarityContext> Create(const DocumentCollection& inner,
                                          const DocumentCollection& outer,
                                          const SimilarityConfig& config);

  // Multiplier applied to u_t * v_t when accumulating term t.
  double TermFactor(TermId term) const { return idf.Squared(term); }

  // Final score of an accumulated pair value.
  double Finalize(double acc, DocId inner_doc, DocId outer_doc) const {
    if (!config.cosine_normalize) return acc;
    double denom = inner_norms.of(inner_doc) * outer_norms.of(outer_doc);
    return denom > 0 ? acc / denom : 0.0;
  }
};

// Generalized dot product of two documents under `ctx`'s term weighting
// (contributions accumulated in ascending term order; O(|d1| + |d2|)).
// Cosine normalization is NOT applied here — call ctx.Finalize.
double WeightedDot(const Document& d1, const Document& d2,
                   const SimilarityContext& ctx);

}  // namespace textjoin

#endif  // TEXTJOIN_JOIN_SIMILARITY_H_
