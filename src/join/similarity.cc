#include "join/similarity.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "kernel/dispatch.h"

namespace textjoin {

namespace {

// Match-list scratch of the dispatched merge kernel, reused across calls
// so the per-pair hot path stays allocation-free once warmed up. The
// kernel reports matched index pairs; a match list can never be longer
// than the shorter document.
struct MergeScratch {
  std::vector<int32_t> a, b;
  void Ensure(size_t n) {
    if (a.size() < n) {
      a.resize(n);
      b.resize(n);
    }
  }
};
thread_local MergeScratch g_merge_scratch;

}  // namespace

IdfWeights::IdfWeights(const DocumentCollection& c1,
                       const DocumentCollection& c2,
                       const SimilarityConfig& config)
    : IdfWeights(static_cast<double>(c1.num_documents() + c2.num_documents()),
                 &c1.doc_freq_map(), &c2.doc_freq_map(), config.use_idf) {}

IdfWeights::IdfWeights(double n_total, const DfMap* df1, const DfMap* df2,
                       bool enabled)
    : enabled_(enabled), n_total_(n_total), df1_(df1), df2_(df2) {}

double IdfWeights::Squared(TermId term) const {
  if (!enabled_) return 1.0;
  int64_t n = 0;
  if (auto it = df1_->find(term); it != df1_->end()) n = it->second;
  if (df2_ != nullptr) {
    if (auto it = df2_->find(term); it != df2_->end()) n += it->second;
  }
  const double df = static_cast<double>(n);
  if (df <= 0) return 0.0;
  double idf = std::log(1.0 + n_total_ / df);
  return idf * idf;
}

double WeightedNorm(const std::vector<DCell>& cells, const IdfWeights& idf) {
  double s = 0;
  for (const DCell& c : cells) {
    s += static_cast<double>(c.weight) * static_cast<double>(c.weight) *
         idf.Squared(c.term);
  }
  return std::sqrt(s);
}

Result<DocumentNorms> DocumentNorms::Create(
    const DocumentCollection& collection, const IdfWeights& idf,
    const SimilarityConfig& config) {
  DocumentNorms norms;
  if (!config.cosine_normalize) return norms;
  norms.norms_.reserve(static_cast<size_t>(collection.num_documents()));
  if (!config.use_idf) {
    // Raw norms are precomputed in the collection catalog.
    for (int64_t d = 0; d < collection.num_documents(); ++d) {
      norms.norms_.push_back(collection.raw_norm(static_cast<DocId>(d)));
    }
    return norms;
  }
  // Idf-weighted norms need the document vectors: one setup scan.
  auto scanner = collection.Scan();
  while (!scanner.Done()) {
    TEXTJOIN_ASSIGN_OR_RETURN(Document doc, scanner.Next());
    norms.norms_.push_back(WeightedNorm(doc.cells(), idf));
  }
  return norms;
}

Result<SimilarityContext> SimilarityContext::Create(
    const DocumentCollection& inner, const DocumentCollection& outer,
    const SimilarityConfig& config) {
  SimilarityContext ctx;
  ctx.config = config;
  ctx.idf = IdfWeights(inner, outer, config);
  TEXTJOIN_ASSIGN_OR_RETURN(ctx.inner_norms,
                            DocumentNorms::Create(inner, ctx.idf, config));
  TEXTJOIN_ASSIGN_OR_RETURN(ctx.outer_norms,
                            DocumentNorms::Create(outer, ctx.idf, config));
  return ctx;
}

double WeightedDot(const Document& d1, const Document& d2,
                   const SimilarityContext& ctx) {
  // The dispatched merge kernel finds the common terms; the contributions
  // are then accumulated sequentially in ascending term order — the same
  // products in the same order as the scalar two-pointer walk, so the
  // result is bit-identical at every dispatch level.
  const auto& a = d1.cells();
  const auto& b = d2.cells();
  const int64_t na = static_cast<int64_t>(a.size());
  const int64_t nb = static_cast<int64_t>(b.size());
  MergeScratch& scratch = g_merge_scratch;
  scratch.Ensure(static_cast<size_t>(std::min(na, nb)));
  kernel::MergeCursor cur;
  int64_t nm = 0;
  kernel::Active().merge_linear(a.data(), na, b.data(), nb, &cur,
                                std::numeric_limits<int64_t>::max(),
                                scratch.a.data(), scratch.b.data(), &nm);
  double acc = 0;
  for (int64_t k = 0; k < nm; ++k) {
    const DCell& ca = a[static_cast<size_t>(scratch.a[k])];
    const DCell& cb = b[static_cast<size_t>(scratch.b[k])];
    acc += static_cast<double>(ca.weight) * static_cast<double>(cb.weight) *
           ctx.TermFactor(ca.term);
  }
  return acc;
}

}  // namespace textjoin
