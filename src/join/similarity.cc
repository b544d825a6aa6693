#include "join/similarity.h"

#include <cmath>
#include <vector>

namespace textjoin {

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
  // The paper's two-pointer merge on term number, contributions summed in
  // ascending term order. It stays plain scalar code: vectorized run
  // skipping lost to this predictable walk in measurement (DESIGN.md
  // section 13).
  const auto& a = d1.cells();
  const auto& b = d2.cells();
  double acc = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].term < b[j].term) {
      ++i;
    } else if (a[i].term > b[j].term) {
      ++j;
    } else {
      acc += static_cast<double>(a[i].weight) *
             static_cast<double>(b[j].weight) * ctx.TermFactor(a[i].term);
      ++i;
      ++j;
    }
  }
  return acc;
}

}  // namespace textjoin
