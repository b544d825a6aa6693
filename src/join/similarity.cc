#include "join/similarity.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "index/inverted_file.h"
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

DotDetail WeightedDotDetailed(const Document& d1, const Document& d2,
                              const SimilarityContext& ctx) {
  const auto& a = d1.cells();
  const auto& b = d2.cells();
  DotDetail out;
  const int64_t na = static_cast<int64_t>(a.size());
  const int64_t nb = static_cast<int64_t>(b.size());
  MergeScratch& scratch = g_merge_scratch;
  scratch.Ensure(static_cast<size_t>(std::min(na, nb)));
  kernel::MergeCursor cur;
  int64_t nm = 0;
  // The kernel meters one logical step per scalar-walk iteration whatever
  // level runs, so merge_steps is the machine-independent count the
  // simulated CPU model expects.
  out.merge_steps = kernel::Active().merge_linear(
      a.data(), na, b.data(), nb, &cur, std::numeric_limits<int64_t>::max(),
      scratch.a.data(), scratch.b.data(), &nm);
  for (int64_t k = 0; k < nm; ++k) {
    const DCell& ca = a[static_cast<size_t>(scratch.a[k])];
    const DCell& cb = b[static_cast<size_t>(scratch.b[k])];
    out.acc += static_cast<double>(ca.weight) *
               static_cast<double>(cb.weight) * ctx.TermFactor(ca.term);
  }
  out.common_terms = nm;
  return out;
}

void DocBlockIndex::Build(const Document& doc) {
  const auto& cells = doc.cells();
  const size_t n = cells.size();
  const size_t stride = static_cast<size_t>(kPostingBlockCells);
  last_.clear();
  last_.reserve((n + stride - 1) / stride);
  for (size_t b = 0; b * stride < n; ++b) {
    last_.push_back(cells[std::min((b + 1) * stride, n) - 1].term);
  }
}

size_t GallopLowerBoundBlocked(const std::vector<DCell>& cells,
                               const DocBlockIndex& blocks, size_t lo,
                               TermId t, int64_t* steps,
                               int64_t* blocks_skipped) {
  const size_t n = cells.size();
  if (lo >= n || cells[lo].term >= t) return lo;
  const size_t stride = static_cast<size_t>(kPostingBlockCells);
  const auto& last = blocks.last_terms();
  const size_t b0 = lo / stride;
  // Resolve which block holds the answer with summary probes alone, then
  // binary-search the <= kPostingBlockCells cells of that single block.
  // The block bound is what beats plain galloping: the in-block search is
  // at most log2(block) probes where the unbounded doubling pays
  // ~2*log2(distance), and every block jumped over costs one probe
  // instead of being walked or bracketed cell by cell.
  ++*steps;  // block-summary probe
  size_t target = b0;
  if (last[b0] < t) {
    // Gallop over the summaries to the first block whose last term
    // reaches t — every block jumped over holds only terms < t.
    size_t span = 1;
    while (b0 + span < last.size() && last[b0 + span] < t) {
      ++*steps;
      span *= 2;
    }
    size_t left = b0 + span / 2 + 1;  // last[b0 + span/2] < t
    size_t right = std::min(b0 + span, last.size() - 1);
    while (left <= right) {
      ++*steps;
      size_t mid = left + (right - left) / 2;
      if (last[mid] < t) {
        left = mid + 1;
      } else {
        right = mid - 1;
      }
    }
    if (blocks_skipped != nullptr && left > b0 + 1) {
      *blocks_skipped += static_cast<int64_t>(left - b0 - 1);
    }
    if (left >= last.size()) return n;
    target = left;
  }
  // Binary search inside the target block: the answer is in
  // [search_lo, block_end] because last[target] >= t.
  size_t left = std::max(lo + 1, target * stride);
  size_t right = std::min(n, (target + 1) * stride) - 1;
  while (left <= right) {
    ++*steps;
    size_t mid = left + (right - left) / 2;
    if (cells[mid].term < t) {
      left = mid + 1;
    } else {
      right = mid - 1;
    }
  }
  return left;
}

size_t GallopLowerBound(const std::vector<DCell>& cells, size_t lo, TermId t,
                        int64_t* steps) {
  const size_t n = cells.size();
  if (lo >= n || cells[lo].term >= t) return lo;
  size_t span = 1;
  while (lo + span < n && cells[lo + span].term < t) {
    ++*steps;
    span *= 2;
  }
  size_t left = lo + span / 2 + 1;  // cells[lo + span/2].term < t
  size_t right = std::min(lo + span, n - 1);
  // Invariant: answer in [left, right+1).
  while (left <= right) {
    ++*steps;
    size_t mid = left + (right - left) / 2;
    if (cells[mid].term < t) {
      left = mid + 1;
    } else {
      right = mid - 1;
    }
  }
  return left;
}

namespace {

// Galloping intersection: walks the shorter document and searches each of
// its terms in the longer one. The common terms come out in the same
// ascending order as the linear walk and each contribution is the same
// (w1 * w2) * factor product (double multiplication commutes exactly), so
// the accumulated sum is bit-identical to the linear kernel's.
DotDetail GallopingDot(const Document& d1, const Document& d2,
                       const SimilarityContext& ctx,
                       const DocBlockIndex* blocks1,
                       const DocBlockIndex* blocks2) {
  const bool d1_short = d1.cells().size() <= d2.cells().size();
  const auto& s = d1_short ? d1.cells() : d2.cells();
  const auto& l = d1_short ? d2.cells() : d1.cells();
  const DocBlockIndex* lb = d1_short ? blocks2 : blocks1;
  if (lb != nullptr && lb->empty()) lb = nullptr;
  DotDetail out;
  size_t j = 0;
  for (size_t i = 0; i < s.size() && j < l.size(); ++i) {
    ++out.merge_steps;
    j = lb != nullptr
            ? GallopLowerBoundBlocked(l, *lb, j, s[i].term, &out.merge_steps,
                                      &out.blocks_skipped)
            : GallopLowerBound(l, j, s[i].term, &out.merge_steps);
    if (j >= l.size()) break;
    if (l[j].term == s[i].term) {
      out.acc += static_cast<double>(s[i].weight) *
                 static_cast<double>(l[j].weight) *
                 ctx.TermFactor(s[i].term);
      ++out.common_terms;
      ++j;
    }
  }
  return out;
}

}  // namespace

DotDetail WeightedDotKernel(const Document& d1, const Document& d2,
                            const SimilarityContext& ctx, MergeKernel kernel,
                            const DocBlockIndex* blocks1,
                            const DocBlockIndex* blocks2) {
  if (kernel == MergeKernel::kAdaptive) {
    const size_t n1 = d1.cells().size();
    const size_t n2 = d2.cells().size();
    const size_t shorter = std::min(n1, n2);
    const size_t longer = std::max(n1, n2);
    kernel = (shorter > 0 &&
              longer >= shorter * static_cast<size_t>(kGallopSizeRatio))
                 ? MergeKernel::kGalloping
                 : MergeKernel::kLinear;
  }
  return kernel == MergeKernel::kGalloping
             ? GallopingDot(d1, d2, ctx, blocks1, blocks2)
             : WeightedDotDetailed(d1, d2, ctx);
}

}  // namespace textjoin
