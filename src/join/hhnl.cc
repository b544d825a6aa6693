#include "join/hhnl.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "obs/query_stats.h"

namespace textjoin {

namespace {

// Term-at-a-time index of one resident HHNL batch: for each term, the
// (slot, weight) cells of the resident documents holding it, in slot order.
// A streamed document walks its cells in ascending term order and adds
// each product into a dense per-slot accumulator, so every pair sums the
// same products in the same order as WeightedDot — bit-identical scores.
class BatchIndex {
 public:
  // Indexes `docs`; docs[i] becomes slot i. The caller may drop the
  // documents afterwards. Each indexed cell counts as one cell compare.
  void Build(const std::vector<Document>& docs, CpuStats* cpu) {
    TermId max_term = 0;
    size_t total = 0;
    for (const Document& d : docs) {
      if (!d.empty()) max_term = std::max(max_term, d.cells().back().term);
      total += d.cells().size();
    }
    TEXTJOIN_CHECK_LT(total, size_t{UINT32_MAX});
    // Counting sort by term: start_[t] becomes the first cell of term t and
    // start_[t + 1] its end.
    start_.assign(static_cast<size_t>(max_term) + 2, 0);
    for (const Document& d : docs) {
      for (const DCell& c : d.cells()) ++start_[c.term + 1];
    }
    for (size_t t = 1; t < start_.size(); ++t) start_[t] += start_[t - 1];
    cells_.resize(total);
    for (size_t slot = 0; slot < docs.size(); ++slot) {
      for (const DCell& c : docs[slot].cells()) {
        cells_[start_[c.term]++] = Cell{static_cast<uint32_t>(slot), c.weight};
      }
    }
    // Placing advanced each start_[t] to term t's end, which is term
    // t + 1's start: shift the directory back by one.
    std::copy_backward(start_.begin(), start_.end() - 1, start_.end());
    start_[0] = 0;
    acc_.assign(docs.size(), 0.0);
    if (cpu != nullptr) cpu->cell_compares += static_cast<int64_t>(total);
  }

  // Scores the streamed document `doc` against every resident document and
  // calls emit(slot, sum) for each slot whose accumulated sum is above 0,
  // in ascending slot order. Each of doc's cells counts as one compare.
  template <typename Emit>
  void Probe(const Document& doc, const SimilarityContext& sim, CpuStats* cpu,
             Emit&& emit) {
    int64_t adds = 0;
    for (const DCell& c : doc.cells()) {
      // Terms are ascending, so past the batch's largest term, stop.
      if (c.term + size_t{1} >= start_.size()) break;
      const uint32_t lo = start_[c.term];
      const uint32_t hi = start_[c.term + 1];
      if (lo == hi) continue;
      const double w = static_cast<double>(c.weight);
      const double factor = sim.TermFactor(c.term);
      for (uint32_t k = lo; k < hi; ++k) {
        const Cell& r = cells_[k];
        acc_[r.slot] += w * static_cast<double>(r.weight) * factor;
      }
      adds += hi - lo;
    }
    const int64_t offers = DrainPositive(acc_, emit);
    if (cpu != nullptr) {
      cpu->cell_compares += doc.num_terms();
      cpu->accumulations += adds;
      cpu->heap_offers += offers;
    }
  }

 private:
  struct Cell {
    uint32_t slot;
    Weight weight;
  };
  static_assert(sizeof(Cell) <= sizeof(DCell),
                "an indexed cell must take no more memory than a d-cell");

  std::vector<uint32_t> start_;  // dense term directory, max term + 2
  std::vector<Cell> cells_;      // grouped by term, slot order within
  std::vector<double> acc_;      // per-slot sums of the streamed document
};

}  // namespace

int64_t HhnlJoin::BatchSize(const JoinContext& ctx, const JoinSpec& spec) {
  const double P = static_cast<double>(ctx.sys.page_size);
  // Under a governor memory budget the batch is sized from the capped
  // buffer: a smaller X, more outer batches, identical results.
  const double B = static_cast<double>(EffectiveBufferPages(ctx));
  const double s1 = std::ceil(ctx.inner->avg_doc_size_pages());
  const double s2 = ctx.outer->avg_doc_size_pages();
  const double denom = s2 + 4.0 * static_cast<double>(spec.lambda) / P;
  if (denom <= 0.0) return 0;
  return static_cast<int64_t>(std::floor((B - s1) / denom + 1e-9));
}

Result<JoinResult> HhnlJoin::Run(const JoinContext& ctx,
                                 const JoinSpec& spec) {
  TEXTJOIN_RETURN_IF_ERROR(ValidateJoinInputs(ctx, spec));
  return options_.backward ? RunBackward(ctx, spec) : RunForward(ctx, spec);
}

Result<JoinResult> HhnlJoin::RunForward(const JoinContext& ctx,
                                        const JoinSpec& spec) {
  const int64_t X = BatchSize(ctx, spec);
  if (X < 1) {
    return Status::ResourceExhausted(
        "HHNL: buffer cannot hold one outer and one inner document");
  }
  const std::vector<DocId> participating = ParticipatingOuterDocs(ctx, spec);
  const bool random_outer = !spec.outer_subset.empty();
  const SimilarityContext& sim = *ctx.similarity;
  QueryStatsCollector* stats = ctx.stats;
  CpuStats* cpu = stats != nullptr ? stats->cpu() : nullptr;
  if (stats != nullptr) {
    stats->SetRootLabel("HHNL");
    stats->SetCounter("batch_size_X", X);
  }

  JoinResult result;
  result.reserve(participating.size());

  // Sequential outer scan state (only used when no subset is given). The
  // scanner persists across batches so the outer collection is read once.
  auto outer_scan = ctx.outer->Scan();

  BatchIndex index;
  size_t pos = 0;
  while (pos < participating.size()) {
    TEXTJOIN_RETURN_IF_ERROR(GovernorCheckpoint(ctx, "HHNL outer batch"));
    const size_t batch_size =
        std::min<size_t>(static_cast<size_t>(X), participating.size() - pos);
    // Bring the next batch of outer documents into memory and index it.
    std::vector<DocId> batch_docs(participating.begin() + pos,
                                  participating.begin() + pos + batch_size);
    {
      PhaseScope read_outer(stats, phase::kReadOuter);
      std::vector<Document> batch;
      batch.reserve(batch_size);
      for (DocId d : batch_docs) {
        if (random_outer) {
          TEXTJOIN_ASSIGN_OR_RETURN(Document doc, ctx.outer->ReadDocument(d));
          batch.push_back(std::move(doc));
        } else {
          TEXTJOIN_CHECK_EQ(outer_scan.next_doc(), d);
          TEXTJOIN_ASSIGN_OR_RETURN(Document doc, outer_scan.Next());
          batch.push_back(std::move(doc));
        }
      }
      index.Build(batch, cpu);
    }
    pos += batch_size;
    if (stats != nullptr) stats->AddCounter("outer_batches", 1);

    std::vector<TopKAccumulator> heaps(batch_size,
                                       TopKAccumulator(spec.lambda));
    // Pass over the (participating) inner documents for this batch.
    PhaseScope scan_inner(stats, phase::kScanInner);
    TEXTJOIN_RETURN_IF_ERROR(ForEachInnerDoc(
        ctx, spec, [&](DocId inner_doc, const Document& d1) {
          index.Probe(d1, sim, cpu, [&](size_t slot, double sum) {
            heaps[slot].Add(inner_doc,
                            sim.Finalize(sum, inner_doc, batch_docs[slot]));
          });
        }));
    for (size_t i = 0; i < batch_size; ++i) {
      result.push_back(OuterMatches{batch_docs[i], heaps[i].TakeSorted()});
    }
  }
  return result;
}

Result<JoinResult> HhnlJoin::RunBackward(const JoinContext& ctx,
                                         const JoinSpec& spec) {
  const std::vector<DocId> participating = ParticipatingOuterDocs(ctx, spec);
  const bool random_outer = !spec.outer_subset.empty();
  const double P = static_cast<double>(ctx.sys.page_size);
  const double B = static_cast<double>(EffectiveBufferPages(ctx));
  const double s1 = ctx.inner->avg_doc_size_pages();
  const double s2 = std::ceil(ctx.outer->avg_doc_size_pages());
  const double heap_pages = 4.0 * static_cast<double>(spec.lambda) *
                            static_cast<double>(participating.size()) / P;
  if (s1 <= 0.0) {
    return Status::InvalidArgument("backward HHNL: empty inner documents");
  }
  const int64_t X =
      static_cast<int64_t>(std::floor((B - s2 - heap_pages) / s1 + 1e-9));
  if (X < 1) {
    return Status::ResourceExhausted(
        "HHNL backward: buffer cannot hold intermediate heaps plus one "
        "document of each collection");
  }
  const SimilarityContext& sim = *ctx.similarity;
  QueryStatsCollector* stats = ctx.stats;
  CpuStats* cpu = stats != nullptr ? stats->cpu() : nullptr;
  if (stats != nullptr) {
    stats->SetRootLabel("HHNL backward");
    stats->SetCounter("batch_size_X", X);
  }

  // One heap per participating outer document, alive for the whole run.
  std::vector<TopKAccumulator> heaps(participating.size(),
                                     TopKAccumulator(spec.lambda));

  const std::vector<char> inner_member = InnerMembership(ctx, spec);
  auto inner_scan = ctx.inner->Scan();
  BatchIndex index;
  while (!inner_scan.Done()) {
    TEXTJOIN_RETURN_IF_ERROR(GovernorCheckpoint(ctx, "HHNL inner batch"));
    // Load and index the next batch of (participating) inner documents.
    std::vector<DocId> batch_docs;
    {
      PhaseScope read_inner(stats, phase::kReadInnerBatch);
      std::vector<Document> batch;
      while (!inner_scan.Done() &&
             static_cast<int64_t>(batch.size()) < X) {
        DocId doc = inner_scan.next_doc();
        TEXTJOIN_ASSIGN_OR_RETURN(Document d, inner_scan.Next());
        if (!inner_member.empty() && !inner_member[doc]) continue;
        batch_docs.push_back(doc);
        batch.push_back(std::move(d));
      }
      index.Build(batch, cpu);
    }
    if (batch_docs.empty()) continue;
    if (stats != nullptr) stats->AddCounter("inner_batches", 1);

    // Pass over the outer documents.
    PhaseScope rescan(stats, phase::kRescanOuter);
    auto outer_scan = ctx.outer->Scan();
    for (size_t oi = 0; oi < participating.size(); ++oi) {
      DocId outer_doc = participating[oi];
      Document d2;
      if (random_outer) {
        TEXTJOIN_ASSIGN_OR_RETURN(d2, ctx.outer->ReadDocument(outer_doc));
      } else {
        TEXTJOIN_CHECK_EQ(outer_scan.next_doc(), outer_doc);
        TEXTJOIN_ASSIGN_OR_RETURN(d2, outer_scan.Next());
      }
      index.Probe(d2, sim, cpu, [&](size_t slot, double sum) {
        const DocId inner_doc = batch_docs[slot];
        heaps[oi].Add(inner_doc, sim.Finalize(sum, inner_doc, outer_doc));
      });
    }
  }

  JoinResult result;
  result.reserve(participating.size());
  for (size_t oi = 0; oi < participating.size(); ++oi) {
    result.push_back(OuterMatches{participating[oi], heaps[oi].TakeSorted()});
  }
  return result;
}

}  // namespace textjoin
