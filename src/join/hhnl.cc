#include "join/hhnl.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "join/pruning.h"
#include "kernel/aligned.h"
#include "kernel/dispatch.h"
#include "obs/query_stats.h"

namespace textjoin {

namespace {

// Per-side pruning state of the HHNL pair loops. Bound profiles come from
// the catalog when idf weighting is off (no cell scan) and from one pass
// over the cells otherwise.
struct PairPruner {
  explicit PairPruner(const JoinSpec& spec, const SimilarityContext& sim)
      : prune(spec.prune), sim(sim) {}

  bool prune;
  const SimilarityContext& sim;

  // Bound-tightness telemetry: mean score/bound ratio of evaluated pairs.
  double tightness_sum = 0;
  int64_t tightness_n = 0;

  DocBounds Bounds(const DocumentCollection& collection, DocId doc,
                   const Document& d, const DocumentNorms& norms) const {
    const double n = sim.config.cosine_normalize ? norms.of(doc) : 1.0;
    return sim.config.use_idf ? ComputeDocBounds(d, sim, n)
                              : CatalogDocBounds(collection, doc, n);
  }

  void ReportTightness(QueryStatsCollector* stats) const {
    if (stats == nullptr || tightness_n == 0) return;
    stats->SetCounter(
        "bound_tightness_pct",
        static_cast<int64_t>(std::lround(
            100.0 * tightness_sum / static_cast<double>(tightness_n))));
  }

  // Batched PairUpperBound of one fixed document against the resident
  // batch, through the dispatched kernel. `fixed_is_a` says which argument
  // position the fixed document holds in PairUpperBound (the trailing
  // inv-norm multiplies associate left), so the batched bounds are
  // bit-identical to the per-pair calls they replace.
  void BatchPairBounds(const DocBounds& fixed,
                       const std::vector<DocBounds>& cands, bool fixed_is_a,
                       kernel::DoubleBuffer* out) const {
    static_assert(sizeof(DocBounds) == 4 * sizeof(double),
                  "pair_bounds kernel assumes DocBounds is 4 packed doubles");
    if (cands.empty()) return;
    out->resize(cands.size());
    kernel::Active().pair_bounds(
        reinterpret_cast<const double*>(cands.data()),
        static_cast<int64_t>(cands.size()), fixed.max_w, fixed.sum_w,
        fixed.norm_w, fixed.inv_norm, fixed_is_a, out->data());
  }

  // The paper's pair evaluation: one full linear merge, offered to `heap`
  // when the score is non-zero. `inner_doc` is the candidate identity (C1
  // side) for tie-breaking.
  void Evaluate(const Document& d1, const Document& d2, DocId inner_doc,
                DocId outer_doc, TopKAccumulator* heap, CpuStats* cpu) {
    double acc;
    if (cpu != nullptr) {
      DotDetail d = WeightedDotKernel(d1, d2, sim, MergeKernel::kLinear);
      cpu->cell_compares += d.merge_steps;
      cpu->accumulations += d.common_terms;
      acc = d.acc;
    } else {
      acc = WeightedDot(d1, d2, sim);
    }
    Offer(acc, /*pair_ub=*/0, inner_doc, outer_doc, heap, cpu);
  }

  // Evaluate with the pruning layers: the batched bound `pair_ub` may skip
  // the pair outright, and the adaptive, block-summary galloping merge may
  // stop early once the pair provably cannot qualify.
  void EvaluatePruned(const Document& d1, const Document& d2,
                      const DocBounds& b1, const DocBounds& b2,
                      const SuffixBounds& s1, const SuffixBounds& s2,
                      const DocBlockIndex& k1, const DocBlockIndex& k2,
                      double pair_ub, DocId inner_doc, DocId outer_doc,
                      TopKAccumulator* heap, CpuStats* cpu) {
    if (cpu != nullptr) ++cpu->bound_checks;
    if (heap->CannotQualify(inner_doc, pair_ub * kBoundSlack)) {
      if (cpu != nullptr) ++cpu->pairs_pruned;
      return;
    }
    PrunedDotResult r = WeightedDotPruned(
        d1, d2, sim, s1, s2, b1.inv_norm * b2.inv_norm, inner_doc, *heap,
        MergeKernel::kAdaptive, &k1, &k2);
    if (cpu != nullptr) {
      cpu->cell_compares += r.detail.merge_steps;
      cpu->accumulations += r.detail.common_terms;
      cpu->bound_checks += r.bound_checks;
      cpu->blocks_skipped += r.detail.blocks_skipped;
    }
    if (r.pruned) {
      if (cpu != nullptr) ++cpu->early_exits;
      return;
    }
    Offer(r.detail.acc, pair_ub, inner_doc, outer_doc, heap, cpu);
  }

 private:
  void Offer(double acc, double pair_ub, DocId inner_doc, DocId outer_doc,
             TopKAccumulator* heap, CpuStats* cpu) {
    if (acc <= 0) return;
    if (cpu != nullptr) ++cpu->heap_offers;
    const double score = sim.Finalize(acc, inner_doc, outer_doc);
    if (pair_ub > 0) {
      tightness_sum += score / pair_ub;
      ++tightness_n;
    }
    heap->Add(inner_doc, score);
  }
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
  QueryStatsCollector* stats = ctx.stats;
  CpuStats* cpu = stats != nullptr ? stats->cpu() : nullptr;
  if (stats != nullptr) {
    stats->SetRootLabel("HHNL");
    stats->SetCounter("batch_size_X", X);
  }
  PairPruner pruner(spec, *ctx.similarity);

  JoinResult result;
  result.reserve(participating.size());

  // Sequential outer scan state (only used when no subset is given). The
  // scanner persists across batches so the outer collection is read once.
  auto outer_scan = ctx.outer->Scan();

  size_t pos = 0;
  while (pos < participating.size()) {
    TEXTJOIN_RETURN_IF_ERROR(GovernorCheckpoint(ctx, "HHNL outer batch"));
    const size_t batch_size =
        std::min<size_t>(static_cast<size_t>(X), participating.size() - pos);
    // Bring the next batch of outer documents into memory.
    std::vector<DocId> batch_docs(participating.begin() + pos,
                                  participating.begin() + pos + batch_size);
    std::vector<Document> batch;
    batch.reserve(batch_size);
    {
      PhaseScope read_outer(stats, phase::kReadOuter);
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
    }
    pos += batch_size;
    if (stats != nullptr) stats->AddCounter("outer_batches", 1);

    // Bound profiles of the resident batch (outer side).
    std::vector<DocBounds> batch_bounds;
    std::vector<SuffixBounds> batch_suffix;
    std::vector<DocBlockIndex> batch_blocks;
    if (pruner.prune) {
      batch_bounds.resize(batch_size);
      batch_suffix.resize(batch_size);
      batch_blocks.resize(batch_size);
      for (size_t i = 0; i < batch_size; ++i) {
        batch_bounds[i] = pruner.Bounds(*ctx.outer, batch_docs[i], batch[i],
                                        ctx.similarity->outer_norms);
        batch_suffix[i].Build(batch[i], *ctx.similarity);
        batch_blocks[i].Build(batch[i]);
      }
    }

    std::vector<TopKAccumulator> heaps(batch_size,
                                       TopKAccumulator(spec.lambda));
    // Pass over the (participating) inner documents for this batch.
    PhaseScope scan_inner(stats, phase::kScanInner);
    DocBounds b1;
    SuffixBounds s1;
    DocBlockIndex k1;
    kernel::DoubleBuffer pair_ubs;  // batched bounds, one per resident doc
    TEXTJOIN_RETURN_IF_ERROR(ForEachInnerDoc(
        ctx, spec, [&](DocId inner_doc, const Document& d1) {
          if (pruner.prune) {
            b1 = pruner.Bounds(*ctx.inner, inner_doc, d1,
                               ctx.similarity->inner_norms);
            s1.Build(d1, *ctx.similarity);
            k1.Build(d1);
            // One kernel call bounds the inner document against the whole
            // resident batch (the inner document is PairUpperBound's first
            // argument here).
            pruner.BatchPairBounds(b1, batch_bounds, /*fixed_is_a=*/true,
                                   &pair_ubs);
          }
          for (size_t i = 0; i < batch_size; ++i) {
            if (pruner.prune) {
              pruner.EvaluatePruned(d1, batch[i], b1, batch_bounds[i], s1,
                                    batch_suffix[i], k1, batch_blocks[i],
                                    pair_ubs[i], inner_doc, batch_docs[i],
                                    &heaps[i], cpu);
            } else {
              pruner.Evaluate(d1, batch[i], inner_doc, batch_docs[i],
                              &heaps[i], cpu);
            }
          }
        }));
    for (size_t i = 0; i < batch_size; ++i) {
      result.push_back(OuterMatches{batch_docs[i], heaps[i].TakeSorted()});
    }
  }
  pruner.ReportTightness(stats);
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
  QueryStatsCollector* stats = ctx.stats;
  CpuStats* cpu = stats != nullptr ? stats->cpu() : nullptr;
  if (stats != nullptr) {
    stats->SetRootLabel("HHNL backward");
    stats->SetCounter("batch_size_X", X);
  }
  PairPruner pruner(spec, *ctx.similarity);

  // One heap per participating outer document, alive for the whole run.
  std::vector<TopKAccumulator> heaps(participating.size(),
                                     TopKAccumulator(spec.lambda));

  const std::vector<char> inner_member = InnerMembership(ctx, spec);
  auto inner_scan = ctx.inner->Scan();
  while (!inner_scan.Done()) {
    TEXTJOIN_RETURN_IF_ERROR(GovernorCheckpoint(ctx, "HHNL inner batch"));
    // Load the next batch of (participating) inner documents.
    std::vector<DocId> batch_docs;
    std::vector<Document> batch;
    {
      PhaseScope read_inner(stats, phase::kReadInnerBatch);
      while (!inner_scan.Done() &&
             static_cast<int64_t>(batch.size()) < X) {
        DocId doc = inner_scan.next_doc();
        TEXTJOIN_ASSIGN_OR_RETURN(Document d, inner_scan.Next());
        if (!inner_member.empty() && !inner_member[doc]) continue;
        batch_docs.push_back(doc);
        batch.push_back(std::move(d));
      }
    }
    if (batch.empty()) continue;
    if (stats != nullptr) stats->AddCounter("inner_batches", 1);

    // Bound profiles of the resident batch (inner side).
    std::vector<DocBounds> batch_bounds;
    std::vector<SuffixBounds> batch_suffix;
    std::vector<DocBlockIndex> batch_blocks;
    if (pruner.prune) {
      batch_bounds.resize(batch.size());
      batch_suffix.resize(batch.size());
      batch_blocks.resize(batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        batch_bounds[i] = pruner.Bounds(*ctx.inner, batch_docs[i], batch[i],
                                        ctx.similarity->inner_norms);
        batch_suffix[i].Build(batch[i], *ctx.similarity);
        batch_blocks[i].Build(batch[i]);
      }
    }

    // Pass over the outer documents.
    PhaseScope rescan(stats, phase::kRescanOuter);
    auto outer_scan = ctx.outer->Scan();
    DocBounds b2;
    SuffixBounds s2;
    DocBlockIndex k2;
    kernel::DoubleBuffer pair_ubs;  // batched bounds, one per resident doc
    for (size_t oi = 0; oi < participating.size(); ++oi) {
      DocId outer_doc = participating[oi];
      Document d2;
      if (random_outer) {
        TEXTJOIN_ASSIGN_OR_RETURN(d2, ctx.outer->ReadDocument(outer_doc));
      } else {
        TEXTJOIN_CHECK_EQ(outer_scan.next_doc(), outer_doc);
        TEXTJOIN_ASSIGN_OR_RETURN(d2, outer_scan.Next());
      }
      if (pruner.prune) {
        b2 = pruner.Bounds(*ctx.outer, outer_doc, d2,
                           ctx.similarity->outer_norms);
        s2.Build(d2, *ctx.similarity);
        k2.Build(d2);
        // One kernel call bounds the outer document against the resident
        // inner batch (the outer document is PairUpperBound's second
        // argument here, hence fixed_is_a = false).
        pruner.BatchPairBounds(b2, batch_bounds, /*fixed_is_a=*/false,
                               &pair_ubs);
      }
      for (size_t i = 0; i < batch.size(); ++i) {
        if (pruner.prune) {
          pruner.EvaluatePruned(batch[i], d2, batch_bounds[i], b2,
                                batch_suffix[i], s2, batch_blocks[i], k2,
                                pair_ubs[i], batch_docs[i], outer_doc,
                                &heaps[oi], cpu);
        } else {
          pruner.Evaluate(batch[i], d2, batch_docs[i], outer_doc, &heaps[oi],
                          cpu);
        }
      }
    }
  }

  JoinResult result;
  result.reserve(participating.size());
  for (size_t oi = 0; oi < participating.size(); ++oi) {
    result.push_back(OuterMatches{participating[oi], heaps[oi].TakeSorted()});
  }
  pruner.ReportTightness(stats);
  return result;
}

}  // namespace textjoin
