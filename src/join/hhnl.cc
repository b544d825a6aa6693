#include "join/hhnl.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "join/batch_index.h"
#include "obs/query_stats.h"

namespace textjoin {

int64_t HhnlJoin::BatchSize(const JoinContext& ctx, const JoinSpec& spec) {
  // Under a governor memory budget the batch is sized from the capped
  // buffer: a smaller X, more outer batches, identical results.
  return static_cast<int64_t>(HhnlBatchSize(MeasuredMemory(ctx, spec)));
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
      std::vector<const Document*> resident;
      for (const Document& d : batch) resident.push_back(&d);
      index.Build(resident, cpu);
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
  const MemoryInputs mem = MeasuredMemory(ctx, spec);
  if (mem.S1 <= 0.0) {
    return Status::InvalidArgument("backward HHNL: empty inner documents");
  }
  const int64_t X = static_cast<int64_t>(HhnlBackwardBatchSize(mem));
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
      std::vector<const Document*> resident;
      for (const Document& d : batch) resident.push_back(&d);
      index.Build(resident, cpu);
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
