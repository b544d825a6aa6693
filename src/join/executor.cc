#include "join/executor.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "exec/governor.h"
#include "join/hhnl.h"
#include "join/hvnl.h"
#include "join/vvm.h"

namespace textjoin {

Result<JoinResult> RunAlgorithm(Algorithm algorithm, bool hhnl_backward,
                                const JoinContext& ctx, const JoinSpec& spec) {
  switch (algorithm) {
    case Algorithm::kHhnl:
      return HhnlJoin(HhnlJoin::Options{hhnl_backward}).Run(ctx, spec);
    case Algorithm::kHvnl:
      return HvnlJoin().Run(ctx, spec);
    case Algorithm::kVvm:
      return VvmJoin().Run(ctx, spec);
  }
  return Status::InvalidArgument("unknown algorithm");
}

int64_t EffectiveBufferPages(const JoinContext& ctx) {
  if (ctx.governor == nullptr) return ctx.sys.buffer_pages;
  return ctx.governor->CapBufferPages(ctx.sys.buffer_pages);
}

MemoryInputs MeasuredMemory(const JoinContext& ctx, const JoinSpec& spec) {
  MemoryInputs mem;
  mem.B = static_cast<double>(EffectiveBufferPages(ctx));
  mem.P = static_cast<double>(ctx.sys.page_size);
  mem.lambda = static_cast<double>(spec.lambda);
  mem.delta = spec.delta;
  mem.N1 = static_cast<double>(ctx.inner->num_documents());
  mem.m = spec.outer_subset.empty()
              ? static_cast<double>(ctx.outer->num_documents())
              : static_cast<double>(spec.outer_subset.size());
  mem.S1 = ctx.inner->avg_doc_size_pages();
  mem.S2 = ctx.outer->avg_doc_size_pages();
  if (ctx.inner_index != nullptr) {
    mem.J1 = ctx.inner_index->avg_entry_size_pages();
    mem.Bt1 = static_cast<double>(ctx.inner_index->btree().size_in_pages());
  }
  if (ctx.outer_index != nullptr) {
    mem.J2 = ctx.outer_index->avg_entry_size_pages();
  }
  return mem;
}

Status GovernorCheckpoint(const JoinContext& ctx, const char* where) {
  if (ctx.governor == nullptr) return Status::OK();
  return ctx.governor->Checkpoint(where);
}

std::vector<DocId> ParticipatingOuterDocs(const JoinContext& ctx,
                                          const JoinSpec& spec) {
  if (!spec.outer_subset.empty()) return spec.outer_subset;
  std::vector<DocId> all;
  all.reserve(static_cast<size_t>(ctx.outer->num_documents()));
  for (int64_t d = 0; d < ctx.outer->num_documents(); ++d) {
    all.push_back(static_cast<DocId>(d));
  }
  return all;
}

std::vector<char> InnerMembership(const JoinContext& ctx,
                                  const JoinSpec& spec) {
  std::vector<char> member;
  if (spec.inner_subset.empty()) return member;
  member.assign(static_cast<size_t>(ctx.inner->num_documents()), 0);
  for (DocId d : spec.inner_subset) member[d] = 1;
  return member;
}

Status ForEachInnerDoc(const JoinContext& ctx, const JoinSpec& spec,
                       const std::function<void(DocId, const Document&)>& fn) {
  if (spec.inner_subset.empty()) {
    auto scan = ctx.inner->Scan();
    while (!scan.Done()) {
      DocId doc = scan.next_doc();
      TEXTJOIN_ASSIGN_OR_RETURN(Document d, scan.Next());
      fn(doc, d);
    }
    return Status::OK();
  }
  const double m1 = static_cast<double>(spec.inner_subset.size());
  const double selective_cost =
      m1 * std::ceil(ctx.inner->avg_doc_size_pages()) * ctx.sys.alpha;
  const double scan_cost =
      static_cast<double>(ctx.inner->size_in_pages());
  if (selective_cost < scan_cost) {
    for (DocId doc : spec.inner_subset) {
      TEXTJOIN_ASSIGN_OR_RETURN(Document d, ctx.inner->ReadDocument(doc));
      fn(doc, d);
    }
    return Status::OK();
  }
  std::vector<char> member = InnerMembership(ctx, spec);
  auto scan = ctx.inner->Scan();
  while (!scan.Done()) {
    DocId doc = scan.next_doc();
    TEXTJOIN_ASSIGN_OR_RETURN(Document d, scan.Next());
    if (member[doc]) fn(doc, d);
  }
  return Status::OK();
}

Status ValidateJoinInputs(const JoinContext& ctx, const JoinSpec& spec) {
  if (ctx.inner == nullptr || ctx.outer == nullptr) {
    return Status::InvalidArgument("join context missing a collection");
  }
  if (ctx.similarity == nullptr) {
    return Status::InvalidArgument("join context missing SimilarityContext");
  }
  if (spec.lambda < 0) {
    return Status::InvalidArgument("lambda must be nonnegative");
  }
  if (spec.delta < 0.0 || spec.delta > 1.0) {
    return Status::InvalidArgument("delta must be in [0, 1]");
  }
  if (ctx.sys.page_size != ctx.inner->disk()->page_size()) {
    return Status::InvalidArgument(
        "SystemParams page size disagrees with the disk");
  }
  for (size_t i = 0; i < spec.outer_subset.size(); ++i) {
    DocId d = spec.outer_subset[i];
    if (d >= ctx.outer->num_documents()) {
      return Status::OutOfRange("outer subset document out of range");
    }
    if (i > 0 && spec.outer_subset[i - 1] >= d) {
      return Status::InvalidArgument(
          "outer subset must be strictly ascending");
    }
  }
  for (size_t i = 0; i < spec.inner_subset.size(); ++i) {
    DocId d = spec.inner_subset[i];
    if (d >= ctx.inner->num_documents()) {
      return Status::OutOfRange("inner subset document out of range");
    }
    if (i > 0 && spec.inner_subset[i - 1] >= d) {
      return Status::InvalidArgument(
          "inner subset must be strictly ascending");
    }
  }
  return Status::OK();
}

Status CheckPostingDocs(std::span<const ICell> cells, int64_t num_docs) {
  for (const ICell& c : cells) {
    if (c.doc >= num_docs) {
      return Status::DataLoss(
          "posting cell names document " + std::to_string(c.doc) +
          " of a collection of " + std::to_string(num_docs) + " documents");
    }
  }
  return Status::OK();
}

}  // namespace textjoin
