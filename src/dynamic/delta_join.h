#ifndef TEXTJOIN_DYNAMIC_DELTA_JOIN_H_
#define TEXTJOIN_DYNAMIC_DELTA_JOIN_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "dynamic/dynamic_collection.h"
#include "join/executor.h"
#include "planner/planner.h"

namespace textjoin {

// One collection as every join and serving path sees it: the durable base
// (collection + index), a liveness mask over its dense DocIds, the
// in-memory delta documents, and this side's live document-frequency
// statistics. A static collection is the view with no delta and no
// deletes; it borrows the collection's own df map.
//
// A view made from a DynamicCollection by MakeJoinSide borrows the
// collection's state and is valid until its next mutation; FrozenJoinSide
// copies that state instead, so the view stays valid (and unchanged) across
// later writes and compactions.
struct DynamicJoinSide {
  const DocumentCollection* base = nullptr;
  const InvertedFile* index = nullptr;       // may be null
  const std::vector<char>* alive = nullptr;  // null = every base doc live
  std::vector<const Document*> delta;        // alive delta, insertion order
  const std::unordered_map<TermId, int64_t>* df = nullptr;  // live df
  int64_t num_live = 0;                      // live documents, base + delta
  // What the pointers above point into when the view owns it (its df map,
  // and for a frozen view the pinned generation and copied delta).
  std::shared_ptr<const void> owned;

  // No delta and no deletions: the executor's rows are the answer.
  bool clean() const { return alive == nullptr && delta.empty(); }
  bool live(DocId base_doc) const {
    return alive == nullptr || (*alive)[base_doc] != 0;
  }
};

DynamicJoinSide MakeJoinSide(const DynamicCollection& dc);
DynamicJoinSide FrozenJoinSide(const DynamicCollection& dc);
DynamicJoinSide MakeJoinSide(const DocumentCollection& base,
                             const InvertedFile* index);

// The similarity of a join between two views: idf over the MERGED live
// statistics (N and df of both sides together; the df maps are folded into
// one when a side is dynamic), and cosine norms per side — base documents
// through DocumentNorms::Create, delta documents through WeightedNorm, the
// identical per-cell expression. For two static views this is exactly
// SimilarityContext::Create of their collections. With `outer` null the
// statistics are `inner`'s alone and only inner_norms is filled: the
// context a serving query is scored under.
Result<SimilarityContext> ViewSimilarity(const DynamicJoinSide& inner,
                                         const DynamicJoinSide* outer,
                                         const SimilarityConfig& config);

// The executor context over the views' base collections.
JoinContext ViewContext(const DynamicJoinSide& inner,
                        const DynamicJoinSide& outer,
                        const SimilarityContext* similarity,
                        const SystemParams& sys);

// Joins two views under `ctx` (from ViewContext; its similarity must come
// from ViewSimilarity of the same views) with results bit-identical to
// rebuilding each side from its live documents and running the chosen
// executor:
//
//   * When both views are clean the executor's rows are returned as they
//     are, so a static join is the planner's static join.
//   * Otherwise base x base pairs run through the UNMODIFIED executor
//     (liveness becomes a subset), so their accumulation order — and
//     therefore every floating-point sum — is the static path's.
//   * Delta contributions accumulate in the same ascending-term order and
//     are folded per outer row by re-running top-lambda selection
//     (top-k(top-k(A) u B) = top-k(A u B), with BetterMatch ties preserved
//     because merged ids are order-isomorphic to a rebuild's dense ids).
//
// Merged doc ids: base ids stay; the j-th alive delta doc of a side is
// base.num_documents() + j. A side with a delta or deletions must have an
// empty spec subset (selection pushdown composes with liveness
// ambiguously; rejected as InvalidArgument); a clean side's subset narrows
// its participating documents as usual. When `force` is non-null that
// algorithm runs; otherwise the planner picks over the base collections.
// `chosen` (optional) reports the base plan.
Result<JoinResult> JoinViews(const DynamicJoinSide& inner,
                             const DynamicJoinSide& outer,
                             const JoinContext& ctx, const JoinSpec& spec,
                             PlanChoice* chosen,
                             const Algorithm* force = nullptr);

// ViewSimilarity + ViewContext + JoinViews in one call.
Result<JoinResult> DynamicJoin(const DynamicJoinSide& inner,
                               const DynamicJoinSide& outer,
                               const JoinSpec& spec, const SystemParams& sys,
                               QueryGovernor* governor, PlanChoice* chosen,
                               const Algorithm* force = nullptr);

}  // namespace textjoin

#endif  // TEXTJOIN_DYNAMIC_DELTA_JOIN_H_
