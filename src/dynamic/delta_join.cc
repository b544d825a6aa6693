#include "dynamic/delta_join.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "join/batch_index.h"
#include "join/topk.h"

namespace textjoin {

namespace {

bool HasLiveBase(const DynamicJoinSide& side) {
  if (side.alive == nullptr) return side.base->num_documents() > 0;
  return std::any_of(side.alive->begin(), side.alive->end(),
                     [](char a) { return a != 0; });
}

// Live base ids when some are dead; empty when all live (executor
// convention: an empty subset means "all documents").
std::vector<DocId> LiveSubset(const DynamicJoinSide& side) {
  std::vector<DocId> ids;
  if (side.alive == nullptr) return ids;
  for (size_t i = 0; i < side.alive->size(); ++i) {
    if ((*side.alive)[i]) ids.push_back(static_cast<DocId>(i));
  }
  if (static_cast<int64_t>(ids.size()) == side.base->num_documents()) {
    ids.clear();
  }
  return ids;
}

// Base norms (DocumentNorms::Create's catalog read or scan) extended with
// the delta documents' norms under the same idf.
Result<DocumentNorms> ViewNorms(const DynamicJoinSide& side,
                                const IdfWeights& idf,
                                const SimilarityConfig& config) {
  TEXTJOIN_ASSIGN_OR_RETURN(DocumentNorms norms,
                            DocumentNorms::Create(*side.base, idf, config));
  if (config.cosine_normalize) {
    for (const Document* d : side.delta) {
      norms.Append(WeightedNorm(d->cells(), idf));
    }
  }
  return norms;
}

// Calls fn(doc, document) for each live base document of `side`, in one
// sequential scan of its collection.
template <typename Fn>
Status ScanLiveBase(const DynamicJoinSide& side, Fn&& fn) {
  auto scan = side.base->Scan();
  while (!scan.Done()) {
    const DocId d = scan.next_doc();
    TEXTJOIN_ASSIGN_OR_RETURN(Document doc, scan.Next());
    if (side.live(d)) fn(d, doc);
  }
  return Status::OK();
}

Result<JoinResult> RunBase(const JoinContext& ctx, const JoinSpec& spec,
                           PlanChoice* chosen, const Algorithm* force) {
  if (force == nullptr) return JoinPlanner().Execute(ctx, spec, chosen);
  if (chosen != nullptr) chosen->algorithm = *force;
  return RunAlgorithm(*force, false, ctx, spec);
}

// Adds `side`'s live document frequencies into `df`: its base catalog's,
// minus its deleted base documents', plus one per alive delta document.
void AddLiveDf(const DynamicJoinSide& side, IdfWeights::DfMap* df) {
  for (const auto& [term, n] : side.base->doc_freq_map()) (*df)[term] += n;
  if (side.deleted_df != nullptr) {
    for (const auto& [term, n] : *side.deleted_df) (*df)[term] -= n;
  }
  for (const Document* d : side.delta) {
    for (const DCell& c : d->cells()) ++(*df)[c.term];
  }
}

// What a frozen view owns: the pinned base generation and deleted-df map,
// and copies of the collection state that later mutations change in place.
struct FrozenState {
  std::shared_ptr<const DocumentCollection> base;
  std::shared_ptr<const InvertedFile> index;
  std::shared_ptr<const IdfWeights::DfMap> deleted_df;
  std::vector<char> alive;
  std::vector<Document> delta;
};

}  // namespace

DynamicJoinSide MakeJoinSide(const DynamicCollection& dc) {
  DynamicJoinSide side;
  side.base = &dc.base();
  side.index = &dc.base_index();
  for (const DynamicCollection::DeltaDoc* d : dc.AliveDelta()) {
    side.delta.push_back(&d->doc);
  }
  side.num_live = dc.num_live_documents();
  if (side.num_live < dc.base().num_documents() +
                          static_cast<int64_t>(side.delta.size())) {
    side.alive = &dc.base_alive();
  }
  side.deleted_df = dc.deleted_df().get();
  return side;
}

DynamicJoinSide FrozenJoinSide(const DynamicCollection& dc) {
  DynamicJoinSide side = MakeJoinSide(dc);
  auto state = std::make_shared<FrozenState>();
  state->base = dc.base_shared();
  state->index = dc.index_shared();
  state->deleted_df = dc.deleted_df();
  if (side.alive != nullptr) {
    state->alive = *side.alive;
    side.alive = &state->alive;
  }
  state->delta.reserve(side.delta.size());
  for (const Document*& d : side.delta) {
    state->delta.push_back(*d);
    d = &state->delta.back();
  }
  side.owned = std::move(state);
  return side;
}

DynamicJoinSide MakeJoinSide(const DocumentCollection& base,
                             const InvertedFile* index) {
  DynamicJoinSide side;
  side.base = &base;
  side.index = index;
  side.num_live = base.num_documents();
  return side;
}

Result<SimilarityContext> ViewSimilarity(const DynamicJoinSide& inner,
                                         const DynamicJoinSide* outer,
                                         const SimilarityConfig& config) {
  SimilarityContext sim;
  sim.config = config;
  const int64_t n_total =
      inner.num_live + (outer != nullptr ? outer->num_live : 0);
  const IdfWeights::DfMap* df1 = &inner.base->doc_freq_map();
  const IdfWeights::DfMap* df2 =
      outer != nullptr ? &outer->base->doc_freq_map() : nullptr;
  if (config.use_idf && (!inner.clean() || (outer != nullptr &&
                                            !outer->clean()))) {
    // One folded map keeps TermFactor at a single lookup in the inner
    // loops.
    auto live = std::make_shared<IdfWeights::DfMap>();
    live->reserve(df1->size() + (df2 != nullptr ? df2->size() : 0));
    AddLiveDf(inner, live.get());
    if (outer != nullptr) AddLiveDf(*outer, live.get());
    df1 = live.get();
    df2 = nullptr;
    sim.owned = std::move(live);
  }
  sim.idf = IdfWeights(static_cast<double>(n_total), df1, df2,
                       config.use_idf);
  TEXTJOIN_ASSIGN_OR_RETURN(sim.inner_norms,
                            ViewNorms(inner, sim.idf, config));
  if (outer != nullptr) {
    TEXTJOIN_ASSIGN_OR_RETURN(sim.outer_norms,
                              ViewNorms(*outer, sim.idf, config));
  }
  return sim;
}

JoinContext ViewContext(const DynamicJoinSide& inner,
                        const DynamicJoinSide& outer,
                        const SimilarityContext* similarity,
                        const SystemParams& sys) {
  JoinContext ctx;
  ctx.inner = inner.base;
  ctx.outer = outer.base;
  ctx.inner_index = inner.index;
  ctx.outer_index = outer.index;
  ctx.similarity = similarity;
  ctx.sys = sys;
  return ctx;
}

Result<JoinResult> DynamicJoin(const DynamicJoinSide& inner,
                               const DynamicJoinSide& outer,
                               const JoinSpec& spec, const SystemParams& sys,
                               QueryGovernor* governor, PlanChoice* chosen,
                               const Algorithm* force) {
  TEXTJOIN_ASSIGN_OR_RETURN(SimilarityContext sim,
                            ViewSimilarity(inner, &outer, spec.similarity));
  JoinContext ctx = ViewContext(inner, outer, &sim, sys);
  ctx.governor = governor;
  return JoinViews(inner, outer, ctx, spec, chosen, force);
}

Result<JoinResult> JoinViews(const DynamicJoinSide& inner_view,
                             const DynamicJoinSide& outer_view,
                             const JoinContext& ctx, const JoinSpec& spec,
                             PlanChoice* chosen, const Algorithm* force) {
  if ((!inner_view.clean() && !spec.inner_subset.empty()) ||
      (!outer_view.clean() && !spec.outer_subset.empty())) {
    return Status::InvalidArgument(
        "document subsets are not supported on a collection with a delta "
        "or deletions");
  }
  if (inner_view.clean() && outer_view.clean()) {
    return RunBase(ctx, spec, chosen, force);
  }
  TEXTJOIN_RETURN_IF_ERROR(ValidateJoinInputs(ctx, spec));
  // A clean side's subset narrows its participating base documents exactly
  // like liveness does, so it becomes that side's mask.
  DynamicJoinSide inner = inner_view;
  DynamicJoinSide outer = outer_view;
  auto narrow = [](const std::vector<DocId>& subset, DynamicJoinSide* side,
                   std::vector<char>* mask) {
    if (subset.empty()) return;
    mask->assign(static_cast<size_t>(side->base->num_documents()), 0);
    for (DocId d : subset) (*mask)[d] = 1;
    side->alive = mask;
  };
  std::vector<char> inner_mask;
  std::vector<char> outer_mask;
  narrow(spec.inner_subset, &inner, &inner_mask);
  narrow(spec.outer_subset, &outer, &outer_mask);
  const SimilarityContext& sim = *ctx.similarity;
  const int64_t inner_base_n = inner.base->num_documents();
  const int64_t outer_base_n = outer.base->num_documents();
  const bool inner_base_live = HasLiveBase(inner);
  const bool outer_base_live = HasLiveBase(outer);

  // Base x base through the unmodified executor, liveness as subsets.
  JoinResult base_rows;
  if (inner_base_live && outer_base_live) {
    JoinSpec base_spec = spec;
    base_spec.inner_subset = LiveSubset(inner);
    base_spec.outer_subset = LiveSubset(outer);
    TEXTJOIN_ASSIGN_OR_RETURN(base_rows,
                              RunBase(ctx, base_spec, chosen, force));
  }

  // Every pair with a delta document is scored against a BatchIndex of one
  // side's delta, whatever the executor: products and their order are
  // WeightedDot's, so the sums are a rebuild's bits.
  JoinResult out;
  BatchIndex index;
  size_t next_base_row = 0;
  auto base_row = [&](DocId o) {
    OuterMatches row{o, {}};
    if (next_base_row < base_rows.size() &&
        base_rows[next_base_row].outer_doc == o) {
      row.matches = std::move(base_rows[next_base_row++].matches);
    }
    return row;
  };

  // Base-outer rows: the live outer base streams once past the indexed
  // inner delta, and each executor row is re-offered with the delta's
  // matches (top-k(top-k(A) u B) = top-k(A u B)).
  if (inner.delta.empty() || !outer_base_live) {
    for (int64_t o = 0; o < outer_base_n; ++o) {
      if (outer.live(static_cast<DocId>(o))) {
        out.push_back(base_row(static_cast<DocId>(o)));
      }
    }
  } else {
    index.Build(inner.delta, nullptr);
    TopKAccumulator heap(spec.lambda);
    TEXTJOIN_RETURN_IF_ERROR(
        ScanLiveBase(outer, [&](DocId o, const Document& doc) {
          OuterMatches row = base_row(o);
          for (const Match& m : row.matches) heap.Add(m.doc, m.score);
          index.Probe(doc, sim, nullptr, [&](size_t j, double sum) {
            const DocId i = static_cast<DocId>(inner_base_n + j);
            heap.Add(i, sim.Finalize(sum, i, o));
          });
          row.matches = heap.TakeSorted();
          out.push_back(std::move(row));
        }));
  }

  // Delta-outer rows: the live inner base (one scan), then the inner
  // delta, stream past the indexed outer delta into one heap per row.
  if (!outer.delta.empty()) {
    index.Build(outer.delta, nullptr);
    std::vector<TopKAccumulator> heaps(outer.delta.size(),
                                       TopKAccumulator(spec.lambda));
    auto offer = [&](DocId i, const Document& doc) {
      index.Probe(doc, sim, nullptr, [&](size_t j, double sum) {
        const DocId o = static_cast<DocId>(outer_base_n + j);
        heaps[j].Add(i, sim.Finalize(sum, i, o));
      });
    };
    if (inner_base_live) {
      TEXTJOIN_RETURN_IF_ERROR(ScanLiveBase(inner, offer));
    }
    for (size_t j = 0; j < inner.delta.size(); ++j) {
      offer(static_cast<DocId>(inner_base_n + j), *inner.delta[j]);
    }
    for (size_t j = 0; j < heaps.size(); ++j) {
      out.push_back(OuterMatches{static_cast<DocId>(outer_base_n + j),
                                 heaps[j].TakeSorted()});
    }
  }
  return out;
}

}  // namespace textjoin
