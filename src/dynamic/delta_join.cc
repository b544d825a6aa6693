#include "dynamic/delta_join.h"

#include <map>
#include <memory>
#include <utility>

#include "join/hhnl.h"
#include "join/hvnl.h"
#include "join/topk.h"
#include "join/vvm.h"

namespace textjoin {

namespace {

int64_t LiveBaseCount(const DynamicJoinSide& side) {
  if (side.alive == nullptr) return side.base->num_documents();
  int64_t n = 0;
  for (char a : *side.alive) n += (a != 0);
  return n;
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

// term -> [(delta position, weight)], term-sorted.
using DeltaIndex = std::map<TermId, std::vector<std::pair<int64_t, Weight>>>;

DeltaIndex BuildDeltaIndex(const std::vector<const Document*>& delta) {
  DeltaIndex index;
  for (size_t j = 0; j < delta.size(); ++j) {
    for (const DCell& c : delta[j]->cells()) {
      index[c.term].emplace_back(static_cast<int64_t>(j), c.weight);
    }
  }
  return index;
}

Result<JoinResult> RunBase(const JoinContext& ctx, const JoinSpec& spec,
                           PlanChoice* chosen, const Algorithm* force) {
  if (force == nullptr) return JoinPlanner().Execute(ctx, spec, chosen);
  if (chosen != nullptr) chosen->algorithm = *force;
  switch (*force) {
    case Algorithm::kHhnl:
      return HhnlJoin().Run(ctx, spec);
    case Algorithm::kHvnl:
      return HvnlJoin().Run(ctx, spec);
    case Algorithm::kVvm:
      return VvmJoin().Run(ctx, spec);
  }
  return Status::InvalidArgument("unknown algorithm");
}

// What a frozen view owns: the pinned base generation and copies of the
// collection state that later mutations change.
struct FrozenState {
  std::shared_ptr<const DocumentCollection> base;
  std::shared_ptr<const InvertedFile> index;
  std::vector<char> alive;
  std::vector<Document> delta;
  std::shared_ptr<const void> df;
};

}  // namespace

DynamicJoinSide MakeJoinSide(const DynamicCollection& dc) {
  auto df = std::make_shared<const std::unordered_map<TermId, int64_t>>(
      dc.MergedDfMap());
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
  side.df = df.get();
  side.owned = std::move(df);
  return side;
}

DynamicJoinSide FrozenJoinSide(const DynamicCollection& dc) {
  DynamicJoinSide side = MakeJoinSide(dc);
  auto state = std::make_shared<FrozenState>();
  state->base = dc.base_shared();
  state->index = dc.index_shared();
  if (side.alive != nullptr) {
    state->alive = *side.alive;
    side.alive = &state->alive;
  }
  state->delta.reserve(side.delta.size());
  for (const Document*& d : side.delta) {
    state->delta.push_back(*d);
    d = &state->delta.back();
  }
  state->df = std::move(side.owned);
  side.owned = std::move(state);
  return side;
}

DynamicJoinSide MakeJoinSide(const DocumentCollection& base,
                             const InvertedFile* index) {
  DynamicJoinSide side;
  side.base = &base;
  side.index = index;
  side.df = &base.doc_freq_map();
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
  const IdfWeights::DfMap* df1 = inner.df;
  const IdfWeights::DfMap* df2 = outer != nullptr ? outer->df : nullptr;
  if (config.use_idf && df2 != nullptr &&
      (inner.owned != nullptr || outer->owned != nullptr)) {
    // A dynamic side's df map is a per-join copy already; folding both
    // sides into one keeps TermFactor at a single lookup in the join's
    // inner loops. Static x static borrows both catalogs instead.
    auto merged = std::make_shared<IdfWeights::DfMap>(*df1);
    for (const auto& [term, n] : *df2) (*merged)[term] += n;
    df1 = merged.get();
    df2 = nullptr;
    sim.owned = std::move(merged);
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
  const int64_t inner_live_base = LiveBaseCount(inner);
  const int64_t outer_live_base = LiveBaseCount(outer);

  // Base x base through the unmodified executor, liveness as subsets.
  Algorithm algo = force != nullptr ? *force : Algorithm::kHhnl;
  JoinResult base_rows;
  if (inner_live_base > 0 && outer_live_base > 0) {
    JoinSpec base_spec = spec;
    base_spec.inner_subset = LiveSubset(inner);
    base_spec.outer_subset = LiveSubset(outer);
    PlanChoice plan;
    TEXTJOIN_ASSIGN_OR_RETURN(base_rows,
                              RunBase(ctx, base_spec, &plan, force));
    algo = plan.algorithm;
    if (chosen != nullptr) *chosen = plan;
  }

  const DeltaIndex inner_delta_index = BuildDeltaIndex(inner.delta);

  // Scores of base outer docs against DELTA inner docs. Contributions
  // accumulate in ascending term order per pair, matching WeightedDot.
  std::unordered_map<DocId, std::vector<double>> base_outer_delta_acc;
  if (!inner.delta.empty() && outer_live_base > 0) {
    if (algo == Algorithm::kVvm && outer.index != nullptr) {
      // VVM shape: one sequential pass over the outer inverted file.
      auto scanner = outer.index->Scan();
      while (!scanner.Done()) {
        const TermId term = scanner.NextTerm();
        auto it = inner_delta_index.find(term);
        if (it == inner_delta_index.end()) {
          TEXTJOIN_RETURN_IF_ERROR(scanner.SkipEntry());
          continue;
        }
        const double factor = sim.TermFactor(term);
        TEXTJOIN_ASSIGN_OR_RETURN(std::vector<ICell> cells, scanner.Next());
        for (const ICell& ic : cells) {
          if (!outer.live(ic.doc)) continue;
          std::vector<double>& acc = base_outer_delta_acc[ic.doc];
          acc.resize(inner.delta.size(), 0.0);
          for (const auto& [j, w] : it->second) {
            acc[j] += static_cast<double>(ic.weight) *
                      static_cast<double>(w) * factor;
          }
        }
      }
    } else {
      // HHNL/HVNL shape: one pass over the outer documents.
      auto scanner = outer.base->Scan();
      while (!scanner.Done()) {
        const DocId o = scanner.next_doc();
        TEXTJOIN_ASSIGN_OR_RETURN(Document doc, scanner.Next());
        if (!outer.live(o)) continue;
        std::vector<double> acc;
        for (const DCell& c : doc.cells()) {
          auto it = inner_delta_index.find(c.term);
          if (it == inner_delta_index.end()) continue;
          const double factor = sim.TermFactor(c.term);
          if (acc.empty()) acc.resize(inner.delta.size(), 0.0);
          for (const auto& [j, w] : it->second) {
            acc[j] += static_cast<double>(c.weight) *
                      static_cast<double>(w) * factor;
          }
        }
        if (!acc.empty()) base_outer_delta_acc[o] = std::move(acc);
      }
    }
  }

  // Assemble base-outer rows: the executor's top-lambda re-selected
  // against the delta-inner candidates (top-k(top-k(A) u B) = top-k(A u B)).
  JoinResult out;
  size_t bi = 0;
  for (int64_t o = 0; o < outer_base_n; ++o) {
    if (!outer.live(static_cast<DocId>(o))) continue;
    OuterMatches row;
    row.outer_doc = static_cast<DocId>(o);
    const OuterMatches* base_row = nullptr;
    if (bi < base_rows.size() &&
        base_rows[bi].outer_doc == static_cast<DocId>(o)) {
      base_row = &base_rows[bi];
      ++bi;
    }
    auto dit = base_outer_delta_acc.find(static_cast<DocId>(o));
    if (dit == base_outer_delta_acc.end()) {
      if (base_row != nullptr) row.matches = base_row->matches;
    } else {
      TopKAccumulator heap(spec.lambda);
      if (base_row != nullptr) {
        for (const Match& m : base_row->matches) heap.Add(m.doc, m.score);
      }
      for (size_t j = 0; j < dit->second.size(); ++j) {
        const double acc = dit->second[j];
        if (acc <= 0) continue;
        const DocId merged_i = static_cast<DocId>(inner_base_n + j);
        heap.Add(merged_i,
                 sim.Finalize(acc, merged_i, static_cast<DocId>(o)));
      }
      row.matches = heap.TakeSorted();
    }
    out.push_back(std::move(row));
  }

  // Delta-outer rows, scored against base inner (algorithm-shaped access)
  // and delta inner (in memory).
  for (size_t jo = 0; jo < outer.delta.size(); ++jo) {
    const Document& od = *outer.delta[jo];
    const DocId merged_o = static_cast<DocId>(outer_base_n + jo);
    std::vector<double> acc_base(static_cast<size_t>(inner_base_n), 0.0);
    if (inner_live_base > 0) {
      if (algo == Algorithm::kVvm && inner.index != nullptr) {
        auto scanner = inner.index->Scan();
        const auto& cells = od.cells();
        size_t ci = 0;
        while (!scanner.Done()) {
          const TermId term = scanner.NextTerm();
          while (ci < cells.size() && cells[ci].term < term) ++ci;
          if (ci >= cells.size() || cells[ci].term != term) {
            TEXTJOIN_RETURN_IF_ERROR(scanner.SkipEntry());
            continue;
          }
          const double factor = sim.TermFactor(term);
          TEXTJOIN_ASSIGN_OR_RETURN(std::vector<ICell> icells,
                                    scanner.Next());
          for (const ICell& ic : icells) {
            if (!inner.live(ic.doc)) continue;
            acc_base[ic.doc] += static_cast<double>(cells[ci].weight) *
                                static_cast<double>(ic.weight) * factor;
          }
        }
      } else if (algo == Algorithm::kHvnl && inner.index != nullptr) {
        for (const DCell& c : od.cells()) {
          if (inner.index->FindEntry(c.term) < 0) continue;
          const double factor = sim.TermFactor(c.term);
          TEXTJOIN_ASSIGN_OR_RETURN(std::vector<ICell> icells,
                                    inner.index->FetchEntry(c.term));
          for (const ICell& ic : icells) {
            if (!inner.live(ic.doc)) continue;
            acc_base[ic.doc] += static_cast<double>(c.weight) *
                                static_cast<double>(ic.weight) * factor;
          }
        }
      } else {
        auto scanner = inner.base->Scan();
        while (!scanner.Done()) {
          const DocId i = scanner.next_doc();
          TEXTJOIN_ASSIGN_OR_RETURN(Document doc, scanner.Next());
          if (!inner.live(i)) continue;
          acc_base[i] = WeightedDot(doc, od, sim);
        }
      }
    }
    TopKAccumulator heap(spec.lambda);
    for (int64_t i = 0; i < inner_base_n; ++i) {
      if (!inner.live(static_cast<DocId>(i))) continue;
      const double acc = acc_base[i];
      if (acc <= 0) continue;
      heap.Add(static_cast<DocId>(i),
               sim.Finalize(acc, static_cast<DocId>(i), merged_o));
    }
    for (size_t j = 0; j < inner.delta.size(); ++j) {
      const double acc = WeightedDot(od, *inner.delta[j], sim);
      if (acc <= 0) continue;
      const DocId merged_i = static_cast<DocId>(inner_base_n + j);
      heap.Add(merged_i, sim.Finalize(acc, merged_i, merged_o));
    }
    OuterMatches row;
    row.outer_doc = merged_o;
    row.matches = heap.TakeSorted();
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace textjoin
