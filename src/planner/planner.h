#ifndef TEXTJOIN_PLANNER_PLANNER_H_
#define TEXTJOIN_PLANNER_PLANNER_H_

#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "join/executor.h"
#include "obs/explain.h"
#include "obs/query_stats.h"

namespace textjoin {

// The paper's integrated algorithm (Sections 6.1 and 7): estimate the cost
// of HHNL, HVNL and VVM from the collections' statistics, the system
// parameters and the query parameters, then run the cheapest one.
struct PlanChoice {
  Algorithm algorithm = Algorithm::kHhnl;
  // When the algorithm is HHNL, whether the backward order (C1 drives the
  // outer loop) was estimated cheaper and will be executed.
  bool hhnl_backward = false;
  CostComparison costs;
  AlgorithmCost hhnl_backward_cost;
  CostInputs inputs;
  std::string explanation;
  // Run-time degradation history (see JoinPlanner::Execute): every
  // algorithm that failed with an I/O error before `algorithm` succeeded.
  std::vector<FallbackEvent> fallbacks;

  // The cost-layer mirror the EXPLAIN ANALYZE renderer consumes.
  // costs.hhnl always holds the FORWARD order in the mirror (Plan()
  // overwrites it with the backward cost when that order wins).
  ExplainPlan ToExplainPlan() const;
};

// Execute + the full observability picture of the run.
struct AnalyzedJoin {
  JoinResult result;
  PlanChoice plan;
  QueryStats stats;
  // RenderExplainAnalyze of plan + stats, ready to print.
  std::string report;
};

class JoinPlanner {
 public:
  // Estimates all three costs for this join and picks the cheapest under
  // the sequential model. Without an inner subset, HHNL runs in the
  // backward order (Section 4.1) when that order is estimated cheaper.
  // Algorithms whose required inverted files are absent from the context
  // are marked infeasible.
  Result<PlanChoice> Plan(const JoinContext& ctx, const JoinSpec& spec) const;

  // Plans and runs the chosen algorithm. If `chosen` is non-null the plan
  // is reported through it. When ctx.stats is set, the executor reports
  // its phases into it (Execute does not Finish() the collector).
  // Graceful degradation: when the chosen algorithm fails with an I/O
  // error (UNAVAILABLE / DATA_LOSS, e.g. a permanently failed inverted
  // file), it is marked infeasible and the join re-planned with the
  // next-cheapest algorithm whose inputs are still readable. Each step is
  // recorded in PlanChoice::fallbacks and surfaced by EXPLAIN ANALYZE.
  Result<JoinResult> Execute(const JoinContext& ctx, const JoinSpec& spec,
                             PlanChoice* chosen = nullptr) const;

  // Plans, runs and meters the chosen algorithm, returning the result
  // together with the QueryStats tree and the rendered EXPLAIN ANALYZE
  // report (predicted vs measured cost per phase). Overrides ctx.stats
  // with its own collector for the duration of the run.
  Result<AnalyzedJoin> ExecuteAnalyze(
      const JoinContext& ctx, const JoinSpec& spec,
      const ExplainOptions& options = {}) const;
};

}  // namespace textjoin

#endif  // TEXTJOIN_PLANNER_PLANNER_H_
