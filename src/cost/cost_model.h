#ifndef TEXTJOIN_COST_COST_MODEL_H_
#define TEXTJOIN_COST_COST_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cost/params.h"

namespace textjoin {

// Analytic I/O cost model of Section 5 of the paper. All costs are in
// units of one sequential page read; a random page read costs alpha.
//
// Conventions:
//   * C1 is the inner collection (the one whose documents / inverted file
//     are probed), C2 the outer (the paper's "forward order").
//   * Each algorithm has a sequential-I/O cost (`hhs`, `hvs`, `vvs`) and a
//     worst-case random-I/O cost (`hhr`, `hvr`, `vvr`).
//   * An algorithm can be infeasible for a given memory size (e.g. HHNL
//     when not even one outer document fits next to one inner document);
//     its costs are then +infinity and `feasible` is false.

// Which of the three algorithms.
enum class Algorithm { kHhnl, kHvnl, kVvm };

const char* AlgorithmName(Algorithm a);

// Inputs of one cost evaluation.
struct CostInputs {
  CollectionStatistics c1;  // inner
  CollectionStatistics c2;  // outer
  SystemParams sys;
  QueryParams query;

  // q: probability that a term in C2 also appears in C1. Use
  // EstimateTermOverlap() for the paper's piecewise model, or supply a
  // measured value.
  double q = 0.8;

  // Number of documents of C2 actually participating in the join (after
  // selections on non-textual attributes). Defaults to all of C2.
  // Simulation Group 3 sets this below c2.num_documents.
  int64_t participating_outer = -1;  // -1 => c2.num_documents

  // True when the participating documents are a subset of an ORIGINALLY
  // larger collection, so they sit at scattered storage locations and must
  // be read with random I/Os (Group 3). False when C2 is originally small
  // and scanned sequentially (Groups 1, 2, 4, 5).
  bool outer_reads_random = false;
};

// Cost of one algorithm under the two device models.
struct AlgorithmCost {
  double seq = 0;    // all I/Os sequential where the algorithm permits
  double rand = 0;   // worst case: device busy with other obligations
  bool feasible = true;
  std::string note;  // which formula case applied (for reports/debugging)
};

// The paper's estimate of the probability q that a term of the collection
// with `t_from` distinct terms also appears in the collection with `t_to`
// distinct terms (Section 6):
//   q = 0.8 * t_to / t_from        if t_to <= t_from
//   q = 0.8                        if t_from < t_to < 5 * t_from
//   q = 1 - t_from / t_to          if t_to >= 5 * t_from
double EstimateTermOverlap(int64_t t_from, int64_t t_to);

// Expected number of distinct terms in m documents of a collection with
// T distinct terms and K terms per document:
//   f(m) = T - (1 - K/T)^m * T.
// Accepts fractional m (the HVNL formula evaluates f at s + X1).
double DistinctTermsAfter(double m, double avg_terms_per_doc,
                          int64_t num_distinct_terms);

// HHNL outer batch size X = (B - ceil(S1)) / (S2 + 4*lambda/P), the number
// of outer documents held in memory at once. May be fractional; < 1 means
// infeasible.
double HhnlBatchSize(const CostInputs& in);

// HVNL entry-cache capacity
//   X = floor((B - ceil(S2) - Bt1 - 4*N1*delta/P) / (J1 + |t#|/P)),
// the number of C1 inverted entries held in memory at once. Negative
// means infeasible.
double HvnlCacheCapacity(const CostInputs& in);

// VVM memory for intermediate similarities M = B - ceil(J1) - ceil(J2) and
// requirement SM = 4*delta*N1*N2'/P (N2' = participating outer documents).
// passes = ceil(SM/M).
int64_t VvmPasses(const CostInputs& in);

AlgorithmCost HhnlCost(const CostInputs& in);
AlgorithmCost HvnlCost(const CostInputs& in);
AlgorithmCost VvmCost(const CostInputs& in);

// The backward-order HHNL the paper mentions in Section 4.1 and defers to
// the tech report: C1 drives the outer loop in batches of
//   X' = floor((B - ceil(S2) - 4*lambda*N2'/P) / S1)
// (the buffer must also hold one outer document and a top-lambda heap for
// EVERY participating outer document), and C2 is rescanned once per
// batch:
//   hhs_backward = D1 + ceil(N1/X') * D2'.
// Cheaper than the forward order when C1 is much smaller than C2.
AlgorithmCost HhnlBackwardCost(const CostInputs& in);

// Batch size X' of the backward order (fractional; < 1 means infeasible).
double HhnlBackwardBatchSize(const CostInputs& in);

// Canonical phase labels, shared between the cost model's per-phase
// prediction (CostPhases below) and the executors' runtime reporting
// (obs/query_stats.h), so EXPLAIN ANALYZE can pair the two by label.
namespace phase {
inline constexpr char kReadOuter[] = "read outer";           // HHNL fwd, HVNL
inline constexpr char kScanInner[] = "scan inner";           // HHNL fwd
inline constexpr char kReadInnerBatch[] = "read inner batch";  // HHNL bwd
inline constexpr char kRescanOuter[] = "rescan outer";       // HHNL bwd
inline constexpr char kLoadBtree[] = "load btree";           // HVNL
inline constexpr char kProbeEntries[] = "probe inverted entries";  // HVNL
inline constexpr char kMergeScan[] = "merge scan";           // VVM
}  // namespace phase

// One phase's share of an algorithm's predicted cost. The phases of one
// algorithm sum (exactly, up to floating-point rounding) to the
// corresponding AlgorithmCost.seq / AlgorithmCost.rand totals.
struct PhaseCost {
  std::string label;
  double seq = 0;
  double rand = 0;
};

// Decomposes the predicted cost of `algorithm` into its phases, using the
// same formulas and case analysis as HhnlCost/HvnlCost/VvmCost (and
// HhnlBackwardCost when `hhnl_backward` is set). Empty when the algorithm
// is infeasible for these inputs.
std::vector<PhaseCost> CostPhases(Algorithm algorithm, const CostInputs& in,
                                  bool hhnl_backward = false);

// Evaluates all three algorithms.
struct CostComparison {
  AlgorithmCost hhnl;
  AlgorithmCost hvnl;
  AlgorithmCost vvm;

  const AlgorithmCost& of(Algorithm a) const;
  AlgorithmCost& of(Algorithm a);

  // Cheapest algorithm under the sequential (resp. random) device model.
  Algorithm BestSequential() const;
  Algorithm BestRandom() const;
};

CostComparison CompareCosts(const CostInputs& in);

}  // namespace textjoin

#endif  // TEXTJOIN_COST_COST_MODEL_H_
