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

// The participating outer documents m: `participating_outer`, at most
// N2, or all N2 documents when it is unset.
double ParticipatingOuter(const CostInputs& in);

// Canonical phase labels, shared between the cost model's per-phase
// prediction (AlgorithmCost::phases) and the executors' runtime reporting
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

// One phase's share of an algorithm's predicted cost.
struct PhaseCost {
  std::string label;
  double seq = 0;
  double rand = 0;
};

// Cost of one algorithm under the two device models. The cost functions
// below state each formula as its phases; `seq` and `rand` are the sums of
// those phases.
struct AlgorithmCost {
  double seq = 0;    // all I/Os sequential where the algorithm permits
  double rand = 0;   // worst case: device busy with other obligations
  bool feasible = true;
  std::string note;  // which formula case applied (for reports/debugging)
  std::vector<PhaseCost> phases;  // empty when infeasible
};

// An infeasible algorithm: +infinity costs and no phases.
AlgorithmCost InfeasibleCost(std::string note);

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

// The sizes the memory formulas below read, in pages (Section 3
// notation). MemoryInputsOf takes them from the statistics; the executors
// pass the sizes they measure (join/executor.h MeasuredMemory), so the
// model and the executors size memory with the same formulas.
struct MemoryInputs {
  double B = 0;       // buffer pages
  double P = 0;       // page size in bytes
  double lambda = 0;
  double delta = 0;
  double N1 = 0;      // inner documents
  double m = 0;       // participating outer documents
  double S1 = 0;      // average inner document pages
  double S2 = 0;      // average outer document pages
  double J1 = 0;      // average inner inverted-entry pages
  double J2 = 0;      // average outer inverted-entry pages
  double Bt1 = 0;     // inner B+tree pages
};

MemoryInputs MemoryInputsOf(const CostInputs& in);

// HHNL outer batch size X = floor((B - ceil(S1)) / (S2 + 4*lambda/P)), the
// number of outer documents held in memory at once. < 1 means infeasible.
double HhnlBatchSize(const MemoryInputs& mem);

// Batch size X' = floor((B - ceil(S2) - 4*lambda*m/P) / S1) of the
// backward HHNL order (HhnlBackwardCost). < 1 means infeasible.
double HhnlBackwardBatchSize(const MemoryInputs& mem);

// HVNL entry-cache capacity
//   X = floor((B - ceil(S2) - Bt1 - 4*N1*delta/P) / (J1 + |t#|/P)),
// the number of C1 inverted entries held in memory at once. Negative
// means infeasible.
double HvnlCacheCapacity(const MemoryInputs& mem);

// VVM memory for intermediate similarities M = B - ceil(J1) - ceil(J2) and
// requirement SM = 4*delta*N1*m/P. passes = ceil(SM/M), at least 1; -1
// when M <= 0.
int64_t VvmPasses(const MemoryInputs& mem);

inline double HhnlBatchSize(const CostInputs& in) {
  return HhnlBatchSize(MemoryInputsOf(in));
}
inline double HhnlBackwardBatchSize(const CostInputs& in) {
  return HhnlBackwardBatchSize(MemoryInputsOf(in));
}
inline double HvnlCacheCapacity(const CostInputs& in) {
  return HvnlCacheCapacity(MemoryInputsOf(in));
}
inline int64_t VvmPasses(const CostInputs& in) {
  return VvmPasses(MemoryInputsOf(in));
}

// The inverted entries of C1 HVNL needs over the whole join: q*T2, or
// q*f(m) when only m < N2 outer documents participate.
double HvnlNeededEntries(const CostInputs& in);

// HVNL's thrashing case (the needed entries overflow a cache of X): the
// cache fills during the first s + X1 - 1 outer documents, where s is the
// smallest integer with q*f(s) > X and
//   X1 = (X - q*f(s-1)) / (q*f(s) - q*f(s-1));
// each of the remaining m - s - X1 + 1 documents then reads
// Y = q*f(s + X1) - X fresh entries. Returns those later reads,
// (m - s - X1 + 1) * Y.
double HvnlReadsAfterFill(const CostInputs& in, double X);

AlgorithmCost HhnlCost(const CostInputs& in);
AlgorithmCost HvnlCost(const CostInputs& in);
AlgorithmCost VvmCost(const CostInputs& in);

// The backward-order HHNL the paper mentions in Section 4.1 and defers to
// the tech report: C1 drives the outer loop in batches of X' (the buffer
// must also hold one outer document and a top-lambda heap for EVERY
// participating outer document), and C2 is rescanned once per batch:
//   hhs_backward = D1 + ceil(N1/X') * D2'.
// Cheaper than the forward order when C1 is much smaller than C2.
AlgorithmCost HhnlBackwardCost(const CostInputs& in);

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
