#ifndef TEXTJOIN_JOIN_EXECUTOR_H_
#define TEXTJOIN_JOIN_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "cost/cost_model.h"
#include "cost/params.h"
#include "index/inverted_file.h"
#include "join/cpu_stats.h"
#include "join/similarity.h"
#include "join/topk.h"
#include "storage/io_stats.h"
#include "text/collection.h"

namespace textjoin {

class QueryGovernor;        // exec/governor.h
class QueryStatsCollector;  // obs/query_stats.h

// What to compute: C1 SIMILAR_TO(lambda) C2 in forward order — for every
// participating document of the outer collection C2, the lambda documents
// of the inner collection C1 with the largest non-zero similarity.
struct JoinSpec {
  int64_t lambda = 20;
  SimilarityConfig similarity;

  // Exact pruning, on by default. It switches VVM's pass-slice block skip
  // (join/vvm.h), the only pruning left; HHNL scores its batch
  // term-at-a-time and needs none (join/hhnl.h). Off runs the paper's
  // three executors exactly. Pure CPU optimization — results and metered
  // I/O are identical either way; only CpuStats changes.
  bool prune = true;

  // Per-query lifecycle limits, forwarded into the QueryGovernor the
  // Database builds for this query (exec/governor.h). 0 = no limit /
  // inherit the session or DatabaseOptions default.
  double deadline_ms = 0;
  int64_t memory_budget_pages = 0;

  // Documents of C2 participating in the join (ascending, no duplicates);
  // empty means all. A non-empty subset models the result of a selection
  // on non-textual attributes: those documents sit at scattered storage
  // locations and are read with positioned I/Os (simulation Group 3).
  std::vector<DocId> outer_subset;

  // Documents of C1 eligible as matches (ascending, no duplicates); empty
  // means all. HHNL reads only these documents when that is cheaper than a
  // full scan (the paper: HHNL "benefits quite naturally" from selections);
  // HVNL and VVM still read their full inverted files (the paper: "the
  // size of the file remains the same even if the number of documents ...
  // can be reduced by a selection") and filter while accumulating.
  std::vector<DocId> inner_subset;

  // delta: assumed fraction of non-zero similarities; used only to budget
  // HVNL's accumulator space, as in the paper's memory formula.
  double delta = 0.1;
};

// The per-outer-document result rows, ascending by outer document.
struct OuterMatches {
  DocId outer_doc = 0;
  std::vector<Match> matches;  // best first, at most lambda

  friend bool operator==(const OuterMatches& a, const OuterMatches& b) {
    return a.outer_doc == b.outer_doc && a.matches == b.matches;
  }
};

using JoinResult = std::vector<OuterMatches>;

// Everything an executor may touch. HHNL needs only the collections;
// HVNL additionally needs C1's inverted file; VVM needs both inverted
// files. Executors check their preconditions and fail cleanly.
struct JoinContext {
  const DocumentCollection* inner = nullptr;    // C1
  const DocumentCollection* outer = nullptr;    // C2
  const InvertedFile* inner_index = nullptr;    // inverted file on C1
  const InvertedFile* outer_index = nullptr;    // inverted file on C2
  const SimilarityContext* similarity = nullptr;
  SystemParams sys;  // buffer_pages B drives each algorithm's allocation

  // Optional observability sink (obs/query_stats.h). When non-null the
  // executors report their phases (labels from cost/cost_model.h phase::),
  // algorithm-specific counters and CPU work (Section 7 extension) into
  // it; I/O attribution happens via the collector's disk snapshots.
  QueryStatsCollector* stats = nullptr;

  // Optional query-lifecycle handle (exec/governor.h). When non-null the
  // executors checkpoint their inner loops against it (cancellation +
  // deadline) and size their memory allocation from
  // EffectiveBufferPages(ctx) instead of the raw sys.buffer_pages.
  QueryGovernor* governor = nullptr;
};

// Common interface of the three algorithms.
class TextJoinAlgorithm {
 public:
  virtual ~TextJoinAlgorithm() = default;

  virtual Algorithm kind() const = 0;
  virtual std::string name() const { return AlgorithmName(kind()); }

  // Runs the join. I/O is metered on the collections' SimulatedDisk; the
  // caller typically resets the disk stats before and reads them after.
  virtual Result<JoinResult> Run(const JoinContext& ctx,
                                 const JoinSpec& spec) = 0;
};

// Helpers shared by the executors and tests.

// The participating outer documents: spec.outer_subset, or 0..N2-1.
std::vector<DocId> ParticipatingOuterDocs(const JoinContext& ctx,
                                          const JoinSpec& spec);

// Membership bitmap over inner documents (empty when no inner subset).
std::vector<char> InnerMembership(const JoinContext& ctx,
                                  const JoinSpec& spec);

// Iterates the participating inner documents in ascending document order,
// calling fn(doc, document). With an inner subset it picks selective
// positioned reads when m1 * ceil(S1) * alpha is below a full scan's D1
// pages, else scans everything and skips non-members.
Status ForEachInnerDoc(const JoinContext& ctx, const JoinSpec& spec,
                       const std::function<void(DocId, const Document&)>& fn);

// Validates common preconditions (collections present, same page size,
// subset sorted and in range).
Status ValidateJoinInputs(const JoinContext& ctx, const JoinSpec& spec);

// The buffer pages an executor may actually allocate from: sys.buffer_pages
// capped by the governor's memory budget. Under memory pressure the
// algorithms degrade through their own allocation formulas (HHNL shrinks
// its outer batch X, VVM runs more and smaller matrix partitions) and
// still produce identical results.
int64_t EffectiveBufferPages(const JoinContext& ctx);

// Cooperative cancellation point for executor loops; OK when the context
// carries no governor.
Status GovernorCheckpoint(const JoinContext& ctx, const char* where);

}  // namespace textjoin

#endif  // TEXTJOIN_JOIN_EXECUTOR_H_
