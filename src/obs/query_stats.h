#ifndef TEXTJOIN_OBS_QUERY_STATS_H_
#define TEXTJOIN_OBS_QUERY_STATS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/governor.h"
#include "join/cpu_stats.h"
#include "storage/buffer_pool.h"
#include "storage/disk.h"
#include "storage/io_stats.h"

namespace textjoin {

// Runtime statistics of one join execution, organised as a tree of
// phases. Each executor reports its logical phases (outer reads, inner
// scans, B+tree load, entry probes, merge passes ...) through the
// QueryStatsCollector below; the EXPLAIN ANALYZE renderer (obs/explain.h)
// pairs each phase with the cost model's phase of the same label
// (cost/cost_model.h AlgorithmCost::phases, the terms each formula is the
// sum of), turning every run into a live accuracy check of the paper's
// formulas.

// One named counter, e.g. {"cache_hits", 512}. Counters keep insertion
// order so reports are stable.
struct PhaseCounter {
  std::string name;
  int64_t value = 0;
};

// One phase of an execution. `io`/`cpu`/`wall_seconds` cover the whole
// interval the phase was open, so a parent's numbers include its
// children's; sibling phases cover disjoint intervals and their I/O sums
// to the parent's when the executor meters every read inside some phase.
struct PhaseStats {
  std::string label;
  IoStats io;
  CpuStats cpu;
  double wall_seconds = 0;
  int64_t entered = 0;  // how many intervals were merged into this phase
  std::vector<PhaseCounter> counters;
  std::vector<PhaseStats> children;

  // Child with this label, or nullptr.
  const PhaseStats* Child(const std::string& child_label) const;

  // Counter value by name, or `fallback` when absent.
  int64_t Counter(const std::string& name, int64_t fallback = 0) const;

  // Sum of the direct children's I/O (for coverage checks against `io`).
  IoStats ChildIoSum() const;
};

// Query-lifecycle outcome of one run: what the admission controller
// decided, what the governor observed, whether the query degraded under
// its memory budget. Inactive (and unrendered) when the run was not
// governed, so ungoverned reports are unchanged.
struct GovernanceStats {
  bool active = false;
  // Admission outcome: "admitted" | "queued" | "uncontrolled".
  std::string admission = "admitted";
  // Execution outcome: "completed" | "degraded" | "cancelled".
  std::string outcome = "completed";
  // Simulated milliseconds spent in the admission queue.
  double queue_wait_ms = 0;
  double deadline_ms = 0;            // 0 = none
  int64_t memory_budget_pages = 0;   // 0 = none
  int64_t memory_granted_pages = 0;  // 0 = full claim
  int64_t checkpoints = 0;           // cooperative cancellation points hit
  int64_t io_polls = 0;              // storage-layer cancellation points hit
  // Milliseconds from query start to the checkpoint that observed the
  // stop; negative when the query was never stopped.
  double time_to_cancel_ms = -1;
  bool degraded = false;

  // Snapshot of a governor after (or during) a run; admission fields keep
  // their defaults until the Database layer fills them.
  static GovernanceStats FromGovernor(const QueryGovernor& governor);
};

// Serving-layer outcome of one run (serve/scheduler.h, or the Database's
// result cache): whether the query was answered from the ResultCache, how
// many posting-list fetches piggybacked on a shared scan, and what the
// tenant's buffer-pool slice looked like. Inactive (and unrendered) when
// the run did not pass through the serving layer.
struct ServingStats {
  bool active = false;
  std::string tenant;
  // This query was answered from the ResultCache (bit-identical to a cold
  // run by construction: only fully completed queries are inserted).
  bool cache_hit = false;
  // Cache totals at the owning cache, after this query.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  // Posting-list fetches this query performed (metered I/O) vs fetches it
  // piggybacked on another in-flight query's scan (no I/O, no latency).
  int64_t scan_fetches = 0;
  int64_t shared_scans = 0;
  // The tenant's hard page quota and its peak charged frames during the
  // query; 0/0 when the pool was not partitioned.
  int64_t tenant_quota_pages = 0;
  int64_t tenant_peak_pages = 0;
  // Simulated milliseconds between arrival and the first execution step.
  double queue_wait_ms = 0;
  // Collection epoch this query's snapshot was taken at (at admission).
  // Every result the query returns is consistent with exactly this epoch,
  // even if writes or a compaction landed while it ran.
  int64_t snapshot_epoch = 0;
  // Times this query was shed by admission and requeued with backoff
  // before completing (exec/retry_admission.h). 0 = admitted first try.
  int64_t admission_retries = 0;
};

// The full statistics tree of one run. The root phase's label is the
// algorithm that ran (e.g. "HHNL" or "HHNL backward") and its totals
// cover the whole execution.
struct QueryStats {
  PhaseStats root;

  // Lifecycle outcome when the run was governed (see GovernanceStats).
  GovernanceStats governance;

  // Serving-layer outcome when the run passed through the serving layer
  // (see ServingStats).
  ServingStats serving;

  // Optional buffer-pool counters (deltas over the run) when a pool was
  // attached to the collector; -1 when none was.
  int64_t buffer_pool_hits = -1;
  int64_t buffer_pool_misses = -1;

  bool has_buffer_pool() const { return buffer_pool_hits >= 0; }
  double BufferPoolHitRate() const;
};

// Accumulates a QueryStats tree while a join runs. The collector
// snapshots the disk's IoStats, its own CpuStats sink and the wall clock
// at every phase boundary and attributes the deltas to the phase.
// Re-opening a phase label under the same parent merges into the existing
// phase, so loops report a bounded number of phases.
//
// All methods are no-throw; executors hold the collector through
// JoinContext::stats and may ignore it entirely (nullptr).
class QueryStatsCollector {
 public:
  // `disk` is the metered device the run reads from; it must outlive the
  // collector.
  explicit QueryStatsCollector(const Disk* disk);

  QueryStatsCollector(const QueryStatsCollector&) = delete;
  QueryStatsCollector& operator=(const QueryStatsCollector&) = delete;

  // Names the root phase (executors set this to their algorithm name).
  void SetRootLabel(std::string label);

  // Opens a child phase of the currently open phase (or of the root).
  void BeginPhase(const std::string& label);

  // Closes the innermost open phase, attributing the I/O, CPU and wall
  // time observed since BeginPhase.
  void EndPhase();

  // Adds `delta` to a named counter of the innermost open phase (the root
  // when none is open).
  void AddCounter(const std::string& name, int64_t delta);

  // Sets a named counter of the innermost open phase to `value`.
  void SetCounter(const std::string& name, int64_t value);

  // The CPU-work sink executors meter into. Always non-null; per-phase
  // CPU attribution happens via snapshots of this accumulator.
  CpuStats* cpu() { return &cpu_total_; }

  // Also report this buffer pool's hit/miss deltas over the run.
  void AttachBufferPool(const BufferPool* pool);

  // Closes any phases still open, fills the root totals and returns the
  // finished tree. The collector resets and can meter another run.
  QueryStats Finish();

 private:
  struct Frame {
    PhaseStats* node;
    IoStats io_before;
    CpuStats cpu_before;
    std::chrono::steady_clock::time_point t0;
  };

  PhaseStats* CurrentNode();
  void Reset();

  const Disk* disk_;
  const BufferPool* pool_ = nullptr;
  int64_t pool_hits_before_ = 0;
  int64_t pool_misses_before_ = 0;
  // The tree under construction. `root_` owns all nodes; frames point
  // into it. Children are deque-like stable because each node's children
  // vector is only appended to while no frame below it is open — frames
  // hold pointers only to nodes on the current ancestor path, and a
  // BeginPhase can reallocate only the CURRENT node's children vector,
  // whose elements no open frame points into.
  std::unique_ptr<PhaseStats> root_;
  std::vector<Frame> open_;
  Frame run_;  // snapshot at construction / Reset, closed by Finish
  CpuStats cpu_total_;
};

// RAII phase guard; no-op when the collector is null.
class PhaseScope {
 public:
  PhaseScope(QueryStatsCollector* collector, const std::string& label)
      : collector_(collector) {
    if (collector_ != nullptr) collector_->BeginPhase(label);
  }
  ~PhaseScope() {
    if (collector_ != nullptr) collector_->EndPhase();
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  QueryStatsCollector* collector_;
};

}  // namespace textjoin

#endif  // TEXTJOIN_OBS_QUERY_STATS_H_
