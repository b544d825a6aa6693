#ifndef TEXTJOIN_JOIN_CPU_STATS_H_
#define TEXTJOIN_JOIN_CPU_STATS_H_

#include <cstdint>
#include <string>

namespace textjoin {

// CPU work counters for one join execution. The paper's cost analysis is
// I/O-only ("as if we have a centralized environment where I/O cost
// dominates CPU cost", Section 3) and names CPU-inclusive cost formulas
// as further work (Section 7); these counters are the measurement side
// of that extension — see cost/cpu_model.h for the analytic side.
struct CpuStats {
  // Cell visits. HHNL: each resident d-cell once when its batch is
  // indexed, and each streamed d-cell once per batch it probes (join/
  // hhnl.h). HVNL and VVM: posting-cell visits, every cell of each entry
  // or block they scatter along or pass-filter.
  int64_t cell_compares = 0;
  // Similarity accumulations: one multiply-add into a running pair score.
  int64_t accumulations = 0;
  // Candidate offers to a top-lambda heap.
  int64_t heap_offers = 0;
  // i-cells decoded from fetched or scanned inverted entries.
  int64_t cells_decoded = 0;

  // Always 0: no executor bounds or prunes candidate pairs. Kept because
  // the wall-clock benchmark (bench_e2e) reports them.
  int64_t bound_checks = 0;
  int64_t pairs_pruned = 0;
  // VVM posting blocks left undecoded because they hold no outer document
  // of the current pass (work avoided by the pass-slice skip, join/vvm.h).
  int64_t blocks_skipped = 0;

  CpuStats& operator+=(const CpuStats& o) {
    cell_compares += o.cell_compares;
    accumulations += o.accumulations;
    heap_offers += o.heap_offers;
    cells_decoded += o.cells_decoded;
    bound_checks += o.bound_checks;
    pairs_pruned += o.pairs_pruned;
    blocks_skipped += o.blocks_skipped;
    return *this;
  }

  // Snapshot delta (see obs/query_stats.h) — meaningful when `o` is an
  // earlier snapshot of the same accumulator.
  CpuStats operator-(const CpuStats& o) const {
    CpuStats d;
    d.cell_compares = cell_compares - o.cell_compares;
    d.accumulations = accumulations - o.accumulations;
    d.heap_offers = heap_offers - o.heap_offers;
    d.cells_decoded = cells_decoded - o.cells_decoded;
    d.bound_checks = bound_checks - o.bound_checks;
    d.pairs_pruned = pairs_pruned - o.pairs_pruned;
    d.blocks_skipped = blocks_skipped - o.blocks_skipped;
    return d;
  }

  // A single scalar for comparisons: every counted operation weighted
  // equally (callers can weight the fields themselves when they know
  // their machine). Skipped blocks record work avoided and do not
  // contribute.
  double Total() const {
    return static_cast<double>(cell_compares + accumulations + heap_offers +
                               cells_decoded);
  }

  std::string ToString() const {
    return "CpuStats{compares=" + std::to_string(cell_compares) +
           ", accum=" + std::to_string(accumulations) +
           ", heap=" + std::to_string(heap_offers) +
           ", decoded=" + std::to_string(cells_decoded) + "}";
  }
};

}  // namespace textjoin

#endif  // TEXTJOIN_JOIN_CPU_STATS_H_
