#ifndef TEXTJOIN_COST_CPU_MODEL_H_
#define TEXTJOIN_COST_CPU_MODEL_H_

#include "cost/cost_model.h"

namespace textjoin {

// Analytic CPU-work model — the Section 7 "further studies" extension
// ("develop cost formulas that include CPU cost"). Estimates the
// operation counts the executors meter in CpuStats (join/cpu_stats.h).
//
// Shared quantities, with m participating outer documents:
//   L1 = K1*N1/T1             average inverted-entry length on C1 (cells)
//   c  = q*K2*K1/T1           expected common terms of a document pair
//
// A useful invariant: the number of similarity *accumulations* is the
// same for all three algorithms —
//   sum over shared terms t of df1(t) * df2(t)  ~=  m * N1 * c
// — they differ in the surrounding work (HHNL indexes each resident batch
// and probes it with every streamed document, HVNL/VVM decode inverted
// cells), which is what makes CPU-aware ranking interesting when
// everything fits in memory.
struct CpuEstimate {
  double cell_compares = 0;
  double accumulations = 0;
  double heap_offers = 0;
  double cells_decoded = 0;

  double Total() const {
    return cell_compares + accumulations + heap_offers + cells_decoded;
  }
};

// HHNL's estimate is the forward order's (join/hhnl.h): with X = the
// forward batch size, every outer cell is indexed once and every inner
// cell probes each of the ceil(m/X) batches,
//   cell_compares = m*K2 + ceil(m/X)*N1*K1.
// VVM's estimate models its pass-slice block skip (join/vvm.h): every
// pass decodes C1's shared entries, but each C2 block is decoded and
// pass-filtered about once, in the pass owning its span.
CpuEstimate HhnlCpuCost(const CostInputs& in);
CpuEstimate HvnlCpuCost(const CostInputs& in);
CpuEstimate VvmCpuCost(const CostInputs& in);

// Combined cost in sequential-page-read units: I/O cost plus CPU
// operations divided by `ops_per_page_read` (how many counted operations
// take as long as one sequential page read on the target machine).
double CombinedCost(const AlgorithmCost& io, const CpuEstimate& cpu,
                    double ops_per_page_read);

}  // namespace textjoin

#endif  // TEXTJOIN_COST_CPU_MODEL_H_
