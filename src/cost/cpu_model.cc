#include "cost/cpu_model.h"

#include <algorithm>
#include <cmath>

namespace textjoin {

namespace {

struct CpuDerived {
  double m;        // participating outer documents
  double N1, K1, T1;
  double K2;
  double L1;       // average entry length on C1, in cells
  double common;   // expected common terms of a pair: q*K2*K1/T1
  double delta;
  double q;
};

CpuDerived Derive(const CostInputs& in) {
  CpuDerived d;
  d.N1 = static_cast<double>(in.c1.num_documents);
  d.K1 = in.c1.avg_terms_per_doc;
  d.T1 = std::max(1.0, static_cast<double>(in.c1.num_distinct_terms));
  d.K2 = in.c2.avg_terms_per_doc;
  d.m = ParticipatingOuter(in);
  d.L1 = d.K1 * d.N1 / d.T1;
  d.q = in.q;
  // Expected common terms of a pair. Under uniform term usage this is
  // q*K2*K1/T1; skewed document frequencies concentrate pairs on the
  // same head terms, scaling the expectation by ~sqrt(skew1*skew2)
  // (exact when both collections use the ranks in the same order).
  d.common = in.q * d.K2 * d.K1 / d.T1 *
             std::sqrt(in.c1.df_skew * in.c2.df_skew);
  d.delta = in.query.delta;
  return d;
}

}  // namespace

CpuEstimate HhnlCpuCost(const CostInputs& in) {
  CpuDerived d = Derive(in);
  CpuEstimate e;
  // Each batch indexes its outer cells once; every inner document then
  // looks each of its cells up once per batch.
  const double batches = std::ceil(d.m / std::max(1.0, HhnlBatchSize(in)));
  e.cell_compares = d.m * d.K2 + batches * d.N1 * d.K1;
  e.accumulations = d.m * d.N1 * d.common;
  // Only non-zero pairs reach the heap.
  e.heap_offers = d.m * d.N1 * d.delta;
  e.cells_decoded = 0;  // HHNL reads documents, not inverted cells
  return e;
}

CpuEstimate HvnlCpuCost(const CostInputs& in) {
  CpuDerived d = Derive(in);
  CpuEstimate e;
  // Each outer document touches q*K2 entries, whether they come from
  // cache or disk; the cell volume is the same per-pair accumulation
  // count as the other algorithms (m * N1 * common).
  e.accumulations = d.m * d.N1 * d.common;
  // Posting-cell visits: each outer document scatters along its q*K2
  // probed entries, L1 cells each.
  e.cell_compares = d.m * d.q * d.K2 * d.L1;
  // Only entries actually fetched from disk are decoded. Reuse the I/O
  // model's casework: fetched entries = needed when they all fit, else
  // the cache fills (X) and every later document reads fresh entries.
  const double X = std::max(0.0, HvnlCacheCapacity(in));
  const double needed = HvnlNeededEntries(in);
  const double fetched =
      X >= needed ? needed : X + HvnlReadsAfterFill(in, X);
  e.cells_decoded = fetched * d.L1;
  // Per outer document the accumulator holds ~delta*N1 non-zero scores.
  e.heap_offers = d.m * d.delta * d.N1;
  return e;
}

CpuEstimate VvmCpuCost(const CostInputs& in) {
  CpuDerived d = Derive(in);
  CpuEstimate e;
  // Same pairwise accumulation volume as the other algorithms.
  e.accumulations = d.m * d.N1 * d.common;
  // C1 is decoded once per pass; the pass-slice skip decodes (and
  // pass-filters) each C2 block only in the pass owning its document span.
  const double passes =
      static_cast<double>(std::max<int64_t>(1, VvmPasses(in)));
  const double cells1 = d.K1 * d.N1;
  const double cells2 =
      d.K2 * static_cast<double>(in.c2.num_documents);
  e.cells_decoded = cells2 + passes * cells1;
  // Posting-cell visits: every C2 cell is checked against its pass's
  // filter, and each participating outer cell scatters along its shared C1
  // entry (L1 cells) in the one pass that owns it.
  const double entry_visits = d.m * d.q * d.K2 * d.L1;
  e.cell_compares = cells2 + entry_visits;
  e.heap_offers = d.m * d.delta * d.N1;
  return e;
}

double CombinedCost(const AlgorithmCost& io, const CpuEstimate& cpu,
                    double ops_per_page_read) {
  if (!io.feasible) return io.seq;  // +inf
  return io.seq + cpu.Total() / ops_per_page_read;
}

}  // namespace textjoin
