#include "cost/comm_model.h"

#include <algorithm>

#include "text/types.h"

namespace textjoin {

namespace {

// Shared quantities in bytes.
struct CommDerived {
  double docs1_bytes;  // whole C1 as documents
  double docs2_bytes;  // participating C2 documents
  double inv1_bytes;   // inverted file on C1
  double inv2_bytes;   // inverted file on C2 (always the full file)
  double btree1_bytes; // C1 B+tree leaf level
  double needed_entry_bytes;  // the inverted entries HVNL touches
  double result_bytes;
};

CommDerived Derive(const CostInputs& in, double term_expansion) {
  CommDerived d;
  const double N1 = static_cast<double>(in.c1.num_documents);
  const double N2 = static_cast<double>(in.c2.num_documents);
  const double m = ParticipatingOuter(in);
  const double cell = static_cast<double>(kDCellBytes) * term_expansion;
  d.docs1_bytes = N1 * in.c1.avg_terms_per_doc * cell;
  d.docs2_bytes = m * in.c2.avg_terms_per_doc * cell;
  d.inv1_bytes = d.docs1_bytes;  // same cell count, |d#| == |t#|
  d.inv2_bytes = N2 * in.c2.avg_terms_per_doc * cell;
  d.btree1_bytes =
      9.0 * static_cast<double>(in.c1.num_distinct_terms) * term_expansion;
  // Needed entries (HvnlNeededEntries) of average length L1 = K1*N1/T1
  // cells.
  const double T1 = std::max(
      1.0, static_cast<double>(in.c1.num_distinct_terms));
  const double entry_len_cells = in.c1.avg_terms_per_doc * N1 / T1;
  d.needed_entry_bytes = HvnlNeededEntries(in) * entry_len_cells * cell;
  // Result rows: (document number, 4-byte similarity) per match.
  d.result_bytes = m * static_cast<double>(in.query.lambda) *
                   (3.0 + static_cast<double>(kSimilarityBytes));
  return d;
}

}  // namespace

const char* ExecutionSiteName(ExecutionSite site) {
  switch (site) {
    case ExecutionSite::kInnerSite:
      return "inner-site";
    case ExecutionSite::kOuterSite:
      return "outer-site";
    case ExecutionSite::kThirdSite:
      return "third-site";
  }
  return "?";
}

CommEstimate HhnlCommCost(const CostInputs& in, ExecutionSite site,
                          double term_expansion) {
  CommDerived d = Derive(in, term_expansion);
  CommEstimate e;
  switch (site) {
    case ExecutionSite::kInnerSite:
      e.input_bytes = d.docs2_bytes;
      break;
    case ExecutionSite::kOuterSite:
      e.input_bytes = d.docs1_bytes;
      break;
    case ExecutionSite::kThirdSite:
      e.input_bytes = d.docs1_bytes + d.docs2_bytes;
      break;
  }
  e.result_bytes = site == ExecutionSite::kThirdSite ? 0 : d.result_bytes;
  return e;
}

CommEstimate HvnlCommCost(const CostInputs& in, ExecutionSite site,
                          double term_expansion) {
  CommDerived d = Derive(in, term_expansion);
  CommEstimate e;
  switch (site) {
    case ExecutionSite::kInnerSite:
      // The inverted file and B+tree are already local.
      e.input_bytes = d.docs2_bytes;
      break;
    case ExecutionSite::kOuterSite:
      e.input_bytes = d.needed_entry_bytes + d.btree1_bytes;
      break;
    case ExecutionSite::kThirdSite:
      e.input_bytes =
          d.docs2_bytes + d.needed_entry_bytes + d.btree1_bytes;
      break;
  }
  e.result_bytes = site == ExecutionSite::kThirdSite ? 0 : d.result_bytes;
  return e;
}

CommEstimate VvmCommCost(const CostInputs& in, ExecutionSite site,
                         double term_expansion) {
  CommDerived d = Derive(in, term_expansion);
  CommEstimate e;
  switch (site) {
    case ExecutionSite::kInnerSite:
      e.input_bytes = d.inv2_bytes;
      break;
    case ExecutionSite::kOuterSite:
      e.input_bytes = d.inv1_bytes;
      break;
    case ExecutionSite::kThirdSite:
      e.input_bytes = d.inv1_bytes + d.inv2_bytes;
      break;
  }
  e.result_bytes = site == ExecutionSite::kThirdSite ? 0 : d.result_bytes;
  return e;
}

ExecutionSite CheapestSite(Algorithm algorithm, const CostInputs& in,
                           double term_expansion) {
  auto cost = [&](ExecutionSite site) {
    switch (algorithm) {
      case Algorithm::kHhnl:
        return HhnlCommCost(in, site, term_expansion).TotalBytes();
      case Algorithm::kHvnl:
        return HvnlCommCost(in, site, term_expansion).TotalBytes();
      case Algorithm::kVvm:
        return VvmCommCost(in, site, term_expansion).TotalBytes();
    }
    return 0.0;
  };
  ExecutionSite best = ExecutionSite::kInnerSite;
  double best_cost = cost(best);
  for (ExecutionSite site :
       {ExecutionSite::kOuterSite, ExecutionSite::kThirdSite}) {
    double c = cost(site);
    if (c < best_cost) {
      best = site;
      best_cost = c;
    }
  }
  return best;
}

DistributedPlan ChooseDistributedPlan(const CostInputs& in,
                                      double network_page_cost,
                                      double term_expansion) {
  DistributedPlan best;
  auto consider = [&](Algorithm algorithm, const AlgorithmCost& io,
                      ExecutionSite site, const CommEstimate& comm) {
    if (!io.feasible) return;
    const double comm_pages = comm.TotalPages(in.sys.page_size);
    const double total = io.seq + network_page_cost * comm_pages;
    if (!best.feasible || total < best.total_cost) {
      best = DistributedPlan{algorithm, site, io.seq, comm_pages, total,
                             true};
    }
  };
  const AlgorithmCost hh = HhnlCost(in);
  const AlgorithmCost hv = HvnlCost(in);
  const AlgorithmCost vv = VvmCost(in);
  for (ExecutionSite site :
       {ExecutionSite::kInnerSite, ExecutionSite::kOuterSite,
        ExecutionSite::kThirdSite}) {
    consider(Algorithm::kHhnl, hh, site,
             HhnlCommCost(in, site, term_expansion));
    consider(Algorithm::kHvnl, hv, site,
             HvnlCommCost(in, site, term_expansion));
    consider(Algorithm::kVvm, vv, site,
             VvmCommCost(in, site, term_expansion));
  }
  return best;
}

}  // namespace textjoin
