#include "cost/cost_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/math_util.h"

namespace textjoin {

namespace {

// Shared per-evaluation quantities: the memory formulas' sizes plus the
// collection and device quantities of the cost formulas.
struct Derived : MemoryInputs {
  double alpha;
  double T1, T2;           // distinct terms
  double D1;               // inner collection pages
  double D2_eff;           // pages occupied by participating outer docs
  double I1, I2;           // inverted file pages
  bool outer_random;

  // Cost of bringing in the participating outer documents once.
  // Sequential scan when they are contiguous; one random read per
  // document's page span when they are scattered (Group 3).
  double OuterDocCost() const {
    if (!outer_random) return D2_eff;
    return m * std::ceil(S2) * alpha;
  }
};

Derived MakeDerived(const CostInputs& in) {
  Derived d;
  static_cast<MemoryInputs&>(d) = MemoryInputsOf(in);
  d.alpha = in.sys.alpha;
  d.T1 = static_cast<double>(in.c1.num_distinct_terms);
  d.T2 = static_cast<double>(in.c2.num_distinct_terms);
  d.D1 = in.c1.CollectionPages(in.sys.page_size);
  d.D2_eff = d.m * d.S2;
  d.I1 = in.c1.InvertedFilePages(in.sys.page_size);
  d.I2 = in.c2.InvertedFilePages(in.sys.page_size);
  d.outer_random = in.outer_reads_random;
  return d;
}

// The cost whose totals are the sums of `phases`.
AlgorithmCost Summed(std::string note, std::vector<PhaseCost> phases) {
  AlgorithmCost c;
  for (const PhaseCost& p : phases) {
    c.seq += p.seq;
    c.rand += p.rand;
  }
  c.note = std::move(note);
  c.phases = std::move(phases);
  return c;
}

// floor() with protection against 49.999999-style floating-point error.
double FloorEps(double x) { return std::floor(x + 1e-9); }

}  // namespace

const char* AlgorithmName(Algorithm a) {
  switch (a) {
    case Algorithm::kHhnl:
      return "HHNL";
    case Algorithm::kHvnl:
      return "HVNL";
    case Algorithm::kVvm:
      return "VVM";
  }
  return "?";
}

double ParticipatingOuter(const CostInputs& in) {
  const double N2 = static_cast<double>(in.c2.num_documents);
  return in.participating_outer < 0
             ? N2
             : std::min(static_cast<double>(in.participating_outer), N2);
}

AlgorithmCost InfeasibleCost(std::string note) {
  AlgorithmCost c;
  c.seq = std::numeric_limits<double>::infinity();
  c.rand = c.seq;
  c.feasible = false;
  c.note = std::move(note);
  return c;
}

double EstimateTermOverlap(int64_t t_from, int64_t t_to) {
  TEXTJOIN_CHECK_GT(t_from, 0);
  TEXTJOIN_CHECK_GT(t_to, 0);
  const double from = static_cast<double>(t_from);
  const double to = static_cast<double>(t_to);
  if (to <= from) return 0.8 * to / from;
  if (to < 5.0 * from) return 0.8;
  return 1.0 - from / to;
}

double DistinctTermsAfter(double m, double avg_terms_per_doc,
                          int64_t num_distinct_terms) {
  const double T = static_cast<double>(num_distinct_terms);
  if (T <= 0.0) return 0.0;
  const double ratio = 1.0 - avg_terms_per_doc / T;  // in [0, 1]
  if (ratio <= 0.0) return T;
  return T - std::pow(ratio, m) * T;
}

MemoryInputs MemoryInputsOf(const CostInputs& in) {
  const int64_t P = in.sys.page_size;
  MemoryInputs mem;
  mem.B = static_cast<double>(in.sys.buffer_pages);
  mem.P = static_cast<double>(P);
  mem.lambda = static_cast<double>(in.query.lambda);
  mem.delta = in.query.delta;
  mem.N1 = static_cast<double>(in.c1.num_documents);
  mem.m = ParticipatingOuter(in);
  mem.S1 = in.c1.AvgDocPages(P);
  mem.S2 = in.c2.AvgDocPages(P);
  mem.J1 = in.c1.AvgEntryPages(P);
  mem.J2 = in.c2.AvgEntryPages(P);
  mem.Bt1 = static_cast<double>(CeilPages(in.c1.BTreePages(P)));
  return mem;
}

double HhnlBatchSize(const MemoryInputs& mem) {
  const double denom = mem.S2 + 4.0 * mem.lambda / mem.P;
  if (denom <= 0.0) return 0.0;
  return FloorEps((mem.B - std::ceil(mem.S1)) / denom);
}

double HhnlBackwardBatchSize(const MemoryInputs& mem) {
  if (mem.S1 <= 0.0) return 0.0;
  const double heap_pages = 4.0 * mem.lambda * mem.m / mem.P;
  return FloorEps((mem.B - std::ceil(mem.S2) - heap_pages) / mem.S1);
}

double HvnlCacheCapacity(const MemoryInputs& mem) {
  const double accumulator = 4.0 * mem.N1 * mem.delta / mem.P;
  const double per_entry = mem.J1 + 3.0 / mem.P;  // |t#| = 3 bytes
  if (per_entry <= 0.0) return 0.0;
  return FloorEps((mem.B - std::ceil(mem.S2) - mem.Bt1 - accumulator) /
                  per_entry);
}

int64_t VvmPasses(const MemoryInputs& mem) {
  const double M = mem.B - std::ceil(mem.J1) - std::ceil(mem.J2);
  if (M <= 0.0) return -1;
  const double SM = 4.0 * mem.delta * mem.N1 * mem.m / mem.P;
  return std::max<int64_t>(1, CeilPages(SM / M));
}

double HvnlNeededEntries(const CostInputs& in) {
  const double m = ParticipatingOuter(in);
  if (m < static_cast<double>(in.c2.num_documents)) {
    return in.q * DistinctTermsAfter(m, in.c2.avg_terms_per_doc,
                                     in.c2.num_distinct_terms);
  }
  return in.q * static_cast<double>(in.c2.num_distinct_terms);
}

double HvnlReadsAfterFill(const CostInputs& in, double X) {
  const double m = ParticipatingOuter(in);
  const double K2 = in.c2.avg_terms_per_doc;
  const double T2 = static_cast<double>(in.c2.num_distinct_terms);
  auto qf = [&](double mm) {
    return in.q * DistinctTermsAfter(mm, K2, in.c2.num_distinct_terms);
  };
  // Smallest integer s with q*f(s) > X (closed form via logarithms).
  double s = 1.0;
  const double ratio = 1.0 - K2 / std::max(T2, 1.0);
  if (in.q > 0.0 && ratio > 0.0 && ratio < 1.0) {
    const double arg = 1.0 - X / (in.q * T2);
    s = arg <= 0.0 ? m : std::floor(std::log(arg) / std::log(ratio)) + 1.0;
    while (s > 1.0 && qf(s - 1.0) > X) s -= 1.0;
    while (qf(s) <= X && s < m) s += 1.0;
  }
  s = std::min(s, m);
  const double fs = qf(s), fs1 = qf(s - 1.0);
  const double X1 = (fs - fs1) > 0.0 ? (X - fs1) / (fs - fs1) : 0.0;
  const double Y = std::max(qf(s + X1) - X, 0.0);
  return std::max(m - s - X1 + 1.0, 0.0) * Y;
}

AlgorithmCost HhnlCost(const CostInputs& in) {
  const Derived d = MakeDerived(in);
  const double X = HhnlBatchSize(d);
  if (X < 1.0) {
    return InfeasibleCost("HHNL: buffer cannot hold one outer + one inner doc");
  }
  // hhs = D2 + ceil(N2/X) * D1  (outer scan + repeated inner scans).
  const double scans = std::ceil(d.m / X);
  const double outer = d.OuterDocCost();
  PhaseCost scan_inner{phase::kScanInner, scans * d.D1, scans * d.D1};
  std::string note;
  if (d.m >= X) {
    // Worst case: every inner document read becomes a positioned I/O, plus
    // one positioned I/O per outer batch.
    const double inner_rand = std::min(d.D1, d.N1);
    scan_inner.rand += scans * (1.0 + inner_rand) * (d.alpha - 1.0);
    note = "outer does not fit in memory";
  } else {
    // Whole outer collection fits; the inner collection is read in blocks
    // using the leftover space, one positioned I/O per block.
    const double leftover = (X - d.m) * d.S2;
    const double blocks = std::ceil(d.D1 / std::max(leftover, 1e-12));
    scan_inner.rand += blocks * (d.alpha - 1.0);
    note = "outer fits in memory";
  }
  return Summed(std::move(note),
                {{phase::kReadOuter, outer, outer}, scan_inner});
}

AlgorithmCost HhnlBackwardCost(const CostInputs& in) {
  const Derived d = MakeDerived(in);
  const double X = HhnlBackwardBatchSize(d);
  if (X < 1.0) {
    return InfeasibleCost(
        "HHNL backward: buffer cannot hold the per-outer-document heaps "
        "plus one document of each collection");
  }
  // The outer collection is re-read once per inner batch. Worst case:
  // inner documents become positioned reads, plus one positioned read per
  // outer pass.
  const double scans = std::ceil(d.N1 / X);
  const double inner_rand = std::min(d.D1, d.N1);
  const double outer_rand =
      d.outer_random ? 0.0 : scans * std::min(d.D2_eff, d.m);
  const double rescan = scans * d.OuterDocCost();
  return Summed(
      std::to_string(static_cast<int64_t>(scans)) + " outer pass(es)",
      {{phase::kReadInnerBatch, d.D1, d.D1 + inner_rand * (d.alpha - 1.0)},
       {phase::kRescanOuter, rescan,
        rescan + outer_rand * (d.alpha - 1.0)}});
}

AlgorithmCost HvnlCost(const CostInputs& in) {
  const Derived d = MakeDerived(in);
  const double X = HvnlCacheCapacity(d);
  if (X < 0.0) {
    return InfeasibleCost(
        "HVNL: buffer cannot hold B+tree, accumulator and one outer doc");
  }
  const double cJ1 = std::ceil(std::max(d.J1, 1e-12));
  const double needed = HvnlNeededEntries(in);
  const double fetch_needed = needed * cJ1 * d.alpha;
  // Extra cost of reading outer documents with positioned I/Os, using
  // leftover cache space to read several documents per positioned I/O.
  auto rand_tail = [&](double cache_left_entries) {
    if (d.outer_random) return 0.0;  // already charged at alpha
    const double left_pages = cache_left_entries * d.J1;
    if (left_pages <= 0.0) {
      return std::min(d.D2_eff, d.m) * (d.alpha - 1.0);
    }
    return std::ceil(d.D2_eff / left_pages) * (d.alpha - 1.0);
  };

  const double outer = d.OuterDocCost();
  PhaseCost read_outer{phase::kReadOuter, outer, outer};
  PhaseCost probe{phase::kProbeEntries, 0, 0};
  std::string note;
  if (X >= d.T1) {
    // Case 1: the whole inverted file of C1 fits in the cache. Either scan
    // it in sequentially or fetch only the needed entries randomly; the
    // seq and rand minima may pick different branches.
    probe.seq = std::min(d.I1, fetch_needed);
    const double scan_tail = rand_tail(X - d.T1);
    const double fetch_tail = rand_tail(X - needed);
    const bool scan = d.I1 + scan_tail <= fetch_needed + fetch_tail;
    probe.rand = scan ? d.I1 : fetch_needed;
    read_outer.rand += scan ? scan_tail : fetch_tail;
    note = "cache holds entire inverted file";
  } else if (X >= needed) {
    // Case 2: all *needed* entries fit; each is fetched exactly once.
    probe.seq = fetch_needed;
    probe.rand = fetch_needed;
    read_outer.rand += rand_tail(X - needed);
    note = "cache holds all needed entries";
  } else {
    // Case 3: the cache fills with X entries, then every later outer
    // document forces fresh entry reads; no cache space is left over.
    probe.seq = X * cJ1 * d.alpha + HvnlReadsAfterFill(in, X) * cJ1 * d.alpha;
    probe.rand = probe.seq;
    read_outer.rand += rand_tail(0.0);
    note = "cache thrashes (case 3)";
  }
  return Summed(std::move(note),
                {read_outer, {phase::kLoadBtree, d.Bt1, d.Bt1}, probe});
}

AlgorithmCost VvmCost(const CostInputs& in) {
  const Derived d = MakeDerived(in);
  const int64_t passes = VvmPasses(d);
  if (passes < 0) {
    return InfeasibleCost("VVM: buffer cannot hold two inverted entries");
  }
  const double p = static_cast<double>(passes);
  return Summed(std::to_string(passes) + " pass(es)",
                {{phase::kMergeScan, (d.I1 + d.I2) * p,
                  (std::min(d.I1, d.T1) + std::min(d.I2, d.T2)) * d.alpha *
                      p}});
}

const AlgorithmCost& CostComparison::of(Algorithm a) const {
  switch (a) {
    case Algorithm::kHhnl:
      return hhnl;
    case Algorithm::kHvnl:
      return hvnl;
    case Algorithm::kVvm:
      return vvm;
  }
  return hhnl;
}

AlgorithmCost& CostComparison::of(Algorithm a) {
  return const_cast<AlgorithmCost&>(
      static_cast<const CostComparison*>(this)->of(a));
}

namespace {
Algorithm BestBy(const CostComparison& c, double AlgorithmCost::*field) {
  Algorithm best = Algorithm::kHhnl;
  double best_cost = c.hhnl.*field;
  if (c.hvnl.*field < best_cost) {
    best = Algorithm::kHvnl;
    best_cost = c.hvnl.*field;
  }
  if (c.vvm.*field < best_cost) {
    best = Algorithm::kVvm;
  }
  return best;
}
}  // namespace

Algorithm CostComparison::BestSequential() const {
  return BestBy(*this, &AlgorithmCost::seq);
}

Algorithm CostComparison::BestRandom() const {
  return BestBy(*this, &AlgorithmCost::rand);
}

CostComparison CompareCosts(const CostInputs& in) {
  CostComparison c;
  c.hhnl = HhnlCost(in);
  c.hvnl = HvnlCost(in);
  c.vvm = VvmCost(in);
  return c;
}

}  // namespace textjoin
