#ifndef TEXTJOIN_JOIN_BATCH_INDEX_H_
#define TEXTJOIN_JOIN_BATCH_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.h"
#include "join/cpu_stats.h"
#include "join/similarity.h"
#include "join/topk.h"
#include "text/document.h"

namespace textjoin {

// Term-at-a-time index of a batch of in-memory documents: for each term,
// the (slot, weight) cells of the resident documents holding it, in slot
// order. A streamed document walks its cells in ascending term order and
// adds each product into a dense per-slot accumulator, so every pair sums
// the same products in the same order as WeightedDot — bit-identical
// scores. HHNL indexes its resident batch (join/hhnl.cc); a join of
// collection views indexes one side's in-memory delta
// (dynamic/delta_join.cc).
class BatchIndex {
 public:
  // Indexes `docs`; docs[i] becomes slot i. The caller may drop the
  // documents afterwards. Each indexed cell counts as one cell compare.
  void Build(std::span<const Document* const> docs, CpuStats* cpu) {
    TermId max_term = 0;
    size_t total = 0;
    for (const Document* d : docs) {
      if (!d->empty()) max_term = std::max(max_term, d->cells().back().term);
      total += d->cells().size();
    }
    TEXTJOIN_CHECK_LT(total, size_t{UINT32_MAX});
    // Counting sort by term: start_[t] becomes the first cell of term t and
    // start_[t + 1] its end.
    start_.assign(static_cast<size_t>(max_term) + 2, 0);
    for (const Document* d : docs) {
      for (const DCell& c : d->cells()) ++start_[c.term + 1];
    }
    for (size_t t = 1; t < start_.size(); ++t) start_[t] += start_[t - 1];
    cells_.resize(total);
    for (size_t slot = 0; slot < docs.size(); ++slot) {
      for (const DCell& c : docs[slot]->cells()) {
        cells_[start_[c.term]++] = Cell{static_cast<uint32_t>(slot), c.weight};
      }
    }
    // Placing advanced each start_[t] to term t's end, which is term
    // t + 1's start: shift the directory back by one.
    std::copy_backward(start_.begin(), start_.end() - 1, start_.end());
    start_[0] = 0;
    acc_.assign(docs.size(), 0.0);
    if (cpu != nullptr) cpu->cell_compares += static_cast<int64_t>(total);
  }

  // Scores the streamed document `doc` against every resident document and
  // calls emit(slot, sum) for each slot whose accumulated sum is above 0,
  // in ascending slot order. Each of doc's cells counts as one compare.
  template <typename Emit>
  void Probe(const Document& doc, const SimilarityContext& sim, CpuStats* cpu,
             Emit&& emit) {
    int64_t adds = 0;
    for (const DCell& c : doc.cells()) {
      // Terms are ascending, so past the batch's largest term, stop.
      if (c.term + size_t{1} >= start_.size()) break;
      const uint32_t lo = start_[c.term];
      const uint32_t hi = start_[c.term + 1];
      if (lo == hi) continue;
      const double w = static_cast<double>(c.weight);
      const double factor = sim.TermFactor(c.term);
      for (uint32_t k = lo; k < hi; ++k) {
        const Cell& r = cells_[k];
        acc_[r.slot] += w * static_cast<double>(r.weight) * factor;
      }
      adds += hi - lo;
    }
    const int64_t offers = DrainPositive(acc_, emit);
    if (cpu != nullptr) {
      cpu->cell_compares += doc.num_terms();
      cpu->accumulations += adds;
      cpu->heap_offers += offers;
    }
  }

 private:
  struct Cell {
    uint32_t slot;
    Weight weight;
  };
  static_assert(sizeof(Cell) <= sizeof(DCell),
                "an indexed cell must take no more memory than a d-cell");

  std::vector<uint32_t> start_;  // dense term directory, max term + 2
  std::vector<Cell> cells_;      // grouped by term, slot order within
  std::vector<double> acc_;      // per-slot sums of the streamed document
};

}  // namespace textjoin

#endif  // TEXTJOIN_JOIN_BATCH_INDEX_H_
