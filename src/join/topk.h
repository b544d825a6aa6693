#ifndef TEXTJOIN_JOIN_TOPK_H_
#define TEXTJOIN_JOIN_TOPK_H_

#include <cstdint>
#include <vector>

#include "text/types.h"

namespace textjoin {

// One (inner document, similarity) pair in a join result.
struct Match {
  DocId doc = 0;
  double score = 0;

  friend bool operator==(const Match& a, const Match& b) {
    return a.doc == b.doc && a.score == b.score;
  }
};

// Result ordering: higher score first; ties broken by ascending document
// number so all algorithms produce identical results.
inline bool BetterMatch(const Match& a, const Match& b) {
  return a.score != b.score ? a.score > b.score : a.doc < b.doc;
}

// Keeps the k best matches seen so far ("the lambda largest similarities
// computed so far", Section 4.1). Only matches with score > 0 are eligible
// — a document sharing no term is not similar. Add is O(log k) via a
// binary min-heap keyed by BetterMatch (worst kept match at the root).
class TopKAccumulator {
 public:
  explicit TopKAccumulator(int64_t k);

  // Offers a candidate; keeps it iff it beats the current worst.
  void Add(DocId doc, double score);

  int64_t size() const { return static_cast<int64_t>(heap_.size()); }
  int64_t k() const { return k_; }

  // The kept matches, best first. Leaves the accumulator empty (capacity
  // retained, so a reused accumulator does not reallocate per query).
  std::vector<Match> TakeSorted();

 private:
  int64_t k_;
  std::vector<Match> heap_;  // min-heap wrt BetterMatch
};

}  // namespace textjoin

#endif  // TEXTJOIN_JOIN_TOPK_H_
