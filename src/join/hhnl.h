#ifndef TEXTJOIN_JOIN_HHNL_H_
#define TEXTJOIN_JOIN_HHNL_H_

#include "join/executor.h"

namespace textjoin {

// Horizontal-Horizontal Nested Loop (Section 4.1): uses only the document
// collections. In forward order, batches of
//   X = floor((B - ceil(S1)) / (S2 + 4*lambda/P))
// outer (C2) documents are held in memory; for each batch the inner
// collection C1 is scanned once and every inner document is compared with
// every batched outer document, updating per-outer-document top-lambda
// heaps.
//
// The paper fixes only what stays resident and how often C1 is scanned;
// the in-memory comparison here is term-at-a-time. Each batch is indexed
// by term: every resident d-cell is held once, as a (uint32 slot, uint16
// weight) cell of 8 bytes — no more than the 8-byte DCell it replaces, and
// the batch's Document copies are dropped once indexed — plus a dense
// term directory of 4 bytes x (largest term id in the batch + 2). Each
// streamed document looks each of its terms up once and adds the products
// into a dense per-slot accumulator (8 bytes per slot), summing every
// pair's products in WeightedDot's order, so scores are bit-identical to a
// per-pair merge and page reads are the paper's.
//
// The backward order the paper mentions (process C1 as the outer loop;
// cheaper when C1 is much smaller than C2) is available as an option: it
// keeps a top-lambda heap for *every* participating C2 document for the
// whole run (the "many intermediate results" the paper notes), batching
//   X' = floor((B - ceil(S2) - 4*lambda*N2'/P) / S1)
// inner documents at a time (indexed the same way) and scanning C2 once
// per batch. Both orders produce identical results.
class HhnlJoin : public TextJoinAlgorithm {
 public:
  struct Options {
    bool backward = false;
  };

  HhnlJoin() : HhnlJoin(Options{}) {}
  explicit HhnlJoin(Options options) : options_(options) {}

  Algorithm kind() const override { return Algorithm::kHhnl; }

  Result<JoinResult> Run(const JoinContext& ctx,
                         const JoinSpec& spec) override;

  // The forward-order outer batch size the executor would use; exposed for
  // tests and model validation.
  static int64_t BatchSize(const JoinContext& ctx, const JoinSpec& spec);

 private:
  Result<JoinResult> RunForward(const JoinContext& ctx, const JoinSpec& spec);
  Result<JoinResult> RunBackward(const JoinContext& ctx,
                                 const JoinSpec& spec);

  Options options_;
};

}  // namespace textjoin

#endif  // TEXTJOIN_JOIN_HHNL_H_
