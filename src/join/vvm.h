#ifndef TEXTJOIN_JOIN_VVM_H_
#define TEXTJOIN_JOIN_VVM_H_

#include "join/executor.h"

namespace textjoin {

// Vertical-Vertical Merge (Section 4.3): scans the inverted files on both
// collections in parallel (both are sorted by term number, so one scan of
// each suffices, like the merge phase of sort-merge) and accumulates
// similarities for every document pair simultaneously.
//
// Memory: the intermediate similarities need SM = 4*delta*N1*N2/P pages;
// the buffer provides M = B - ceil(J1) - ceil(J2). When SM > M, the outer
// collection is divided into ceil(SM/M) subcollections and both inverted
// files are rescanned once per subcollection (the paper's extension).
// Each pass still reads both files in full, but decodes and filters only
// the C2 posting blocks whose document span overlaps its subcollection
// (the pass-slice block skip).
//
// The matrix itself is a dense slab of doubles: one row of N1 sums per
// outer document of a pass, slot-major, allocated once and drained row by
// row (DrainPositive, join/topk.h) after each pass. For m participating
// outer documents that is 8*N1*ceil(m/passes) bytes whatever the fill; by
// Passes' formula at most 2*M*P/delta + 8*N1 bytes. Passes keeps the
// paper's SM charge.
class VvmJoin : public TextJoinAlgorithm {
 public:
  Algorithm kind() const override { return Algorithm::kVvm; }

  Result<JoinResult> Run(const JoinContext& ctx,
                         const JoinSpec& spec) override;

  // Number of scan passes ceil(SM/M) the executor would use; -1 when the
  // buffer cannot hold even two inverted entries.
  static int64_t Passes(const JoinContext& ctx, const JoinSpec& spec);
};

}  // namespace textjoin

#endif  // TEXTJOIN_JOIN_VVM_H_
