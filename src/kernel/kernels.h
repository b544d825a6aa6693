#ifndef TEXTJOIN_KERNEL_KERNELS_H_
#define TEXTJOIN_KERNEL_KERNELS_H_

#include <cstdint>

#include "common/status.h"
#include "text/types.h"

namespace textjoin {
namespace kernel {

// The hot-path kernel table: one function pointer per kernel family, with
// a scalar baseline and SIMD variants selected by kernel/dispatch.h. Every
// variant of a kernel is an exact drop-in for the scalar one — same
// outputs bit for bit, same failure classification — so the executors
// above never need to know which level ran.
//
// Floating-point bit-identity argument (DESIGN.md section 13): the SIMD
// variants vectorize only work whose fp result is order-free — individual
// products (each computed by the same sequence of IEEE-exact operations
// per element) and min/max lattices — while every ORDER-SENSITIVE
// reduction (score accumulation) stays a sequential in-order sum in both
// arms. In-order reduction was chosen over pairwise deliberately: the
// executors' accumulator loops scatter into per-candidate slots in
// ascending term order, an order pairwise reduction cannot reproduce, and
// cross-executor bit-identity (HHNL == HVNL == VVM) has been a tested
// invariant since PR 1.

// Cursor of the two-pointer term merge between two sorted d-cell arrays.
struct MergeCursor {
  int64_t i = 0;  // position in a
  int64_t j = 0;  // position in b
};

struct KernelTable {
  const char* name;

  // Decodes one group-varint posting block: `count` (gap, weight) value
  // pairs, gaps delta-restored against `first` semantics (the first gap is
  // the absolute document number). Writes exactly `count` cells to `out`
  // on success and sets `*consumed` to the encoded byte length. Fail
  // closed: any read past `bytes + byte_length`, a decoded document number
  // above kMaxDocId, a weight above 0xFFFF, or a nonzero unused control
  // slot returns kDataLoss with nothing guaranteed about `out` —
  // corrupt pages reach this path through the chaos suite's bit flips.
  Status (*gv_decode)(const uint8_t* bytes, int64_t byte_length,
                      int64_t count, ICell* out, int64_t* consumed);

  // Scoring kernel behind the HVNL/VVM accumulator loops:
  //   out[k] = (double(cells[k].weight) * w2) * factor
  // — the exact expression (and association order) the scalar loops used,
  // evaluated per lane, so the later in-order adds are bit-identical.
  void (*scale_cells)(const ICell* cells, int64_t n, double w2, double factor,
                      double* out);

  // Advances the linear term merge of WeightedDot by at most `max_steps`
  // logical steps (one step = one iteration of the scalar two-pointer
  // walk), appending matched index pairs in ascending term order. Returns
  // the steps actually taken; `cur` is updated in place. Every level
  // shares the portable walk — vectorizing it lost to the predictable
  // scalar loop in measurement (see MergeLinearPortable in
  // kernels_common.h) — so merge-step metering is trivially identical at
  // every level. `match_a` / `match_b` must have room for `max_steps`
  // entries (matches <= steps).
  int64_t (*merge_linear)(const DCell* a, int64_t na, const DCell* b,
                          int64_t nb, MergeCursor* cur, int64_t max_steps,
                          int32_t* match_a, int32_t* match_b,
                          int64_t* num_matches);
};

// The per-level tables (defined in kernels_<level>.cc; the SIMD ones only
// when the compiler supports the instruction set).
extern const KernelTable kScalarTable;
#ifdef TEXTJOIN_HAVE_SSE42
extern const KernelTable kSse42Table;
#endif
#ifdef TEXTJOIN_HAVE_AVX2
extern const KernelTable kAvx2Table;
#endif

}  // namespace kernel
}  // namespace textjoin

#endif  // TEXTJOIN_KERNEL_KERNELS_H_
