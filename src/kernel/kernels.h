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
// Floating-point bit-identity (DESIGN.md section 13): no kernel here
// computes a floating-point value. Block decode is integer work, exact at
// every level by construction. Every score product and sum is computed by
// plain scalar code above this layer (the executors' scatter into their
// dense accumulators, WeightedDot's term merge), so the dispatch level
// cannot change a score bit.

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
