#include "kernel/kernels.h"
#include "kernel/kernels_common.h"

// The portable baseline table: compiled for the project's default
// architecture with no SIMD assumptions. Every other dispatch level must
// be bit-identical to this one (tests/kernel_test.cc sweeps the levels).

namespace textjoin {
namespace kernel {

namespace {

Status GvDecodeScalar(const uint8_t* bytes, int64_t byte_length, int64_t count,
                      ICell* out, int64_t* consumed) {
  return internal::GvDecodeScalarImpl(bytes, byte_length, count, out,
                                      consumed);
}

}  // namespace

namespace internal {

int64_t MergeLinearPortable(const DCell* a, int64_t na, const DCell* b,
                            int64_t nb, MergeCursor* cur, int64_t max_steps,
                            int32_t* match_a, int32_t* match_b,
                            int64_t* num_matches) {
  return MergeLinearScalarImpl(a, na, b, nb, cur, max_steps, match_a, match_b,
                               num_matches);
}

}  // namespace internal

const KernelTable kScalarTable = {
    "scalar", GvDecodeScalar, internal::MergeLinearPortable,
};

}  // namespace kernel
}  // namespace textjoin
