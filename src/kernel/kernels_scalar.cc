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

const KernelTable kScalarTable = {
    "scalar", GvDecodeScalar,
};

}  // namespace kernel
}  // namespace textjoin
