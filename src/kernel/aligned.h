#ifndef TEXTJOIN_KERNEL_ALIGNED_H_
#define TEXTJOIN_KERNEL_ALIGNED_H_

#include <cstddef>
#include <new>
#include <vector>

#include "text/types.h"

namespace textjoin {
namespace kernel {

// Minimal over-aligning allocator so decoded posting cells start on a
// vector-register boundary. The SIMD decoders use unaligned stores —
// correctness never depends on this — but an aligned base keeps their
// 16-byte stores of two cells from straddling a cache line.
template <typename T, std::size_t Alignment>
class AlignedAllocator {
 public:
  using value_type = T;
  static_assert(Alignment >= alignof(T), "alignment below the type's own");
  static_assert((Alignment & (Alignment - 1)) == 0, "alignment not a power of 2");

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Alignment}));
  }
  void deallocate(T* p, std::size_t) {
    ::operator delete(p, std::align_val_t{Alignment});
  }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&) {
    return false;
  }
};

// Decoded posting cells, 32-byte aligned for the AVX2 4-cell stores.
using ICellBuffer = std::vector<ICell, AlignedAllocator<ICell, 32>>;

}  // namespace kernel
}  // namespace textjoin

#endif  // TEXTJOIN_KERNEL_ALIGNED_H_
