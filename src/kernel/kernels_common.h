#ifndef TEXTJOIN_KERNEL_KERNELS_COMMON_H_
#define TEXTJOIN_KERNEL_KERNELS_COMMON_H_

// Internal to src/kernel: the portable scalar implementations, inline so
// the SIMD translation units reuse them for partial groups, short inputs
// and array tails. Every SIMD kernel is "vector main loop + these tails",
// which is also the shape of the bit-identity argument: whatever the
// vector loop does must land in exactly the state this code would have
// produced.

#include <algorithm>
#include <cstdint>

#include "common/status.h"
#include "kernel/group_varint.h"
#include "kernel/kernels.h"
#include "text/types.h"

namespace textjoin {
namespace kernel {
namespace internal {

// Mutable state of a group-varint block decode: payload cursor, document
// accumulator (uint64 so corrupt gaps saturate the range check instead of
// wrapping), and the index of the next value.
struct GvCursor {
  const uint8_t* p = nullptr;
  uint64_t doc = 0;
  int64_t v = 0;
};

// Validates and stores the two cells of one expanded group (or one cell
// for a partial group). `vals` holds `used` raw values starting at value
// index cur->v; `used` is always even (2 values per cell, groups aligned
// to cells), so vals[0] is a gap and every (gap, weight) pair is whole.
inline Status GvEmitValues(const uint32_t* vals, int used, GvCursor* cur,
                           ICell* out) {
  for (int k = 0; k < used; k += 2) {
    cur->doc += vals[k];
    const uint32_t w = vals[k + 1];
    if (cur->doc > kMaxDocId || w > 0xFFFFu) {
      return Status::DataLoss("posting cell out of range (corrupt block)");
    }
    out[(cur->v + k) / 2] =
        ICell{static_cast<DocId>(cur->doc), static_cast<Weight>(w)};
  }
  cur->v += used;
  return Status::OK();
}

// Decodes groups [g, end_group) of a block with plain scalar reads.
// `num_values` is 2 * cell count; `ctrl` points at the block's control
// region and `limit` one past the last readable byte.
inline Status GvDecodeScalarGroups(const uint8_t* ctrl, int64_t g,
                                   int64_t end_group, int64_t num_values,
                                   const uint8_t* limit, GvCursor* cur,
                                   ICell* out) {
  for (; g < end_group; ++g) {
    const uint8_t c = ctrl[g];
    const int used = static_cast<int>(std::min<int64_t>(4, num_values - 4 * g));
    if (used < 4 && (c >> (2 * used)) != 0) {
      return Status::DataLoss("nonzero unused control slot (corrupt block)");
    }
    uint32_t vals[4] = {0, 0, 0, 0};
    for (int k = 0; k < used; ++k) {
      const int len = 1 + ((c >> (2 * k)) & 3);
      if (cur->p + len > limit) {
        return Status::DataLoss("group-varint payload overruns block");
      }
      uint32_t value = 0;
      for (int b = 0; b < len; ++b) {
        value |= static_cast<uint32_t>(cur->p[b]) << (8 * b);
      }
      cur->p += len;
      vals[k] = value;
    }
    TEXTJOIN_RETURN_IF_ERROR(GvEmitValues(vals, used, cur, out));
  }
  return Status::OK();
}

// Full scalar block decode — the portable gv_decode, and the prologue
// every SIMD variant shares (control-region bounds check + cursor setup).
inline Status GvDecodeScalarImpl(const uint8_t* bytes, int64_t byte_length,
                                 int64_t count, ICell* out,
                                 int64_t* consumed) {
  if (count <= 0) {
    if (consumed != nullptr) *consumed = 0;
    return count == 0 ? Status::OK()
                      : Status::DataLoss("negative posting block cell count");
  }
  const int64_t ctrl_bytes = GvControlBytes(count);
  if (ctrl_bytes > byte_length) {
    return Status::DataLoss("group-varint control region overruns block");
  }
  GvCursor cur;
  cur.p = bytes + ctrl_bytes;
  TEXTJOIN_RETURN_IF_ERROR(GvDecodeScalarGroups(
      bytes, 0, ctrl_bytes, 2 * count, bytes + byte_length, &cur, out));
  if (consumed != nullptr) *consumed = cur.p - bytes;
  return Status::OK();
}

// out[k] = (double(weight) * w2) * factor — the executors' accumulation
// contribution, association order included.
inline void ScaleCellsScalarImpl(const ICell* cells, int64_t n, double w2,
                                 double factor, double* out) {
  for (int64_t k = 0; k < n; ++k) {
    out[k] = static_cast<double>(cells[k].weight) * w2 * factor;
  }
}

// The paper's two-pointer walk with a step budget: one logical step per
// loop iteration, matches appended as index pairs in ascending term order.
inline int64_t MergeLinearScalarImpl(const DCell* a, int64_t na,
                                     const DCell* b, int64_t nb,
                                     MergeCursor* cur, int64_t max_steps,
                                     int32_t* match_a, int32_t* match_b,
                                     int64_t* num_matches) {
  int64_t i = cur->i;
  int64_t j = cur->j;
  int64_t steps = 0;
  int64_t m = 0;
  while (steps < max_steps && i < na && j < nb) {
    ++steps;
    if (a[i].term < b[j].term) {
      ++i;
    } else if (a[i].term > b[j].term) {
      ++j;
    } else {
      match_a[m] = static_cast<int32_t>(i);
      match_b[m] = static_cast<int32_t>(j);
      ++m;
      ++i;
      ++j;
    }
  }
  cur->i = i;
  cur->j = j;
  *num_matches = m;
  return steps;
}

// The merge entry every dispatch level shares, defined in
// kernels_scalar.cc (a plain call to MergeLinearScalarImpl). The merge is
// deliberately NOT vectorized: with logical-step metering and match
// extraction the two-pointer walk is branch-predictable and load-light,
// and measured register-compare run skipping (4- and 8-lane leading-less
// probes, even momentum-gated to fire only on detected runs) lost to it
// on every workload shape — interleaved and run-heavy alike.
int64_t MergeLinearPortable(const DCell* a, int64_t na, const DCell* b,
                            int64_t nb, MergeCursor* cur, int64_t max_steps,
                            int32_t* match_a, int32_t* match_b,
                            int64_t* num_matches);

}  // namespace internal
}  // namespace kernel
}  // namespace textjoin

#endif  // TEXTJOIN_KERNEL_KERNELS_COMMON_H_
