// SSE4.2 kernel variants. This translation unit is compiled with
// -msse4.2 (see src/kernel/CMakeLists.txt) and only when the compiler
// accepts the flag; runtime CPU detection in dispatch.cc decides whether
// the table is ever used. Everything here must be bit-identical to the
// scalar table: the vector loops do only integer work (byte shuffles,
// compares, prefix sums), which is exact by construction.

#ifdef TEXTJOIN_HAVE_SSE42

#include <nmmintrin.h>

#include "kernel/kernels.h"
#include "kernel/kernels_common.h"

namespace textjoin {
namespace kernel {

namespace {

Status GvDecodeSse42(const uint8_t* bytes, int64_t byte_length, int64_t count,
                     ICell* out, int64_t* consumed) {
  if (count <= 0) {
    if (consumed != nullptr) *consumed = 0;
    return count == 0 ? Status::OK()
                      : Status::DataLoss("negative posting block cell count");
  }
  const int64_t num_values = 2 * count;
  const int64_t ctrl_bytes = GvControlBytes(count);
  if (ctrl_bytes > byte_length) {
    return Status::DataLoss("group-varint control region overruns block");
  }
  const uint8_t* limit = bytes + byte_length;
  const GvTables& t = GetGvTables();
  internal::GvCursor cur;
  cur.p = bytes + ctrl_bytes;

  // Vector loop over full groups: one 16-byte load always covers a
  // group's payload (at most 16 bytes), so the guard `p + 16 <= limit`
  // both keeps the load in bounds and proves the group's own bytes are
  // present — no per-value bounds checks needed. The shuffle expands the
  // four packed values to four dwords (g0 w0 g1 w1), and the emit stays
  // in registers too: range-check, 2-lane prefix sum of the gaps, then
  // one interleaved store of both 8-byte cells. See the AVX2 variant for
  // why the checks accept exactly the scalar decoder's blocks.
  const int64_t full_groups = num_values / 4;
  int64_t g = 0;
  const __m128i max_doc = _mm_set1_epi32(static_cast<int32_t>(kMaxDocId));
  const __m128i max_wt = _mm_set1_epi32(0xFFFF);
  while (g < full_groups && cur.p + 16 <= limit) {
    const uint8_t c = bytes[g];
    const __m128i src =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(cur.p));
    const __m128i mask =
        _mm_load_si128(reinterpret_cast<const __m128i*>(t.shuffle[c]));
    const __m128i x = _mm_shuffle_epi8(src, mask);
    // Lanes 0,1 = the two gaps; lanes 2,3 = the two weights (the upper
    // two lanes of each duplicate lane 0/2 so they never fail a check).
    const __m128i gaps = _mm_shuffle_epi32(x, _MM_SHUFFLE(0, 0, 2, 0));
    const __m128i wts = _mm_shuffle_epi32(x, _MM_SHUFFLE(1, 1, 3, 1));
    const __m128i ok_in = _mm_and_si128(
        _mm_cmpeq_epi32(_mm_min_epu32(gaps, max_doc), gaps),
        _mm_cmpeq_epi32(_mm_min_epu32(wts, max_wt), wts));
    const __m128i pre = _mm_add_epi32(gaps, _mm_slli_si128(gaps, 4));
    const __m128i docs = _mm_add_epi32(
        pre, _mm_set1_epi32(static_cast<int32_t>(cur.doc)));
    const __m128i ok = _mm_and_si128(
        ok_in, _mm_cmpeq_epi32(_mm_min_epu32(docs, max_doc), docs));
    // Only the two low lanes carry real cells; lanes 2,3 hold duplicates
    // of in-range lanes (gaps/weights) or prefix garbage (docs), so the
    // mask is tested on the low 8 bytes.
    if ((_mm_movemask_epi8(ok) & 0xFF) != 0xFF) {
      return Status::DataLoss("posting cell out of range (corrupt block)");
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + (cur.v >> 1)),
                     _mm_unpacklo_epi32(docs, wts));
    cur.doc = static_cast<uint32_t>(_mm_extract_epi32(docs, 1));
    cur.v += 4;
    cur.p += t.length[c];
    ++g;
  }
  // Scalar tail: the last partial group and any group too close to the
  // block end for a whole-register load.
  TEXTJOIN_RETURN_IF_ERROR(internal::GvDecodeScalarGroups(
      bytes, g, ctrl_bytes, num_values, limit, &cur, out));
  if (consumed != nullptr) *consumed = cur.p - bytes;
  return Status::OK();
}

}  // namespace

const KernelTable kSse42Table = {
    "sse42", GvDecodeSse42,
};

}  // namespace kernel
}  // namespace textjoin

#endif  // TEXTJOIN_HAVE_SSE42
