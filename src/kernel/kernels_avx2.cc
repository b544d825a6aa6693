// AVX2 kernel variants (see kernels_sse42.cc for the bit-identity
// discipline; the same rules apply, with twice the lanes). Compiled with
// -mavx2 only when the compiler accepts it; dispatch.cc checks the CPU.

#ifdef TEXTJOIN_HAVE_AVX2

#include <immintrin.h>

#include "kernel/kernels.h"
#include "kernel/kernels_common.h"

namespace textjoin {
namespace kernel {

namespace {

Status GvDecodeAvx2(const uint8_t* bytes, int64_t byte_length, int64_t count,
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

  // Two groups per iteration: the second 16-byte lane loads at the first
  // group's payload end (a table lookup away), and one 256-bit shuffle
  // expands both groups to eight dwords — g0 w0 g1 w1 | g2 w2 g3 w3.
  // `p + 32 <= limit` bounds both lane loads (len0 <= 16), and covers
  // both groups' payload outright.
  //
  // The emit is vectorized too: gather the four gaps and four weights,
  // range-check them, prefix-sum the gaps in-register and interleave with
  // the weights into four 8-byte cells. All integer-exact. Fail-closed
  // acceptance is unchanged: scalar accepts iff every cumulative document
  // <= kMaxDocId and every weight <= 0xFFFF; here a gap > kMaxDocId
  // implies its cumulative document overruns (gaps are nonnegative), and
  // once every gap and the carry are <= kMaxDocId < 2^24 the four 32-bit
  // prefix sums cannot wrap (< 5 * 2^24), so the lane checks below accept
  // exactly the same blocks.
  const int64_t full_groups = num_values / 4;
  int64_t g = 0;
  const __m256i gather_gaps = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  const __m256i gather_wts = _mm256_setr_epi32(1, 3, 5, 7, 0, 0, 0, 0);
  const __m128i max_doc = _mm_set1_epi32(static_cast<int32_t>(kMaxDocId));
  const __m128i max_wt = _mm_set1_epi32(0xFFFF);
  while (g + 2 <= full_groups && cur.p + 32 <= limit) {
    const uint8_t c0 = bytes[g];
    const uint8_t c1 = bytes[g + 1];
    const int len0 = t.length[c0];
    const __m128i s0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(cur.p));
    const __m128i s1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(cur.p + len0));
    const __m256i mask = _mm256_set_m128i(
        _mm_load_si128(reinterpret_cast<const __m128i*>(t.shuffle[c1])),
        _mm_load_si128(reinterpret_cast<const __m128i*>(t.shuffle[c0])));
    const __m256i x = _mm256_shuffle_epi8(_mm256_set_m128i(s1, s0), mask);
    const __m128i gaps = _mm256_castsi256_si128(
        _mm256_permutevar8x32_epi32(x, gather_gaps));
    const __m128i wts = _mm256_castsi256_si128(
        _mm256_permutevar8x32_epi32(x, gather_wts));
    // Unsigned range checks via min: ok lane <=> min(v, max) == v.
    const __m128i ok_in = _mm_and_si128(
        _mm_cmpeq_epi32(_mm_min_epu32(gaps, max_doc), gaps),
        _mm_cmpeq_epi32(_mm_min_epu32(wts, max_wt), wts));
    if (_mm_movemask_epi8(ok_in) != 0xFFFF) {
      return Status::DataLoss("posting cell out of range (corrupt block)");
    }
    __m128i pre = _mm_add_epi32(gaps, _mm_slli_si128(gaps, 4));
    pre = _mm_add_epi32(pre, _mm_slli_si128(pre, 8));
    const __m128i docs = _mm_add_epi32(
        pre, _mm_set1_epi32(static_cast<int32_t>(cur.doc)));
    const __m128i ok_doc =
        _mm_cmpeq_epi32(_mm_min_epu32(docs, max_doc), docs);
    if (_mm_movemask_epi8(ok_doc) != 0xFFFF) {
      return Status::DataLoss("posting cell out of range (corrupt block)");
    }
    ICell* o = out + (cur.v >> 1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(o),
                     _mm_unpacklo_epi32(docs, wts));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(o + 2),
                     _mm_unpackhi_epi32(docs, wts));
    cur.doc = static_cast<uint32_t>(_mm_extract_epi32(docs, 3));
    cur.v += 8;
    cur.p += len0 + t.length[c1];
    g += 2;
  }
  TEXTJOIN_RETURN_IF_ERROR(internal::GvDecodeScalarGroups(
      bytes, g, ctrl_bytes, num_values, limit, &cur, out));
  if (consumed != nullptr) *consumed = cur.p - bytes;
  return Status::OK();
}

}  // namespace

const KernelTable kAvx2Table = {
    "avx2", GvDecodeAvx2,
};

}  // namespace kernel
}  // namespace textjoin

#endif  // TEXTJOIN_HAVE_AVX2
