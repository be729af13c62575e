/**
 * @file
 * AVX-512 kernel variant (F + BW). Compiled with -mavx512f -mavx512bw
 * (this translation unit only) and executed only after the runtime
 * probe confirms both features.
 *
 * Same bitwise-exactness rules as the AVX2 variant; one difference is
 * that the quantize tail cast can stay vectorized here because
 * vcvttpd2udq converts to *unsigned* int32 with truncation — identical
 * to the scalar uint32_t cast for every in-range value the clamp
 * guarantees.
 */

#if defined(__x86_64__) || defined(__i386__)

// GCC's AVX-512 headers implement unmasked gathers / extracts /
// reductions by passing _mm512_undefined_epi32() to an all-ones-mask
// builtin; -W(maybe-)uninitialized flags that placeholder when the
// sanitizers keep the wrappers from folding away (GCC PR 105593). The
// placeholder lanes are fully overwritten, so the warning is a false
// positive — silenced for this intrinsics-only translation unit.
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "common/simd.hh"
#include "rna/kernels/tally_avx512.hh"

namespace rapidnn::rna::kernels {

#ifdef RAPIDNN_BUILD_AVX512_VPOPCNT
// kernels_avx512_vpopcnt.cc: the same tally with hardware VPOPCNTQ.
void tallyAvx512Vpopcnt(const simd::TallyJob &job);
#endif

/** The tally with the nibble-table popcount (no VPOPCNTDQ). */
void
tallyAvx512Lut(const simd::TallyJob &job)
{
    detail::tally<Avx512Lanes>(job);
}

namespace {

uint16_t
maxU16Avx512(const uint16_t *v, size_t n)
{
    size_t i = 0;
    uint16_t best = 0;
    if (n >= 32) {
        __m512i acc = _mm512_loadu_si512(v);
        for (i = 32; i + 32 <= n; i += 32)
            acc = _mm512_max_epu16(acc, _mm512_loadu_si512(v + i));
        alignas(64) uint16_t lanes[32];
        _mm512_store_si512(lanes, acc);
        for (uint16_t lane : lanes)
            best = std::max(best, lane);
    } else {
        best = v[0];
        i = 1;
    }
    for (; i < n; ++i)
        best = std::max(best, v[i]);
    return best;
}

void
quantizeAvx512(const double *x, size_t n, double lo, double hi,
               uint32_t maxKey, uint32_t *keys)
{
    const __m512d loV = _mm512_set1_pd(lo);
    const __m512d spanV = _mm512_set1_pd(hi - lo);
    const __m512d zeroV = _mm512_setzero_pd();
    const __m512d oneV = _mm512_set1_pd(1.0);
    const __m512d maxKeyV =
        _mm512_set1_pd(static_cast<double>(maxKey));
    const __m512d halfV = _mm512_set1_pd(0.5);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512d t = _mm512_div_pd(
            _mm512_sub_pd(_mm512_loadu_pd(x + i), loV), spanV);
        const __m512d c =
            _mm512_max_pd(_mm512_min_pd(t, oneV), zeroV);
        const __m512d s =
            _mm512_add_pd(_mm512_mul_pd(c, maxKeyV), halfV);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(keys + i),
                            _mm512_cvttpd_epu32(s));
    }
    for (; i < n; ++i) {
        const double t = (x[i] - lo) / (hi - lo);
        const double clamped = std::clamp(t, 0.0, 1.0);
        keys[i] = static_cast<uint32_t>(
            clamped * static_cast<double>(maxKey) + 0.5);
    }
}

void
directLookupAvx512(const uint32_t *queries, size_t n,
                   const uint32_t *bucketSeg, size_t bucketCount,
                   uint32_t bucketShift, const uint32_t *segStart,
                   const uint32_t *segRow, size_t segCount,
                   uint32_t *rows)
{
    const __m128i shiftCnt =
        _mm_cvtsi32_si128(static_cast<int>(bucketShift));
    const __m512i bucketMax = _mm512_set1_epi32(
        static_cast<int>(static_cast<uint32_t>(bucketCount - 1)));
    const __m512i segMax = _mm512_set1_epi32(
        static_cast<int>(static_cast<uint32_t>(segCount - 1)));
    const __m512i oneV = _mm512_set1_epi32(1);
    size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m512i q = _mm512_loadu_si512(queries + i);
        const __m512i bucket = _mm512_min_epu32(
            _mm512_srl_epi32(q, shiftCnt), bucketMax);
        __m512i seg = _mm512_i32gather_epi32(bucket, bucketSeg, 4);
        for (;;) {
            const __m512i next = _mm512_add_epi32(seg, oneV);
            const __mmask16 valid =
                _mm512_cmple_epu32_mask(next, segMax);
            const __m512i clamped = _mm512_min_epu32(next, segMax);
            const __m512i nextStart =
                _mm512_i32gather_epi32(clamped, segStart, 4);
            const __mmask16 advance =
                valid & _mm512_cmple_epu32_mask(nextStart, q);
            if (advance == 0)
                break;
            seg = _mm512_mask_add_epi32(seg, advance, seg, oneV);
        }
        _mm512_storeu_si512(rows + i,
                            _mm512_i32gather_epi32(seg, segRow, 4));
    }
    for (; i < n; ++i) {
        const uint32_t q = queries[i];
        const size_t bucket =
            std::min(static_cast<size_t>(q >> bucketShift),
                     bucketCount - 1);
        size_t seg = bucketSeg[bucket];
        while (seg + 1 < segCount && segStart[seg + 1] <= q)
            ++seg;
        rows[i] = segRow[seg];
    }
}

void
tallyAvx512(const simd::TallyJob &job)
{
#ifdef RAPIDNN_BUILD_AVX512_VPOPCNT
    if (simd::cpuFeatures().avx512vpopcntdq) {
        tallyAvx512Vpopcnt(job);
        return;
    }
#endif
    tallyAvx512Lut(job);
}

} // namespace

extern const simd::KernelOps kAvx512Ops;
const simd::KernelOps kAvx512Ops = {
    "avx512", maxU16Avx512, quantizeAvx512, directLookupAvx512,
    tallyAvx512,
};

} // namespace rapidnn::rna::kernels

#endif // x86
