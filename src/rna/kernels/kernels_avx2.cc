/**
 * @file
 * AVX2 kernel variant. Compiled with -mavx2 (this translation unit
 * only); only executed after the runtime feature probe confirms AVX2,
 * so the rest of the binary stays baseline-ISA clean.
 *
 * Bitwise-exactness notes (the equivalence suite pins all of this):
 *  - Integer kernels compute the identical values lane-wise; vector
 *    bodies stop at the last full vector and tails run scalar, so no
 *    out-of-range element is ever touched.
 *  - quantize performs the exact scalar double sequence per lane
 *    (sub, div, clamp, mul, add); the final double->uint32 truncation
 *    runs scalar because vcvttpd2dq saturates through *signed* int32,
 *    which would break keys >= 2^31 for 32-bit CAMs.
 */

#if defined(__x86_64__) || defined(__i386__)

// GCC's AVX2 headers implement unmasked gathers by passing
// _mm256_undefined_si256() to an all-ones-mask builtin;
// -W(maybe-)uninitialized flags that placeholder when the sanitizers
// keep the wrappers from folding away (GCC PR 105593). The placeholder
// lanes are fully overwritten, so the warning is a false positive —
// silenced for this intrinsics-only translation unit.
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "common/simd.hh"
#include "rna/kernels/tally.hh"

namespace rapidnn::rna::kernels {

namespace {

void
quantizeAvx2(const double *x, size_t n, double lo, double hi,
             uint32_t maxKey, uint32_t *keys)
{
    const __m256d loV = _mm256_set1_pd(lo);
    const __m256d spanV = _mm256_set1_pd(hi - lo);
    const __m256d zeroV = _mm256_setzero_pd();
    const __m256d oneV = _mm256_set1_pd(1.0);
    const __m256d maxKeyV =
        _mm256_set1_pd(static_cast<double>(maxKey));
    const __m256d halfV = _mm256_set1_pd(0.5);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d t = _mm256_div_pd(
            _mm256_sub_pd(_mm256_loadu_pd(x + i), loV), spanV);
        const __m256d c =
            _mm256_max_pd(_mm256_min_pd(t, oneV), zeroV);
        const __m256d s =
            _mm256_add_pd(_mm256_mul_pd(c, maxKeyV), halfV);
        alignas(32) double scaled[4];
        _mm256_store_pd(scaled, s);
        for (size_t j = 0; j < 4; ++j)
            keys[i + j] = static_cast<uint32_t>(scaled[j]);
    }
    for (; i < n; ++i) {
        const double t = (x[i] - lo) / (hi - lo);
        const double clamped = std::clamp(t, 0.0, 1.0);
        keys[i] = static_cast<uint32_t>(
            clamped * static_cast<double>(maxKey) + 0.5);
    }
}

/** Unsigned a <= b per 32-bit lane (AVX2 has no unsigned compare). */
inline __m256i
cmpleEpu32(__m256i a, __m256i b)
{
    return _mm256_cmpeq_epi32(_mm256_min_epu32(a, b), a);
}

void
directLookupAvx2(const uint32_t *queries, size_t n,
                 const uint32_t *bucketSeg, size_t bucketCount,
                 uint32_t bucketShift, const uint32_t *segStart,
                 const uint32_t *segRow, size_t segCount,
                 uint32_t *rows)
{
    const __m128i shiftCnt =
        _mm_cvtsi32_si128(static_cast<int>(bucketShift));
    const __m256i bucketMax = _mm256_set1_epi32(
        static_cast<int>(static_cast<uint32_t>(bucketCount - 1)));
    const __m256i segMax = _mm256_set1_epi32(
        static_cast<int>(static_cast<uint32_t>(segCount - 1)));
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i q = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(queries + i));
        const __m256i bucket = _mm256_min_epu32(
            _mm256_srl_epi32(q, shiftCnt), bucketMax);
        __m256i seg = _mm256_i32gather_epi32(
            reinterpret_cast<const int *>(bucketSeg), bucket, 4);
        // Per-lane walk of the boundary segments inside the bucket;
        // almost always zero or one iteration (see buildDirectIndex).
        for (;;) {
            const __m256i next =
                _mm256_sub_epi32(seg, _mm256_set1_epi32(-1));
            const __m256i valid = cmpleEpu32(next, segMax);
            const __m256i clamped = _mm256_min_epu32(next, segMax);
            const __m256i nextStart = _mm256_i32gather_epi32(
                reinterpret_cast<const int *>(segStart), clamped, 4);
            const __m256i advance =
                _mm256_and_si256(valid, cmpleEpu32(nextStart, q));
            if (_mm256_testz_si256(advance, advance))
                break;
            // Advancing lanes hold -1; subtracting adds one.
            seg = _mm256_sub_epi32(seg, advance);
        }
        const __m256i r = _mm256_i32gather_epi32(
            reinterpret_cast<const int *>(segRow), seg, 4);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(rows + i), r);
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

/**
 * Tally registers: a pair of ymm, neurons 0-3 and 4-7. AVX2 has
 * no vector popcount, so bits are counted through a nibble table. The
 * byte-plane product sums hold 32 neurons' codes in a ymm and look
 * them up with VPSHUFB over 16-entry sub-tables, each reading only the
 * codes whose bits 4 and up select it, the rest zero, merged by OR.
 */
struct Avx2Lanes
{
    struct Reg
    {
        __m256i a, b;
    };
    using Pop = Reg;
    // Byte-wise counts reach 8 per plane; 31 planes stay below 256.
    static constexpr int kPopBatch = 31;

    template <typename F>
    static Reg
    map(Reg x, Reg y, F f)
    {
        return {f(x.a, y.a), f(x.b, y.b)};
    }

    static Reg
    zero()
    {
        return {_mm256_setzero_si256(), _mm256_setzero_si256()};
    }

    static Reg
    load(const uint64_t *p)
    {
        return {_mm256_loadu_si256(reinterpret_cast<const __m256i *>(p)),
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(p + 4))};
    }

    static Reg
    splat(uint64_t x)
    {
        const __m256i v = _mm256_set1_epi64x(int64_t(x));
        return {v, v};
    }

    static Reg
    codes(const uint8_t *w)
    {
        uint64_t bytes;
        std::memcpy(&bytes, w, sizeof(bytes));
        const __m128i v =
            _mm_cvtsi64_si128(static_cast<long long>(bytes));
        return {_mm256_cvtepu8_epi64(v),
                _mm256_cvtepu8_epi64(_mm_srli_si128(v, 4))};
    }

    static Reg
    oneHot(Reg w, uint32_t word)
    {
        // VPSLLVQ yields 0 for counts >= 64, which covers codes below
        // the word (the subtraction wraps) and above it alike.
        const __m256i base = _mm256_set1_epi64x(int64_t(word) * 64);
        const __m256i one = _mm256_set1_epi64x(1);
        return map(w, w, [&](__m256i x, __m256i) {
            return _mm256_sllv_epi64(one, _mm256_sub_epi64(x, base));
        });
    }

    static Reg
    products(Reg w, uint32_t shift, Reg at, const int64_t *table)
    {
        const __m128i cnt = _mm_cvtsi32_si128(static_cast<int>(shift));
        const auto *base = reinterpret_cast<const long long *>(table);
        return map(w, at, [&](__m256i x, __m256i a) {
            return _mm256_i64gather_epi64(
                base, _mm256_add_epi64(_mm256_sll_epi64(x, cnt), a), 8);
        });
    }

    static Reg
    add(Reg x, Reg y)
    {
        return map(x, y, [](__m256i p, __m256i q) {
            return _mm256_add_epi64(p, q);
        });
    }

    static Reg
    andv(Reg x, Reg y)
    {
        return map(x, y, [](__m256i p, __m256i q) {
            return _mm256_and_si256(p, q);
        });
    }

    static Reg
    orv(Reg x, Reg y)
    {
        return map(x, y, [](__m256i p, __m256i q) {
            return _mm256_or_si256(p, q);
        });
    }

    static Reg
    xorv(Reg x, Reg y)
    {
        return map(x, y, [](__m256i p, __m256i q) {
            return _mm256_xor_si256(p, q);
        });
    }

    static Reg xor3(Reg x, Reg y, Reg z) { return xorv(xorv(x, y), z); }

    static Reg
    maj(Reg x, Reg y, Reg z)
    {
        return orv(andv(x, y), andv(z, orv(x, y)));
    }

    static Pop popZero() { return zero(); }

    static Pop
    popAdd(Pop acc, Reg x)
    {
        const __m256i lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
        const __m256i nib = _mm256_set1_epi8(0x0F);
        return map(acc, x, [&](__m256i p, __m256i q) {
            const __m256i lo = _mm256_and_si256(q, nib);
            const __m256i hi =
                _mm256_and_si256(_mm256_srli_epi16(q, 4), nib);
            return _mm256_add_epi8(
                p, _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                   _mm256_shuffle_epi8(lut, hi)));
        });
    }

    static Reg
    popTotal(Pop acc)
    {
        return map(acc, acc, [](__m256i p, __m256i) {
            return _mm256_sad_epu8(p, _mm256_setzero_si256());
        });
    }

    // Byte-plane product sums, 32 neurons per ymm: with 64 the keys
    // and accumulators of three planes outgrow the 16 registers.
    static constexpr size_t kPlaneNeurons = 32;
    using Bytes = __m256i;
    struct RowMask
    {
        bool full;
        __m256i words;  //!< VPMASKMOVQ mask of a partial block
    };
    /** A plane stays in memory: each VPSHUFB broadcasts its 16-entry
     *  sub-table from L1, a load-port op. */
    using Table = const uint8_t *;
    /** Per sub-table s, the codes biased so that bit 7 is clear (and
     *  VPSHUFB reads the low nibble) only where code >> 4 == s. */
    template <int NW>
    struct Key
    {
        __m256i idx[4 * NW];
    };
    struct Acc
    {
        __m256i even, odd;  //!< u16 lanes of neurons 2k and 2k + 1
    };

    static RowMask
    rowMask(size_t n)
    {
        // Element q (8 codes) is loaded when 8q < n.
        return {n >= kPlaneNeurons,
                _mm256_cmpgt_epi64(_mm256_set1_epi64x(int64_t(n / 8)),
                                   _mm256_setr_epi64x(0, 1, 2, 3))};
    }

    static Bytes
    rowCodes(const uint8_t *p, const RowMask &m)
    {
        if (m.full)
            return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
        return _mm256_maskload_epi64(reinterpret_cast<const long long *>(p),
                                     m.words);
    }

    static Table table(const uint8_t *p) { return p; }

    static Table
    tableZero()
    {
        alignas(64) static const uint8_t zeros[64] = {};
        return zeros;
    }

    template <int NW>
    static Key<NW>
    key(Bytes codes)
    {
        // code ^ 16s is below 16 only in sub-table s; adding 0x70 with
        // saturation sets bit 7 everywhere else and keeps the nibble.
        const __m256i bias = _mm256_set1_epi8(0x70);
        Key<NW> k;
        for (int sub = 0; sub < 4 * NW; ++sub)
            k.idx[sub] = _mm256_adds_epu8(
                _mm256_xor_si256(codes, _mm256_set1_epi8(char(16 * sub))),
                bias);
        return k;
    }

    /** OR of every sub-table's VPSHUFB: each code reads zero from all
     *  but its own. */
    template <int NW>
    static Bytes
    lookup(const Table *t, const Key<NW> &k)
    {
        auto sub = [&](int s) {
            const auto *entries = reinterpret_cast<const __m128i *>(
                t[s / 4] + 16 * (s % 4));
            return _mm256_shuffle_epi8(
                _mm256_broadcastsi128_si256(_mm_loadu_si128(entries)),
                k.idx[s]);
        };
        __m256i r = sub(0);
        detail::unrolled<4 * NW - 1>(
            [&](auto i) { r = _mm256_or_si256(r, sub(i + 1)); });
        return r;
    }

    static Acc
    accZero()
    {
        return {_mm256_setzero_si256(), _mm256_setzero_si256()};
    }

    static void
    accAdd(Acc &a, Bytes x)
    {
        a.even = _mm256_add_epi16(
            a.even, _mm256_and_si256(x, _mm256_set1_epi16(0xFF)));
        a.odd = _mm256_add_epi16(a.odd, _mm256_srli_epi16(x, 8));
    }

    static void
    accStore(uint16_t *lanes, const Acc &a)
    {
        // 128-bit lane L of lo holds neurons 16L..16L+7, of hi the
        // next 8; interleave the lanes into neuron order.
        const __m256i lo = _mm256_unpacklo_epi16(a.even, a.odd);
        const __m256i hi = _mm256_unpackhi_epi16(a.even, a.odd);
        auto *dst = reinterpret_cast<__m256i *>(lanes);
        _mm256_storeu_si256(dst, _mm256_permute2x128_si256(lo, hi, 0x20));
        _mm256_storeu_si256(dst + 1, _mm256_permute2x128_si256(lo, hi, 0x31));
    }

    static void
    storeSums(int64_t *dst, Reg r)
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst), r.a);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + 4), r.b);
    }

    static void
    storeCounts(uint32_t *dst, Reg r)
    {
        alignas(32) uint64_t v[8];
        _mm256_store_si256(reinterpret_cast<__m256i *>(v), r.a);
        _mm256_store_si256(reinterpret_cast<__m256i *>(v + 4), r.b);
        for (size_t k = 0; k < 8; ++k)
            dst[k] = static_cast<uint32_t>(v[k]);
    }
};

void
tallyAvx2(const simd::TallyJob &job)
{
    detail::tally<Avx2Lanes>(job);
}

} // namespace

extern const simd::KernelOps kAvx2Ops;
const simd::KernelOps kAvx2Ops = {
    "avx2", quantizeAvx2, directLookupAvx2, tallyAvx2,
};

} // namespace rapidnn::rna::kernels

#endif // x86
