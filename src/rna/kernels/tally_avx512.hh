/**
 * @file
 * AVX-512 registers for the bit-sliced tally: one zmm holds the
 * u64 lanes of all 8 neurons of a group.
 *
 * Included by two translation units: kernels_avx512.cc (F + BW) and
 * kernels_avx512_vpopcnt.cc (F + BW + VPOPCNTDQ). The traits live in an
 * anonymous namespace so each unit keeps its own copy compiled with its
 * own flags. The unit built with VPOPCNTDQ and VBMI counts bits with
 * the hardware VPOPCNTQ and looks products up with VPERMB over whole
 * 64-byte planes; the F + BW unit counts bits through a nibble table
 * and looks up through VPSHUFB over 16-entry sub-tables, each merged
 * in under a mask of the codes whose bits 4-5 select it.
 */

#ifndef RAPIDNN_RNA_KERNELS_TALLY_AVX512_HH
#define RAPIDNN_RNA_KERNELS_TALLY_AVX512_HH

#include <immintrin.h>

#include <cstdint>

#include "rna/kernels/tally.hh"

namespace rapidnn::rna::kernels {
namespace {

struct Avx512Lanes
{
    using Reg = __m512i;
    using Pop = __m512i;
#ifdef __AVX512VPOPCNTDQ__
    static constexpr int kPopBatch = 1 << 30;
#else
    // Byte-wise counts reach 8 per plane; 31 planes stay below 256.
    static constexpr int kPopBatch = 31;
#endif

    static Reg zero() { return _mm512_setzero_si512(); }
    static Reg load(const uint64_t *p) { return _mm512_loadu_si512(p); }
    static Reg splat(uint64_t x) { return _mm512_set1_epi64(int64_t(x)); }

    static Reg
    codes(const uint8_t *w)
    {
        return _mm512_cvtepu8_epi64(
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(w)));
    }

    static Reg
    oneHot(Reg w, uint32_t word)
    {
        // VPSLLVQ yields 0 for counts >= 64, which covers codes below
        // the word (the subtraction wraps) and above it alike.
        const Reg count =
            word == 0 ? w
                      : _mm512_sub_epi64(
                            w, _mm512_set1_epi64(int64_t(word) * 64));
        return _mm512_sllv_epi64(_mm512_set1_epi64(1), count);
    }

    static Reg
    products(Reg w, uint32_t shift, Reg at, const int64_t *table)
    {
        const Reg idx = _mm512_add_epi64(
            _mm512_sllv_epi64(w, _mm512_set1_epi64(shift)), at);
        return _mm512_i64gather_epi64(idx, table, 8);
    }

    static Reg add(Reg a, Reg b) { return _mm512_add_epi64(a, b); }
    static Reg andv(Reg a, Reg b) { return _mm512_and_si512(a, b); }
    static Reg orv(Reg a, Reg b) { return _mm512_or_si512(a, b); }
    static Reg xorv(Reg a, Reg b) { return _mm512_xor_si512(a, b); }

    static Reg
    xor3(Reg a, Reg b, Reg c)
    {
        return _mm512_ternarylogic_epi64(a, b, c, 0x96);
    }

    static Reg
    maj(Reg a, Reg b, Reg c)
    {
        return _mm512_ternarylogic_epi64(a, b, c, 0xE8);
    }

    static Pop popZero() { return _mm512_setzero_si512(); }

#ifdef __AVX512VPOPCNTDQ__
    static Pop
    popAdd(Pop acc, Reg x)
    {
        return _mm512_add_epi64(acc, _mm512_popcnt_epi64(x));
    }

    static Reg popTotal(Pop acc) { return acc; }
#else
    static Pop
    popAdd(Pop acc, Reg x)
    {
        const __m512i lut = _mm512_broadcast_i32x4(_mm_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4));
        const __m512i nib = _mm512_set1_epi8(0x0F);
        const __m512i lo = _mm512_and_si512(x, nib);
        const __m512i hi = _mm512_and_si512(_mm512_srli_epi16(x, 4), nib);
        return _mm512_add_epi8(
            acc, _mm512_add_epi8(_mm512_shuffle_epi8(lut, lo),
                                 _mm512_shuffle_epi8(lut, hi)));
    }

    static Reg
    popTotal(Pop acc)
    {
        return _mm512_sad_epu8(acc, _mm512_setzero_si512());
    }
#endif

    // Byte-plane product sums: one zmm holds 64 neurons' codes.
    static constexpr size_t kPlaneNeurons = 64;
    using Bytes = __m512i;
    using RowMask = __mmask64;
    struct Acc
    {
        __m512i even, odd;  //!< u16 lanes of neurons 2k and 2k + 1
    };
#ifdef __AVX512VBMI__
    using Table = __m512i;
    struct Key
    {
        __m512i idx;
        __mmask64 b7;  //!< code bit 7: the upper two of four tables
    };
#else
    struct Table
    {
        __m512i sub[4];  //!< entries 16k..16k+15, in every 128-bit lane
    };
    struct Key
    {
        __m512i idx;         //!< codes with bit 7 clear (VPSHUFB zeroes it)
        __mmask64 sub[4];    //!< [k]: code bits 4-5 equal k, k = 1..3
        __mmask64 b6, b7;    //!< code bits 6 and 7
    };
#endif

    static RowMask
    rowMask(size_t n)
    {
        return n >= 64 ? ~RowMask(0) : (RowMask(1) << n) - 1;
    }

    static Bytes
    rowCodes(const uint8_t *p, RowMask m)
    {
        return _mm512_maskz_loadu_epi8(m, p);
    }

#ifdef __AVX512VBMI__
    static Table table(const uint8_t *p) { return _mm512_loadu_si512(p); }
    static Table tableZero() { return _mm512_setzero_si512(); }

    template <int NW>
    static Key
    key(Bytes codes)
    {
        return {codes, NW == 4 ? _mm512_movepi8_mask(codes) : 0};
    }

    template <int NW>
    static Bytes
    lookup(const Table *t, const Key &k)
    {
        if constexpr (NW == 1)
            return _mm512_permutexvar_epi8(k.idx, t[0]);
        const __m512i lo = _mm512_permutex2var_epi8(t[0], k.idx, t[1]);
        const __m512i hi = _mm512_permutex2var_epi8(t[2], k.idx, t[3]);
        return _mm512_mask_blend_epi8(k.b7, lo, hi);
    }
#else
    static Table
    table(const uint8_t *p)
    {
        Table t;
        for (int k = 0; k < 4; ++k)
            t.sub[k] = _mm512_broadcast_i32x4(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(p + 16 * k)));
        return t;
    }

    static Table
    tableZero()
    {
        Table t;
        for (int k = 0; k < 4; ++k)
            t.sub[k] = _mm512_setzero_si512();
        return t;
    }

    template <int NW>
    static Key
    key(Bytes codes)
    {
        Key k;
        k.idx = NW == 4 ? _mm512_and_si512(codes, _mm512_set1_epi8(0x0F))
                        : codes;
        const __m512i bits45 =
            _mm512_and_si512(codes, _mm512_set1_epi8(0x30));
        for (int sub = 1; sub < 4; ++sub)
            k.sub[sub] = _mm512_cmpeq_epi8_mask(
                bits45, _mm512_set1_epi8(char(16 * sub)));
        k.b6 = _mm512_test_epi8_mask(codes, _mm512_set1_epi8(0x40));
        k.b7 = _mm512_movepi8_mask(codes);
        return k;
    }

    /** One 64-entry table: each 16-entry sub-table's VPSHUFB writes
     *  only the codes whose bits 4-5 select it. */
    static __m512i
    word(const Table &t, const Key &k)
    {
        __m512i r = _mm512_shuffle_epi8(t.sub[0], k.idx);
        detail::unrolled<3>([&](auto i) {
            constexpr int sub = i + 1;
            r = _mm512_mask_shuffle_epi8(r, k.sub[sub], t.sub[sub], k.idx);
        });
        return r;
    }

    template <int NW>
    static Bytes
    lookup(const Table *t, const Key &k)
    {
        if constexpr (NW == 1)
            return word(t[0], k);
        const __m512i lo =
            _mm512_mask_blend_epi8(k.b6, word(t[0], k), word(t[1], k));
        const __m512i hi =
            _mm512_mask_blend_epi8(k.b6, word(t[2], k), word(t[3], k));
        return _mm512_mask_blend_epi8(k.b7, lo, hi);
    }
#endif

    static Acc
    accZero()
    {
        return {_mm512_setzero_si512(), _mm512_setzero_si512()};
    }

    static void
    accAdd(Acc &a, Bytes x)
    {
        a.even = _mm512_add_epi16(
            a.even, _mm512_and_si512(x, _mm512_set1_epi16(0xFF)));
        a.odd = _mm512_add_epi16(a.odd, _mm512_srli_epi16(x, 8));
    }

    static void
    accStore(uint16_t *lanes, Acc a)
    {
        // 128-bit lane L of lo holds neurons 16L..16L+7, of hi the
        // next 8; interleave the lanes back into neuron order.
        const __m512i lo = _mm512_unpacklo_epi16(a.even, a.odd);
        const __m512i hi = _mm512_unpackhi_epi16(a.even, a.odd);
        _mm512_storeu_si512(
            lanes, _mm512_permutex2var_epi64(
                       lo, _mm512_set_epi64(11, 10, 3, 2, 9, 8, 1, 0), hi));
        _mm512_storeu_si512(
            lanes + 32,
            _mm512_permutex2var_epi64(
                lo, _mm512_set_epi64(15, 14, 7, 6, 13, 12, 5, 4), hi));
    }

    static void
    storeSums(int64_t *dst, Reg r)
    {
        _mm512_storeu_si512(dst, r);
    }

    static void
    storeCounts(uint32_t *dst, Reg r)
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst),
                            _mm512_cvtepi64_epi32(r));
    }
};

} // namespace
} // namespace rapidnn::rna::kernels

#endif // RAPIDNN_RNA_KERNELS_TALLY_AVX512_HH
