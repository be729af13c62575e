/**
 * @file
 * AVX-512 registers for the bit-sliced dense tally: one zmm holds the
 * u64 lanes of all 8 neurons of a group.
 *
 * Included by two translation units: kernels_avx512.cc (F + BW) and
 * kernels_avx512_vpopcnt.cc (F + BW + VPOPCNTDQ). The traits live in an
 * anonymous namespace so each unit keeps its own copy compiled with its
 * own flags; the popcount is the hardware VPOPCNTQ when the unit is
 * built with VPOPCNTDQ and a nibble-table VPSHUFB count otherwise.
 */

#ifndef RAPIDNN_RNA_KERNELS_DENSE_TALLY_AVX512_HH
#define RAPIDNN_RNA_KERNELS_DENSE_TALLY_AVX512_HH

#include <immintrin.h>

#include <cstdint>

#include "rna/kernels/dense_tally.hh"

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
    products(Reg w, uint32_t shift, uint32_t u, const int64_t *table)
    {
        const Reg idx = _mm512_or_si512(
            _mm512_sllv_epi64(w, _mm512_set1_epi64(shift)),
            _mm512_set1_epi64(u));
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

#endif // RAPIDNN_RNA_KERNELS_DENSE_TALLY_AVX512_HH
