/**
 * @file
 * NEON (aarch64) kernel variant. AdvSIMD is architecturally mandatory
 * on aarch64, so this translation unit needs no special compile flags
 * and the feature probe always reports it.
 *
 * Gathers have no NEON equivalent: the tally loads its products and the
 * direct lookup walks its segments scalar. quantize follows the AVX2
 * rule: SIMD for the correctly-rounded double arithmetic, scalar final
 * cast.
 */

#if defined(__aarch64__)

#include <arm_neon.h>

#include <algorithm>

#include "common/simd.hh"
#include "rna/kernels/tally.hh"

namespace rapidnn::rna::kernels {

namespace {

uint16_t
maxU16Neon(const uint16_t *v, size_t n)
{
    size_t i = 0;
    uint16_t best = 0;
    if (n >= 8) {
        uint16x8_t acc = vld1q_u16(v);
        for (i = 8; i + 8 <= n; i += 8)
            acc = vmaxq_u16(acc, vld1q_u16(v + i));
        best = vmaxvq_u16(acc);
    } else {
        best = v[0];
        i = 1;
    }
    for (; i < n; ++i)
        best = std::max(best, v[i]);
    return best;
}

void
quantizeNeon(const double *x, size_t n, double lo, double hi,
             uint32_t maxKey, uint32_t *keys)
{
    const float64x2_t loV = vdupq_n_f64(lo);
    const float64x2_t spanV = vdupq_n_f64(hi - lo);
    const float64x2_t zeroV = vdupq_n_f64(0.0);
    const float64x2_t oneV = vdupq_n_f64(1.0);
    const float64x2_t maxKeyV =
        vdupq_n_f64(static_cast<double>(maxKey));
    const float64x2_t halfV = vdupq_n_f64(0.5);
    size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const float64x2_t t =
            vdivq_f64(vsubq_f64(vld1q_f64(x + i), loV), spanV);
        const float64x2_t c =
            vmaxq_f64(vminq_f64(t, oneV), zeroV);
        const float64x2_t s =
            vaddq_f64(vmulq_f64(c, maxKeyV), halfV);
        double scaled[2];
        vst1q_f64(scaled, s);
        keys[i] = static_cast<uint32_t>(scaled[0]);
        keys[i + 1] = static_cast<uint32_t>(scaled[1]);
    }
    for (; i < n; ++i) {
        const double t = (x[i] - lo) / (hi - lo);
        const double clamped = std::clamp(t, 0.0, 1.0);
        keys[i] = static_cast<uint32_t>(
            clamped * static_cast<double>(maxKey) + 0.5);
    }
}

void
directLookupNeon(const uint32_t *queries, size_t n,
                 const uint32_t *bucketSeg, size_t bucketCount,
                 uint32_t bucketShift, const uint32_t *segStart,
                 const uint32_t *segRow, size_t segCount,
                 uint32_t *rows)
{
    for (size_t i = 0; i < n; ++i) {
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
 * Tally registers: four uint64x2 per 8-neuron group. Products
 * are loaded scalar (no NEON gather); bits are counted with VCNT and
 * widened by pairwise adds.
 */
struct NeonLanes
{
    struct Reg
    {
        uint64x2_t v[4];
    };
    struct Pop
    {
        uint8x16_t v[4];
    };
    // Byte-wise counts reach 8 per plane; 31 planes stay below 256.
    static constexpr int kPopBatch = 31;

    template <typename F>
    static Reg
    map(const Reg &x, const Reg &y, F f)
    {
        Reg r;
        for (int k = 0; k < 4; ++k)
            r.v[k] = f(x.v[k], y.v[k]);
        return r;
    }

    static Reg
    zero()
    {
        Reg r;
        for (int k = 0; k < 4; ++k)
            r.v[k] = vdupq_n_u64(0);
        return r;
    }

    static Reg
    load(const uint64_t *p)
    {
        Reg r;
        for (int k = 0; k < 4; ++k)
            r.v[k] = vld1q_u64(p + 2 * k);
        return r;
    }

    static Reg
    splat(uint64_t x)
    {
        Reg r;
        for (int k = 0; k < 4; ++k)
            r.v[k] = vdupq_n_u64(x);
        return r;
    }

    static Reg
    codes(const uint8_t *w)
    {
        const uint16x8_t h = vmovl_u8(vld1_u8(w));
        const uint32x4_t lo = vmovl_u16(vget_low_u16(h));
        const uint32x4_t hi = vmovl_u16(vget_high_u16(h));
        Reg r;
        r.v[0] = vmovl_u32(vget_low_u32(lo));
        r.v[1] = vmovl_u32(vget_high_u32(lo));
        r.v[2] = vmovl_u32(vget_low_u32(hi));
        r.v[3] = vmovl_u32(vget_high_u32(hi));
        return r;
    }

    static Reg
    oneHot(const Reg &w, uint32_t word)
    {
        const uint64x2_t wordV = vdupq_n_u64(word);
        const uint64x2_t low6 = vdupq_n_u64(63);
        const uint64x2_t one = vdupq_n_u64(1);
        return map(w, w, [&](uint64x2_t x, uint64x2_t) {
            const uint64x2_t inWord = vceqq_u64(vshrq_n_u64(x, 6), wordV);
            const uint64x2_t bit = vshlq_u64(
                one, vreinterpretq_s64_u64(vandq_u64(x, low6)));
            return vandq_u64(bit, inWord);
        });
    }

    static Reg
    products(const Reg &w, uint32_t shift, const Reg &at,
             const int64_t *table)
    {
        return map(w, at, [&](uint64x2_t x, uint64x2_t a) {
            const int64_t p0 = table[(vgetq_lane_u64(x, 0) << shift) +
                                     vgetq_lane_u64(a, 0)];
            const int64_t p1 = table[(vgetq_lane_u64(x, 1) << shift) +
                                     vgetq_lane_u64(a, 1)];
            return vcombine_u64(vcreate_u64(static_cast<uint64_t>(p0)),
                                vcreate_u64(static_cast<uint64_t>(p1)));
        });
    }

    static Reg
    add(const Reg &x, const Reg &y)
    {
        return map(x, y, [](uint64x2_t p, uint64x2_t q) {
            return vaddq_u64(p, q);
        });
    }

    static Reg
    andv(const Reg &x, const Reg &y)
    {
        return map(x, y, [](uint64x2_t p, uint64x2_t q) {
            return vandq_u64(p, q);
        });
    }

    static Reg
    orv(const Reg &x, const Reg &y)
    {
        return map(x, y, [](uint64x2_t p, uint64x2_t q) {
            return vorrq_u64(p, q);
        });
    }

    static Reg
    xorv(const Reg &x, const Reg &y)
    {
        return map(x, y, [](uint64x2_t p, uint64x2_t q) {
            return veorq_u64(p, q);
        });
    }

    static Reg
    xor3(const Reg &x, const Reg &y, const Reg &z)
    {
        return xorv(xorv(x, y), z);
    }

    static Reg
    maj(const Reg &x, const Reg &y, const Reg &z)
    {
        // Where x and y differ the majority is z, elsewhere x.
        Reg r;
        for (int k = 0; k < 4; ++k)
            r.v[k] = vbslq_u64(veorq_u64(x.v[k], y.v[k]), z.v[k], x.v[k]);
        return r;
    }

    static Pop
    popZero()
    {
        Pop p;
        for (int k = 0; k < 4; ++k)
            p.v[k] = vdupq_n_u8(0);
        return p;
    }

    static Pop
    popAdd(const Pop &acc, const Reg &x)
    {
        Pop p;
        for (int k = 0; k < 4; ++k)
            p.v[k] = vaddq_u8(acc.v[k],
                              vcntq_u8(vreinterpretq_u8_u64(x.v[k])));
        return p;
    }

    static Reg
    popTotal(const Pop &acc)
    {
        Reg r;
        for (int k = 0; k < 4; ++k)
            r.v[k] = vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(acc.v[k])));
        return r;
    }

    static void
    storeSums(int64_t *dst, const Reg &r)
    {
        for (int k = 0; k < 4; ++k)
            vst1q_s64(dst + 2 * k, vreinterpretq_s64_u64(r.v[k]));
    }

    static void
    storeCounts(uint32_t *dst, const Reg &r)
    {
        for (int k = 0; k < 4; ++k)
            vst1_u32(dst + 2 * k, vmovn_u64(r.v[k]));
    }
};

void
tallyNeon(const simd::TallyJob &job)
{
    detail::tally<NeonLanes>(job);
}

} // namespace

extern const simd::KernelOps kNeonOps;
const simd::KernelOps kNeonOps = {
    "neon", maxU16Neon, quantizeNeon, directLookupNeon, tallyNeon,
};

} // namespace rapidnn::rna::kernels

#endif // aarch64
