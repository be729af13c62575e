/**
 * @file
 * Portable scalar implementations of the kernel primitives.
 *
 * These are the semantic reference every vector variant must match
 * bit-for-bit (tests/kernel_equivalence_test.cc): same key values,
 * same gathered bytes, same quantized codes, same NDCAM rows. The
 * loops are written straight-line so the compiler may autovectorize
 * them, but they use no intrinsics and no alignment or tail-slack
 * assumptions.
 */

#include <algorithm>
#include <bit>

#include "common/simd.hh"
#include "rna/kernels/dense_tally.hh"

namespace rapidnn::rna::kernels {

namespace {

void
narrowScalar(const uint16_t *src, size_t n, uint8_t *dst)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] = static_cast<uint8_t>(src[i]);
}

void
gather8Scalar(const uint8_t *src, const uint32_t *idx, size_t n,
              uint8_t *dst)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] = src[idx[i]];
}

uint16_t
maxU16Scalar(const uint16_t *v, size_t n)
{
    uint16_t best = v[0];
    for (size_t i = 1; i < n; ++i)
        best = std::max(best, v[i]);
    return best;
}

void
quantizeScalar(const double *x, size_t n, double lo, double hi,
               uint32_t maxKey, uint32_t *keys)
{
    // Identical operation sequence to FixedPointCodec::quantize; every
    // step is a correctly-rounded IEEE double op, so any per-lane
    // reimplementation of the same sequence is bitwise equal.
    for (size_t i = 0; i < n; ++i) {
        const double t = (x[i] - lo) / (hi - lo);
        const double clamped = std::clamp(t, 0.0, 1.0);
        const double scaled = clamped * static_cast<double>(maxKey);
        keys[i] = static_cast<uint32_t>(scaled + 0.5);
    }
}

void
directLookupScalar(const uint32_t *queries, size_t n,
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

int64_t
gatherSum16Scalar(const int64_t *table, const uint16_t *keys, size_t n)
{
    int64_t sum = 0;
    for (size_t i = 0; i < n; ++i)
        sum += table[keys[i]];
    return sum;
}

void
pairKeys8LanesScalar(const uint8_t *w, const uint8_t *const *xs,
                     size_t lanes, size_t n, uint32_t shift,
                     uint16_t *keys, size_t keyStride)
{
    for (size_t lane = 0; lane < lanes; ++lane) {
        const uint8_t *x = xs[lane];
        uint16_t *out = keys + lane * keyStride;
        for (size_t i = 0; i < n; ++i)
            out[i] = static_cast<uint16_t>(
                (static_cast<uint32_t>(w[i]) << shift) | x[i]);
    }
}

/** Dense-tally registers as plain u64 arrays, one per neuron. */
struct ScalarLanes
{
    struct Reg
    {
        uint64_t v[simd::kDenseGroup];
    };
    using Pop = Reg;
    static constexpr int kPopBatch = 1 << 30;

    template <typename F>
    static Reg
    map(F f)
    {
        Reg r;
        for (size_t k = 0; k < simd::kDenseGroup; ++k)
            r.v[k] = f(k);
        return r;
    }

    static Reg zero() { return map([](size_t) { return uint64_t(0); }); }

    static Reg
    codes(const uint8_t *w)
    {
        return map([&](size_t k) { return uint64_t(w[k]); });
    }

    static Reg
    oneHot(const Reg &w, uint32_t word)
    {
        return map([&](size_t k) {
            return (w.v[k] >> 6) == word ? uint64_t(1) << (w.v[k] & 63)
                                         : uint64_t(0);
        });
    }

    static Reg
    products(const Reg &w, uint32_t shift, uint32_t u,
             const int64_t *table)
    {
        return map([&](size_t k) {
            return static_cast<uint64_t>(table[(w.v[k] << shift) | u]);
        });
    }

    static Reg
    add(const Reg &a, const Reg &b)
    {
        return map([&](size_t k) { return a.v[k] + b.v[k]; });
    }

    static Reg
    andv(const Reg &a, const Reg &b)
    {
        return map([&](size_t k) { return a.v[k] & b.v[k]; });
    }

    static Reg
    orv(const Reg &a, const Reg &b)
    {
        return map([&](size_t k) { return a.v[k] | b.v[k]; });
    }

    static Reg
    xorv(const Reg &a, const Reg &b)
    {
        return map([&](size_t k) { return a.v[k] ^ b.v[k]; });
    }

    static Reg
    xor3(const Reg &a, const Reg &b, const Reg &c)
    {
        return map([&](size_t k) { return a.v[k] ^ b.v[k] ^ c.v[k]; });
    }

    static Reg
    maj(const Reg &a, const Reg &b, const Reg &c)
    {
        return map([&](size_t k) {
            return (a.v[k] & b.v[k]) | (c.v[k] & (a.v[k] | b.v[k]));
        });
    }

    static Pop popZero() { return zero(); }

    static Pop
    popAdd(const Pop &acc, const Reg &x)
    {
        return map([&](size_t k) {
            return acc.v[k] + static_cast<uint64_t>(std::popcount(x.v[k]));
        });
    }

    static Reg popTotal(const Pop &acc) { return acc; }

    static void
    storeSums(int64_t *dst, const Reg &r)
    {
        for (size_t k = 0; k < simd::kDenseGroup; ++k)
            dst[k] = static_cast<int64_t>(r.v[k]);
    }

    static void
    storeCounts(uint32_t *dst, const Reg &r)
    {
        for (size_t k = 0; k < simd::kDenseGroup; ++k)
            dst[k] = static_cast<uint32_t>(r.v[k]);
    }
};

void
denseTallyScalar(const simd::DenseTallyJob &job)
{
    detail::denseTally<ScalarLanes>(job);
}

} // namespace

extern const simd::KernelOps kScalarOps;
const simd::KernelOps kScalarOps = {
    "scalar", narrowScalar, gather8Scalar,
    maxU16Scalar, quantizeScalar, directLookupScalar, gatherSum16Scalar,
    pairKeys8LanesScalar, denseTallyScalar,
};

} // namespace rapidnn::rna::kernels
