/**
 * @file
 * Portable scalar implementations of the kernel primitives.
 *
 * These are the semantic reference every vector variant must match
 * bit-for-bit (tests/kernel_equivalence_test.cc): same maxima, same
 * quantized codes, same NDCAM rows, same tally outputs. The
 * loops are written straight-line so the compiler may autovectorize
 * them, but they use no intrinsics and no alignment or tail-slack
 * assumptions.
 */

#include <algorithm>
#include <bit>

#include "common/simd.hh"
#include "rna/kernels/tally.hh"

namespace rapidnn::rna::kernels {

namespace {

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

/** Tally registers as plain u64 arrays, one per neuron. */
struct ScalarLanes
{
    struct Reg
    {
        uint64_t v[simd::kTallyGroup];
    };
    using Pop = Reg;
    static constexpr int kPopBatch = 1 << 30;

    template <typename F>
    static Reg
    map(F f)
    {
        Reg r;
        for (size_t k = 0; k < simd::kTallyGroup; ++k)
            r.v[k] = f(k);
        return r;
    }

    static Reg zero() { return map([](size_t) { return uint64_t(0); }); }

    static Reg
    load(const uint64_t *p)
    {
        return map([&](size_t k) { return p[k]; });
    }

    static Reg splat(uint64_t x) { return map([&](size_t) { return x; }); }

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
    products(const Reg &w, uint32_t shift, const Reg &at,
             const int64_t *table)
    {
        return map([&](size_t k) {
            return static_cast<uint64_t>(table[(w.v[k] << shift) + at.v[k]]);
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
        for (size_t k = 0; k < simd::kTallyGroup; ++k)
            dst[k] = static_cast<int64_t>(r.v[k]);
    }

    static void
    storeCounts(uint32_t *dst, const Reg &r)
    {
        for (size_t k = 0; k < simd::kTallyGroup; ++k)
            dst[k] = static_cast<uint32_t>(r.v[k]);
    }
};

void
tallyScalar(const simd::TallyJob &job)
{
    detail::tally<ScalarLanes>(job);
}

} // namespace

extern const simd::KernelOps kScalarOps;
const simd::KernelOps kScalarOps = {
    "scalar", quantizeScalar, directLookupScalar, tallyScalar,
};

} // namespace rapidnn::rna::kernels
