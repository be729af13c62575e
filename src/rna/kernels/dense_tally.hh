/**
 * @file
 * The bit-sliced dense tally (KernelOps::denseTally), written once over
 * a per-ISA register type.
 *
 * Each kernel translation unit supplies a traits struct `V` whose
 * `Reg` holds one u64 per neuron of an 8-neuron group and whose static
 * members are the handful of bitwise ops the algorithm needs:
 *
 *   zero, codes (widen 8 packed weight codes), oneHot (bit w - 64*word
 *   when w falls in that mask word, else 0), products (the 8 padded
 *   products at (w << shift) | u), add (u64 lanes), andv, orv, xorv,
 *   xor3, maj, and a popcount accumulator: popZero, popAdd, popTotal
 *   (per-lane bit counts as u64), with at most kPopBatch popAdds
 *   between popTotals.
 *
 * This header uses no intrinsics itself; it is included only by the
 * kernel translation units under src/rna/kernels/.
 */

#ifndef RAPIDNN_RNA_KERNELS_DENSE_TALLY_HH
#define RAPIDNN_RNA_KERNELS_DENSE_TALLY_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/simd.hh"

namespace rapidnn::rna::kernels::detail {

/**
 * Bucket read-out: `c` holds K counter planes (bit w of c[p] is bit p
 * of count(w)). `distinct` gains the number of non-zero counts and
 * `addends` the CSD-term total, sum over w of popcount(c ^ 3c). Plane
 * q of c ^ 3c is c[q-1] ^ carry[q], where carry runs through the
 * bit-sliced addition c + 2c: carry[1] = 0 and carry[q+1] =
 * maj(c[q], c[q-1], carry[q]), with c[K] = 0 closing the top.
 */
template <class V, int K>
inline void
readout(const typename V::Reg *c, typename V::Reg &distinct,
        typename V::Reg &addends)
{
    using Reg = typename V::Reg;
    Reg any = c[0];
    for (int p = 1; p < K; ++p)
        any = V::orv(any, c[p]);
    distinct = V::add(distinct, V::popTotal(V::popAdd(V::popZero(), any)));

    auto pop = V::popZero();
    int pending = 0;
    auto count = [&](Reg x) {
        pop = V::popAdd(pop, x);
        if (++pending == V::kPopBatch) {
            addends = V::add(addends, V::popTotal(pop));
            pop = V::popZero();
            pending = 0;
        }
    };
    count(c[0]);
    Reg carry = V::zero();
    for (int p = 1; p < K; ++p) {
        carry = V::maj(c[p], c[p - 1], carry);
        count(V::xorv(c[p], carry));
    }
    count(V::andv(c[K - 1], carry));
    if (pending > 0)
        addends = V::add(addends, V::popTotal(pop));
}

/** Carry-save adder over bit planes: l + a + b = l' + 2 * (result). */
template <class V>
inline typename V::Reg
csa(typename V::Reg &l, typename V::Reg a, typename V::Reg b)
{
    const typename V::Reg h = V::maj(l, a, b);
    l = V::xor3(l, a, b);
    return h;
}

/** Add `carry` (one bit per code, worth 2^from) into planes c[from..K). */
template <class V, int K>
inline void
ripple(typename V::Reg *c, int from, typename V::Reg carry)
{
    for (int p = from; p < K; ++p) {
        const typename V::Reg next = V::andv(c[p], carry);
        c[p] = V::xorv(c[p], carry);
        carry = next;
    }
}

/**
 * Tally one input-code bucket of n edges (n < 2^K) for the group whose
 * weight codes start at `base`, into K counter planes. Buckets of 16
 * edges or more are counted 16 edges at a time through a Harley-Seal
 * carry-save tree into planes 0-3, whose carry-out (worth 16) ripples
 * into the planes above; the rest go in pairs through one carry-save
 * adder, and a last odd edge ripples in alone. Each 64-code mask word
 * is its own pass; the products are summed on the first.
 */
template <class V, int K>
void
tallyBucket(const simd::DenseTallyJob &job, const uint8_t *base,
            const uint32_t *idx, size_t n, uint32_t u,
            typename V::Reg &sum, typename V::Reg &distinct,
            typename V::Reg &addends)
{
    using Reg = typename V::Reg;
    const size_t stride = job.rowStride;
    for (uint32_t word = 0; word < job.maskWords; ++word) {
        // One edge: its 8 neurons' one-hot weight masks for this word,
        // adding their products to the sum on the first word.
        auto edge = [&](uint32_t i) {
            const Reg w = V::codes(base + size_t(i) * stride);
            if (word == 0)
                sum = V::add(sum,
                             V::products(w, job.shift, u, job.products));
            return V::oneHot(w, word);
        };
        Reg c[K];
        for (int p = 0; p < K; ++p)
            c[p] = V::zero();
        size_t e = 0;
        if constexpr (K > 4) {
            for (; e + 16 <= n; e += 16) {
                Reg d[16];
                for (int k = 0; k < 16; ++k)
                    d[k] = edge(idx[e + k]);
                Reg fours[2], eights[2];
                for (int half = 0; half < 2; ++half) {
                    const Reg *h = d + 8 * half;
                    Reg twosA = csa<V>(c[0], h[0], h[1]);
                    Reg twosB = csa<V>(c[0], h[2], h[3]);
                    fours[0] = csa<V>(c[1], twosA, twosB);
                    twosA = csa<V>(c[0], h[4], h[5]);
                    twosB = csa<V>(c[0], h[6], h[7]);
                    fours[1] = csa<V>(c[1], twosA, twosB);
                    eights[half] = csa<V>(c[2], fours[0], fours[1]);
                }
                ripple<V, K>(c, 4, csa<V>(c[3], eights[0], eights[1]));
            }
        }
        for (; e + 2 <= n; e += 2) {
            const Reg d0 = edge(idx[e]);
            const Reg d1 = edge(idx[e + 1]);
            ripple<V, K>(c, 1, csa<V>(c[0], d0, d1));
        }
        if (e < n)
            ripple<V, K>(c, 0, edge(idx[e]));
        readout<V, K>(c, distinct, addends);
    }
}

template <class V>
using BucketFn = void (*)(const simd::DenseTallyJob &, const uint8_t *,
                          const uint32_t *, size_t, uint32_t,
                          typename V::Reg &, typename V::Reg &,
                          typename V::Reg &);

/** tallyBucket instances for K = 1..16 planes, then 32 for larger
 *  buckets (planes above a count's bit length stay zero). */
template <class V, int... Ks>
constexpr std::array<BucketFn<V>, sizeof...(Ks) + 1>
bucketTable(std::integer_sequence<int, Ks...>)
{
    return {&tallyBucket<V, Ks + 1>..., &tallyBucket<V, 32>};
}

template <class V>
void
denseTally(const simd::DenseTallyJob &job)
{
    using Reg = typename V::Reg;
    static constexpr auto table =
        bucketTable<V>(std::make_integer_sequence<int, 16>{});
    for (size_t g = job.groupBegin; g < job.groupEnd; ++g) {
        const size_t j0 = g * simd::kDenseGroup;
        const uint8_t *base = job.rows + j0;
        Reg sum = V::zero();
        Reg distinct = V::zero();
        Reg addends = V::zero();
        for (size_t b = 0; b < job.buckets; ++b) {
            const uint32_t first = job.bucketStart[b];
            const size_t n = job.bucketStart[b + 1] - first;
            const size_t k = std::bit_width(n);
            table[std::min<size_t>(k, 17) - 1](
                job, base, job.order + first, n, job.bucketCode[b], sum,
                distinct, addends);
        }
        const size_t out = (g - job.groupBegin) * simd::kDenseGroup;
        V::storeSums(job.sums + out, sum);
        V::storeCounts(job.distinct + out, distinct);
        V::storeCounts(job.addends + out, addends);
    }
}

} // namespace rapidnn::rna::kernels::detail

#endif // RAPIDNN_RNA_KERNELS_DENSE_TALLY_HH
