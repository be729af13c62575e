/**
 * @file
 * The bit-sliced tally (KernelOps::tally), written once over a per-ISA
 * register type.
 *
 * Each kernel translation unit supplies a traits struct `V` whose
 * `Reg` holds one u64 per neuron of an 8-neuron group and whose static
 * members are the handful of bitwise ops the algorithm needs:
 *
 *   zero, load (8 u64), splat (one u64 in every lane), codes (widen 8
 *   packed weight codes), oneHot (bit w - 64*word when w falls in that
 *   mask word, else 0), products (the 8 products at (w << shift) + at,
 *   where `at` holds each neuron's table base plus the input code),
 *   add (u64 lanes), andv, orv, xorv,
 *   xor3, maj, and a popcount accumulator: popZero, popAdd, popTotal
 *   (per-lane bit counts as u64), with at most kPopBatch popAdds
 *   between popTotals.
 *
 * A vector traits struct also sums shared-table products from byte
 * planes (TallyJob::planes), kPlaneNeurons (32 or 64) neurons at a
 * time; the scalar traits leave these out and always sum `products`:
 *
 *   Bytes (kPlaneNeurons packed weight codes), RowMask and rowMask(n) /
 *   rowCodes (load the first n of a row's codes, reading no byte past
 *   them), Table / table / tableZero (one 64-entry byte plane in lookup
 *   form), key<NW> (what the lookup of NW 64-entry words precomputes
 *   from the codes once per edge), lookup<NW> (the byte of every code
 *   in NW tables), and a u16 accumulator: Acc, accZero, accAdd (every
 *   byte into its neuron's u16 lane), accStore (kPlaneNeurons u16
 *   lanes in neuron order).
 *
 * This header uses no intrinsics itself; it is included only by the
 * kernel translation units under src/rna/kernels/.
 */

#ifndef RAPIDNN_RNA_KERNELS_TALLY_HH
#define RAPIDNN_RNA_KERNELS_TALLY_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
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
 * Count one input-code bucket of n edges (n < 2^K) for the group whose
 * weight codes start at `base`, into K counter planes. Buckets of 16
 * edges or more are counted 16 edges at a time through a Harley-Seal
 * carry-save tree into planes 0-3, whose carry-out (worth 16) ripples
 * into the planes above; the rest go in pairs through one carry-save
 * adder, and a last odd edge ripples in alone. Each 64-code mask word
 * is its own pass.
 */
template <class V, int K>
void
countBucket(const simd::TallyJob &job, const uint8_t *base,
            const uint32_t *idx, size_t n, typename V::Reg &distinct,
            typename V::Reg &addends)
{
    using Reg = typename V::Reg;
    const size_t stride = job.rowStride;
    for (uint32_t word = 0; word < job.maskWords; ++word) {
        // One edge: its 8 neurons' one-hot weight masks for this word.
        auto edge = [&](uint32_t i) {
            return V::oneHot(V::codes(base + size_t(i) * stride), word);
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
using BucketFn = void (*)(const simd::TallyJob &, const uint8_t *,
                          const uint32_t *, size_t, typename V::Reg &,
                          typename V::Reg &);

/** countBucket instances for K = 1..16 planes, then 32 for larger
 *  buckets (planes above a count's bit length stay zero). */
template <class V, int... Ks>
constexpr std::array<BucketFn<V>, sizeof...(Ks) + 1>
bucketTable(std::integer_sequence<int, Ks...>)
{
    return {&countBucket<V, Ks + 1>..., &countBucket<V, 32>};
}

/**
 * Add the products of one bucket's n edges to a group's sum by one
 * gather per edge: neuron j reads products[at[j] + (w << shift)], where
 * `at` holds each neuron's table base plus the bucket's input code.
 */
template <class V>
typename V::Reg
gatherBucket(const simd::TallyJob &job, const uint8_t *base,
             const uint32_t *idx, size_t n, typename V::Reg at,
             typename V::Reg sum)
{
    for (size_t e = 0; e < n; ++e) {
        const auto w = V::codes(base + size_t(idx[e]) * job.rowStride);
        sum = V::add(sum, V::products(w, job.shift, at, job.products));
    }
    return sum;
}

/**
 * Distinct cells and CSD terms of the groups [gBegin, gEnd), and with
 * `gather` their product sums. The gather runs bucket by bucket next to
 * the counting, so the two overlap.
 */
template <class V>
void
tallyGroups(const simd::TallyJob &job, size_t gBegin, size_t gEnd,
            bool gather)
{
    using Reg = typename V::Reg;
    static constexpr auto table =
        bucketTable<V>(std::make_integer_sequence<int, 16>{});
    for (size_t g = gBegin; g < gEnd; ++g) {
        const size_t j0 = g * simd::kTallyGroup;
        const uint8_t *base = job.rows + j0;
        const Reg tables = gather ? V::load(job.productBase + j0) : V::zero();
        Reg sum = V::zero();
        Reg distinct = V::zero();
        Reg addends = V::zero();
        for (size_t b = 0; b < job.buckets; ++b) {
            const uint32_t *idx = job.order + job.bucketStart[b];
            const size_t n = job.bucketStart[b + 1] - job.bucketStart[b];
            if (gather)
                sum = gatherBucket<V>(
                    job, base, idx, n,
                    V::add(tables, V::splat(job.bucketCode[b])), sum);
            const size_t k = std::bit_width(n);
            table[std::min<size_t>(k, 17) - 1](job, base, idx, n, distinct,
                                               addends);
        }
        const size_t out = (g - job.groupBegin) * simd::kTallyGroup;
        if (gather)
            V::storeSums(job.sums + out, sum);
        V::storeCounts(job.distinct + out, distinct);
        V::storeCounts(job.addends + out, addends);
    }
}

/** f(std::integral_constant<int, i>{}) for i = 0..N-1, unrolled at
 *  compile time so per-plane registers stay registers. */
template <int N, class F>
inline void
unrolled(F &&f)
{
    [&]<int... I>(std::integer_sequence<int, I...>) {
        (f(std::integral_constant<int, I>{}), ...);
    }(std::make_integer_sequence<int, N>{});
}

/**
 * Product sums of the groups [g0, g1) (at most V::kPlaneNeurons)
 * from the job's byte planes, B bytes per product and NW 64-entry
 * tables per plane: 1 for codebooks of up to 64 entries, else 4, the
 * tables past maskWords zero (no code reaches them).
 * Byte b of each edge's product minus planeMin goes into u16 lane
 * acc[b]; every kPlaneFlushEdges edges the lanes move into the u64
 * totals at weight 256^b. All arithmetic wraps mod 2^64, so the total
 * plus n * planeMin is the int64 product sum bit for bit.
 */
template <class V, int B, int NW>
void
planeSums(const simd::TallyJob &job, size_t g0, size_t g1)
{
    using Acc = typename V::Acc;
    const size_t neurons = (g1 - g0) * simd::kTallyGroup;
    const size_t row = 64 * size_t(job.maskWords);
    const uint8_t *base = job.rows + g0 * simd::kTallyGroup;
    const typename V::RowMask mask = V::rowMask(neurons);
    uint64_t total[V::kPlaneNeurons] = {};
    alignas(64) uint16_t lanes[V::kPlaneNeurons];
    Acc acc[B];
    for (int b = 0; b < B; ++b)
        acc[b] = V::accZero();
    auto flush = [&] {
        for (int b = 0; b < B; ++b) {
            V::accStore(lanes, acc[b]);
            for (size_t k = 0; k < V::kPlaneNeurons; ++k)
                total[k] += uint64_t(lanes[k]) << (8 * b);
            acc[b] = V::accZero();
        }
    };
    size_t left = simd::kPlaneFlushEdges;
    for (size_t bk = 0; bk < job.buckets; ++bk) {
        const uint8_t *planes =
            job.planes + size_t(job.bucketCode[bk]) * B * row;
        typename V::Table t[B][NW];
        for (int b = 0; b < B; ++b)
            for (int q = 0; q < NW; ++q)
                t[b][q] = q < int(job.maskWords)
                              ? V::table(planes + b * row + 64 * q)
                              : V::tableZero();
        const uint32_t *idx = job.order + job.bucketStart[bk];
        size_t n = job.bucketStart[bk + 1] - job.bucketStart[bk];
        while (n > 0) {
            const size_t m = std::min(n, left);
            for (size_t e = 0; e < m; ++e) {
                const auto key = V::template key<NW>(V::rowCodes(
                    base + size_t(idx[e]) * job.rowStride, mask));
                unrolled<B>([&](auto b) {
                    V::accAdd(acc[b], V::template lookup<NW>(t[b], key));
                });
            }
            idx += m;
            n -= m;
            left -= m;
            if (left == 0) {
                flush();
                left = simd::kPlaneFlushEdges;
            }
        }
    }
    flush();
    const uint64_t edges =
        job.bucketStart[job.buckets] - job.bucketStart[0];
    const uint64_t offset = edges * static_cast<uint64_t>(job.planeMin);
    int64_t *out = job.sums + (g0 - job.groupBegin) * simd::kTallyGroup;
    for (size_t k = 0; k < neurons; ++k)
        out[k] = static_cast<int64_t>(total[k] + offset);
}

using PlaneFn = void (*)(const simd::TallyJob &, size_t, size_t);

/** planeSums instances for B = 1..8 bytes by NW = 1, 4 words. */
template <class V, int... Bs>
constexpr std::array<std::array<PlaneFn, 2>, sizeof...(Bs)>
planeTable(std::integer_sequence<int, Bs...>)
{
    return {{{&planeSums<V, Bs + 1, 1>, &planeSums<V, Bs + 1, 4>}...}};
}

template <class V>
void
tally(const simd::TallyJob &job)
{
    if constexpr (requires { typename V::Bytes; }) {
        if (job.planes != nullptr) {
            static constexpr auto sums =
                planeTable<V>(std::make_integer_sequence<int, 8>{});
            constexpr size_t kBlockGroups =
                V::kPlaneNeurons / simd::kTallyGroup;
            for (size_t g = job.groupBegin; g < job.groupEnd;
                 g += kBlockGroups) {
                const size_t gEnd = std::min(g + kBlockGroups, job.groupEnd);
                sums[job.planeBytes - 1][job.maskWords == 1 ? 0 : 1](
                    job, g, gEnd);
                tallyGroups<V>(job, g, gEnd, false);
            }
            return;
        }
    }
    tallyGroups<V>(job, job.groupBegin, job.groupEnd, true);
}

} // namespace rapidnn::rna::kernels::detail

#endif // RAPIDNN_RNA_KERNELS_TALLY_HH
