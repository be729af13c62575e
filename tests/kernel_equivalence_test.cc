/**
 * @file
 * Bitwise-equivalence guard for the SIMD kernel layer.
 *
 * The contract (common/simd.hh): every KernelOps variant the host can
 * run is bit-exact against the scalar implementation, so RAPIDNN_SIMD
 * and ChipConfig::simd are pure speed knobs. Three levels pin it here:
 *
 *  1. Kernel primitives: each variant vs the scalar table over randomized
 *     inputs sweeping lengths around every vector-width boundary
 *     (0, 1, 15..17, 31..33, 63..65, 127..129) and unaligned base
 *     pointers (offsets 0..3).
 *  2. The accumulation engine: one neuron tallied by every tally
 *     implementation and read out through tallyResult vs the reference
 *     run(), field by field, for power-of-two and padded input
 *     codebooks.
 *  3. The tally (KernelOps::tally): every implementation against a
 *     direct per-neuron count over random layers, with one shared
 *     product table or a different table per neuron, and through
 *     tallyResult against the engine's run() oracle.
 *
 * Whole-chip equivalence (every variant, batch sizes 1 to 8, both
 * search modes, against the fastPath = false reference) is
 * tests/batch_equivalence_test.cc. The suite runs under the asan/tsan
 * presets like every other tier-1 test.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/bitops.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "composer/reinterpreted_model.hh"
#include "rna/accumulation.hh"
#include "rna/kernels/kernels.hh"

namespace rapidnn::rna {
namespace {

using simd::KernelOps;
using simd::Variant;

/** Lengths straddling every vector-width boundary in play (8/16/32
 *  lanes for u16; 4/8 for f64 and u32). */
const size_t kSizes[] = {0,  1,  2,  3,  7,  8,  9,   15,  16,  17, 31,
                         32, 33, 63, 64, 65, 127, 128, 129, 200};

const KernelOps &
scalarOps()
{
    const KernelOps *ops = kernels::opsFor(Variant::Scalar);
    EXPECT_NE(ops, nullptr);
    return *ops;
}

std::vector<Variant>
simdVariants()
{
    std::vector<Variant> out;
    for (Variant v : kernels::availableVariants())
        if (v != Variant::Scalar)
            out.push_back(v);
    return out;
}

TEST(KernelPrimitives, MaxU16MatchesScalar)
{
    Rng rng(105);
    for (Variant v : simdVariants()) {
        const KernelOps &ops = *kernels::opsFor(v);
        for (size_t n : kSizes) {
            if (n == 0)
                continue; // contract requires n >= 1
            for (size_t off = 0; off < 4; ++off) {
                std::vector<uint16_t> src(n + off);
                for (auto &c : src)
                    c = uint16_t(rng.uniformInt(0, 65535));
                EXPECT_EQ(ops.maxU16(src.data() + off, n),
                          scalarOps().maxU16(src.data() + off, n))
                    << ops.name << " n=" << n << " off=" << off;
            }
        }
    }
}

TEST(KernelPrimitives, QuantizeMatchesScalar)
{
    Rng rng(106);
    const double lo = -2.5, hi = 3.25;
    for (Variant v : simdVariants()) {
        const KernelOps &ops = *kernels::opsFor(v);
        for (size_t n : kSizes) {
            for (size_t off = 0; off < 4; ++off) {
                std::vector<double> x(n + off);
                for (auto &val : x)
                    // Overshoot the range so clamping paths execute.
                    val = lo - 1.0 + rng.uniform() * (hi - lo + 2.0);
                if (n > 0) {
                    x[off] = lo;
                    x[off + n - 1] = hi;
                }
                for (uint32_t maxKey : {15u, 255u, 65535u}) {
                    std::vector<uint32_t> got(n + 1, 7u),
                        want(n + 1, 7u);
                    scalarOps().quantize(x.data() + off, n, lo, hi,
                                         maxKey, want.data());
                    ops.quantize(x.data() + off, n, lo, hi, maxKey,
                                 got.data());
                    EXPECT_EQ(got, want)
                        << ops.name << " n=" << n << " off=" << off
                        << " maxKey=" << maxKey;
                }
            }
        }
    }
}

TEST(KernelPrimitives, DirectLookupMatchesScalar)
{
    Rng rng(107);
    // Build a valid compiled winner map: strictly increasing segment
    // starts from 0, and per-bucket hints pointing at the segment
    // containing the bucket's first key (the walk only moves forward).
    const uint32_t bucketShift = 4;
    std::vector<uint32_t> segStart = {0, 3, 17, 18, 40, 129, 200, 255};
    std::vector<uint32_t> segRow(segStart.size());
    for (auto &r : segRow)
        r = uint32_t(rng.uniformInt(0, 999));
    const uint32_t maxQuery = 310; // past the last segment start
    const size_t bucketCount = (maxQuery >> bucketShift) + 1;
    std::vector<uint32_t> bucketSeg(bucketCount);
    for (size_t b = 0; b < bucketCount; ++b) {
        const uint32_t first = uint32_t(b) << bucketShift;
        uint32_t seg = 0;
        while (seg + 1 < segStart.size() && segStart[seg + 1] <= first)
            ++seg;
        bucketSeg[b] = seg;
    }
    for (Variant v : simdVariants()) {
        const KernelOps &ops = *kernels::opsFor(v);
        for (size_t n : kSizes) {
            std::vector<uint32_t> queries(n);
            for (auto &q : queries)
                q = uint32_t(rng.uniformInt(0, maxQuery));
            std::vector<uint32_t> got(n + 1, 0xee), want(n + 1, 0xee);
            scalarOps().directLookup(queries.data(), n,
                                     bucketSeg.data(), bucketCount,
                                     bucketShift, segStart.data(),
                                     segRow.data(), segStart.size(),
                                     want.data());
            ops.directLookup(queries.data(), n, bucketSeg.data(),
                             bucketCount, bucketShift, segStart.data(),
                             segRow.data(), segStart.size(),
                             got.data());
            EXPECT_EQ(got, want) << ops.name << " n=" << n;
        }
    }
}

// ------------------------------------------------- engine equivalence

void
expectResultsEqual(const AccumResult &a, const AccumResult &b,
                   const char *what)
{
    EXPECT_EQ(a.value, b.value) << what;
    EXPECT_EQ(a.distinctProducts, b.distinctProducts) << what;
    EXPECT_EQ(a.addends, b.addends) << what;
    EXPECT_EQ(a.countingCycles, b.countingCycles) << what;
    EXPECT_EQ(a.cost.counting.cycles, b.cost.counting.cycles) << what;
    EXPECT_EQ(a.cost.fetch.cycles, b.cost.fetch.cycles) << what;
    EXPECT_EQ(a.cost.adder.cycles, b.cost.adder.cycles) << what;
    EXPECT_EQ(a.cost.total().energy.j(), b.cost.total().energy.j())
        << what;
}

/** Deepest weight buffer of a code column: the counting cycles. */
uint32_t
countingCycles(const std::vector<uint8_t> &codes)
{
    std::vector<uint32_t> depth(256, 0);
    uint32_t deepest = 0;
    for (uint8_t c : codes)
        deepest = std::max(deepest, ++depth[c]);
    return deepest;
}

/**
 * run() (the reference) vs one neuron tallied by every tally
 * implementation and read out through tallyResult, for one (w, u)
 * table: fan-ins across every size in kSizes, three input lanes each.
 */
void
sweepEngine(size_t w, size_t u, uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> table(w * u);
    for (auto &p : table)
        p = rng.uniform() * 2.0 - 1.0;
    AccumulationEngine engine(Array<double>(std::move(table)), w, u,
                              nvm::CostModel{});
    AccumScratch scratch;
    const std::vector<uint64_t> base(simd::kTallyGroup, 0);

    for (size_t n : kSizes) {
        // Neuron 0 of one group; the other seven are padding (code 0).
        std::vector<uint8_t> rows(n * simd::kTallyGroup, 0);
        std::vector<uint8_t> col(n);
        for (size_t i = 0; i < n; ++i)
            rows[i * simd::kTallyGroup] = col[i] =
                uint8_t(rng.uniformInt(0, int64_t(w) - 1));
        const double bias = rng.uniform() - 0.5;
        for (size_t lane = 0; lane < 3; ++lane) {
            std::vector<uint16_t> x(n);
            for (auto &c : x)
                c = uint16_t(rng.uniformInt(0, int64_t(u) - 1));
            const AccumResult want = engine.run(
                std::vector<uint16_t>(col.begin(), col.end()), x, bias);
            InputBuckets buckets;
            buckets.build(x.data(), n, u);
            for (const kernels::TallyImpl &impl : kernels::tallyImpls()) {
                int64_t sums[simd::kTallyGroup] = {};
                uint32_t distinct[simd::kTallyGroup] = {};
                uint32_t addends[simd::kTallyGroup] = {};
                simd::TallyJob job{};
                job.rows = rows.data();
                job.rowStride = simd::kTallyGroup;
                job.order = buckets.order.data();
                job.bucketStart = buckets.start.data();
                job.bucketCode = buckets.code.data();
                job.buckets = buckets.buckets();
                job.products = engine.paddedProducts();
                job.productBase = base.data();
                job.shift = engine.keyShift();
                job.maskWords = uint32_t((w + 63) / 64);
                job.groupBegin = 0;
                job.groupEnd = 1;
                job.sums = sums;
                job.distinct = distinct;
                job.addends = addends;
                impl.fn(job);
                expectResultsEqual(
                    want,
                    engine.tallyResult(sums[0], distinct[0], addends[0],
                                       countingCycles(col), n, bias,
                                       scratch),
                    impl.name);
            }
        }
    }
}

TEST(EngineEquivalence, PowerOfTwoInputCodebook)
{
    sweepEngine(16, 16, 201); // u power of two: the row-major table
}

TEST(EngineEquivalence, PaddedInputCodebook)
{
    sweepEngine(16, 12, 202); // u not a power of two: padded copy
    sweepEngine(7, 3, 203);
}

// ------------------------------------------------------------- tally

TEST(DenseTally, NafWeightEqualsCsdTerms)
{
    // The tally counts CSD terms as popcount(c ^ 3c) across its
    // planes; that must equal csdForEach's recoding for every count.
    for (uint64_t c = 0; c < 100000; ++c) {
        size_t terms = 0;
        csdForEach(c, [&](ShiftTerm) { ++terms; });
        ASSERT_EQ(size_t(std::popcount(c ^ (3 * c))), terms) << c;
    }
}

/** One synthetic layer for the tally sweep. */
struct TallyCase
{
    size_t fanIn;
    size_t outCount;
    size_t w;
    size_t u;
    bool wide;        //!< products beyond int32 (fixed point)
    bool oneCode;     //!< every input shares one code
    bool perNeuron;   //!< a product table per neuron, as conv channels
};

/**
 * Every tally implementation vs a direct per-neuron count over random
 * codes: sums, distinct cells and CSD terms for every neuron (padding
 * included), for each lane, over split group ranges; then the scalar
 * outputs through tallyResult vs the engine's run() oracle. With
 * `perNeuron`, each neuron has its own engine and the tables lie end
 * to end, each neuron reading its own through a non-zero base (padding
 * neurons read neuron 0's), as the conv tally lays out its channels.
 */
void
sweepTally(const TallyCase &tc, size_t lanes, uint64_t seed)
{
    Rng rng(seed);
    std::vector<AccumulationEngine> engines;
    for (size_t e = 0; e < (tc.perNeuron ? tc.outCount : 1); ++e) {
        std::vector<double> table(tc.w * tc.u);
        for (auto &p : table)
            p = (rng.uniform() * 2.0 - 1.0) * (tc.wide ? 4.0e6 : 1.5);
        engines.emplace_back(Array<double>(std::move(table)), tc.w, tc.u,
                             nvm::CostModel{});
    }
    const size_t stride = composer::tallyRowStride(tc.outCount);
    const size_t groups = stride / simd::kTallyGroup;
    std::vector<int64_t> products;
    std::vector<uint64_t> base(stride, 0);
    for (size_t e = 0; e < engines.size(); ++e) {
        base[e] = products.size();
        products.insert(products.end(), engines[e].paddedProducts(),
                        engines[e].paddedProducts() +
                            engines[e].paddedCells());
    }
    auto engineOf = [&](size_t j) -> const AccumulationEngine & {
        return engines[tc.perNeuron ? j : 0];
    };

    std::vector<uint8_t> rows(tc.fanIn * stride, 0);
    for (size_t i = 0; i < tc.fanIn; ++i)
        for (size_t j = 0; j < tc.outCount; ++j)
            rows[i * stride + j] =
                uint8_t(rng.uniformInt(0, int64_t(tc.w) - 1));
    const uint32_t shift = engines[0].keyShift();
    const uint32_t maskWords = uint32_t((tc.w + 63) / 64);

    AccumScratch scratch;
    for (size_t L = 0; L < lanes; ++L) {
        std::vector<uint16_t> x(tc.fanIn);
        const uint16_t fixed = uint16_t(rng.uniformInt(0, int64_t(tc.u) - 1));
        for (auto &c : x)
            c = tc.oneCode ? fixed
                           : uint16_t(rng.uniformInt(0, int64_t(tc.u) - 1));
        InputBuckets buckets;
        buckets.build(x.data(), tc.fanIn, tc.u);

        // Direct count per neuron, padding neurons (code 0) included.
        std::vector<int64_t> wantSum(stride);
        std::vector<uint32_t> wantDistinct(stride), wantAddends(stride);
        for (size_t j = 0; j < stride; ++j) {
            std::vector<uint32_t> cells(tc.w << shift, 0);
            int64_t sum = 0;
            for (size_t i = 0; i < tc.fanIn; ++i) {
                const size_t key =
                    (size_t(rows[i * stride + j]) << shift) | x[i];
                ++cells[key];
                sum += products[base[j] + key];
            }
            uint32_t distinct = 0, addends = 0;
            for (uint32_t c : cells) {
                distinct += c != 0;
                csdForEach(c, [&](ShiftTerm) { ++addends; });
            }
            wantSum[j] = sum;
            wantDistinct[j] = distinct;
            wantAddends[j] = addends;
        }

        const size_t split = size_t(rng.uniformInt(0, int64_t(groups)));
        for (const kernels::TallyImpl &impl : kernels::tallyImpls()) {
            // One guard neuron past the stride must stay untouched.
            std::vector<int64_t> sums(stride + 1, -7);
            std::vector<uint32_t> distinct(stride + 1, 7),
                addends(stride + 1, 7);
            simd::TallyJob job{};
            job.rows = rows.data();
            job.rowStride = stride;
            job.order = buckets.order.data();
            job.bucketStart = buckets.start.data();
            job.bucketCode = buckets.code.data();
            job.buckets = buckets.buckets();
            job.products = products.data();
            job.productBase = base.data();
            job.shift = shift;
            job.maskWords = maskWords;
            for (auto [gb, ge] : {std::pair<size_t, size_t>{0, split},
                                  {split, groups}}) {
                const size_t at = gb * simd::kTallyGroup;
                job.groupBegin = gb;
                job.groupEnd = ge;
                job.sums = sums.data() + at;
                job.distinct = distinct.data() + at;
                job.addends = addends.data() + at;
                impl.fn(job);
            }
            const std::string what = std::string(impl.name)
                + " fanIn=" + std::to_string(tc.fanIn)
                + " out=" + std::to_string(tc.outCount)
                + " w=" + std::to_string(tc.w)
                + " u=" + std::to_string(tc.u)
                + (tc.perNeuron ? " per-neuron" : "")
                + " lane=" + std::to_string(L);
            for (size_t j = 0; j < stride; ++j) {
                ASSERT_EQ(sums[j], wantSum[j]) << what << " j=" << j;
                ASSERT_EQ(distinct[j], wantDistinct[j])
                    << what << " j=" << j;
                ASSERT_EQ(addends[j], wantAddends[j])
                    << what << " j=" << j;
            }
            EXPECT_EQ(sums[stride], -7) << what;
            EXPECT_EQ(distinct[stride], 7u) << what;
            EXPECT_EQ(addends[stride], 7u) << what;
        }

        // The tally outputs make the engine's AccumResult exactly.
        for (size_t j = 0; j < tc.outCount; ++j) {
            std::vector<uint8_t> col(tc.fanIn);
            for (size_t i = 0; i < tc.fanIn; ++i)
                col[i] = rows[i * stride + j];
            const double bias = rng.uniform() - 0.5;
            const AccumResult got = engineOf(j).tallyResult(
                wantSum[j], wantDistinct[j], wantAddends[j],
                countingCycles(col), tc.fanIn, bias, scratch);
            expectResultsEqual(
                engineOf(j).run(
                    std::vector<uint16_t>(col.begin(), col.end()), x,
                    bias),
                got, "tallyResult");
        }
    }
}

TEST(DenseTally, AllImplementationsMatchDirectCount)
{
    const TallyCase cases[] = {
        // fan-in and outCount off multiples of 8, tail groups of 1
        {19, 9, 16, 16, false, false, false},
        {1, 1, 4, 4, false, false, false},
        {33, 17, 64, 37, false, false, false},   // u not a power of two
        {70, 25, 65, 37, false, false, false},   // two mask words
        {45, 8, 256, 5, false, false, false},    // four mask words
        {200, 13, 64, 16, true, false, false},   // wide products
        {300, 11, 64, 37, false, true, false},   // one bucket, most planes
        {4100, 3, 7, 3, false, true, false},     // > 12 planes
        {70000, 2, 3, 2, false, true, false},    // > 16 planes
        {257, 41, 200, 300, true, false, false}, // u beyond 8-bit codes
        // A product table per neuron (conv channels): non-zero bases.
        {27, 5, 14, 8, false, false, true},
        {75, 17, 16, 12, false, false, true},
        {99, 9, 65, 300, true, false, true},
        {300, 11, 64, 37, false, true, true},
    };
    uint64_t seed = 401;
    for (const TallyCase &tc : cases)
        for (size_t lanes : {size_t(1), size_t(3)})
            sweepTally(tc, lanes, seed++);
}

// ------------------------------------------------- dispatch policy

TEST(KernelDispatch, EnvOverridesAutoExplicitWinsOverEnv)
{
    const std::vector<Variant> avail = kernels::availableVariants();
    ASSERT_FALSE(avail.empty());
    EXPECT_EQ(avail.back(), Variant::Scalar);

    ASSERT_EQ(setenv("RAPIDNN_SIMD", "scalar", 1), 0);
    EXPECT_EQ(kernels::resolve(Variant::Auto), Variant::Scalar);
    // An explicit (non-Auto) request beats the environment.
    for (Variant v : avail)
        EXPECT_EQ(kernels::resolve(v), v);
    ASSERT_EQ(setenv("RAPIDNN_SIMD", simd::variantName(avail.front()), 1),
              0);
    EXPECT_EQ(kernels::resolve(Variant::Auto), avail.front());
    EXPECT_EQ(kernels::resolve(Variant::Scalar), Variant::Scalar);
    ASSERT_EQ(unsetenv("RAPIDNN_SIMD"), 0);

    // Without an override, Auto resolves to the best available
    // variant, which availableVariants() lists first.
    EXPECT_EQ(kernels::resolve(Variant::Auto), avail.front());
}

TEST(KernelDispatch, ScalarAlwaysAvailableAndTablesNamed)
{
    for (Variant v : kernels::availableVariants()) {
        const KernelOps *ops = kernels::opsFor(v);
        ASSERT_NE(ops, nullptr) << simd::variantName(v);
        EXPECT_STREQ(ops->name, simd::variantName(v));
        EXPECT_NE(ops->maxU16, nullptr);
        EXPECT_NE(ops->quantize, nullptr);
        EXPECT_NE(ops->directLookup, nullptr);
        EXPECT_NE(ops->tally, nullptr);
    }
    EXPECT_EQ(kernels::opsFor(Variant::Auto), nullptr);
}

} // namespace
} // namespace rapidnn::rna
