/**
 * @file
 * Bitwise-equivalence guard for the SIMD kernel layer.
 *
 * The contract (common/simd.hh): every KernelOps variant the host can
 * run is bit-exact against the scalar implementation, so RAPIDNN_SIMD
 * and ChipConfig::simd are pure speed knobs. Two levels pin it here:
 *
 *  1. Kernel primitives: each variant vs the scalar table over randomized
 *     inputs sweeping fan-in lengths around every vector-width boundary
 *     (0, 1, 15..17, 31..33, 63..65, 127..129) and unaligned base
 *     pointers (offsets 0..3), for 8-bit and 16-bit code widths.
 *  2. The accumulation engine: the prekeyed kernel accumulations vs
 *     the reference run(), field by field, for power-of-two and padded
 *     key grids.
 *
 * The dense tally (KernelOps::denseTally) gets its own randomized
 * sweep: every implementation the host can run against a direct
 * per-neuron count and, through denseResult, against the engine's
 * run() oracle. Whole-chip equivalence (every variant, batch sizes 1
 * to 8, both search modes, against the fastPath = false reference) is
 * tests/batch_equivalence_test.cc.
 *
 * The suite runs under the asan/tsan presets like every other tier-1
 * test; the gather tail-slack contract is exercised by gathering from
 * the very end of a source buffer.
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

using simd::AlignedVec;
using simd::KernelOps;
using simd::Variant;

/** Fan-in lengths straddling every vector-width boundary in play
 *  (16/32/64 lanes for u8; 8/16/32 for u16; 4/8 for f64). */
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

TEST(KernelPrimitives, PairKeys8MatchesScalar)
{
    // One lane at unaligned offsets: every variant's keys equal the
    // scalar table's.
    Rng rng(101);
    for (Variant v : simdVariants()) {
        const KernelOps &ops = *kernels::opsFor(v);
        for (size_t n : kSizes) {
            for (size_t off = 0; off < 4; ++off) {
                std::vector<uint8_t> w(n + off), x(n + off);
                for (auto &c : w)
                    c = uint8_t(rng.uniformInt(0, 255));
                for (auto &c : x)
                    c = uint8_t(rng.uniformInt(0, 255));
                const uint8_t *xp = x.data() + off;
                for (uint32_t shift : {0u, 3u, 8u}) {
                    std::vector<uint16_t> got(n + 1, 0xabcd),
                        want(n + 1, 0xabcd);
                    scalarOps().pairKeys8Lanes(w.data() + off, &xp, 1, n,
                                               shift, want.data(), n);
                    ops.pairKeys8Lanes(w.data() + off, &xp, 1, n, shift,
                                       got.data(), n);
                    EXPECT_EQ(got, want)
                        << ops.name << " n=" << n << " off=" << off
                        << " shift=" << shift;
                }
            }
        }
    }
}

TEST(KernelPrimitives, PairKeys8LanesMatchesPerLanePairKeys8)
{
    // Every lane's key stripe must equal that lane's pair keys
    // (w << shift) | x, and only [0, n) of each stripe may be written
    // (keyStride > n leaves guard cells untouched).
    Rng rng(108);
    for (Variant v : kernels::availableVariants()) {
        const KernelOps &ops = *kernels::opsFor(v);
        ASSERT_NE(ops.pairKeys8Lanes, nullptr) << ops.name;
        for (size_t n : kSizes) {
            for (size_t lanes : {size_t(1), size_t(3), size_t(8)}) {
                std::vector<uint8_t> w(n);
                for (auto &c : w)
                    c = uint8_t(rng.uniformInt(0, 255));
                std::vector<std::vector<uint8_t>> xs(lanes);
                std::vector<const uint8_t *> xPtrs(lanes);
                for (size_t L = 0; L < lanes; ++L) {
                    xs[L].resize(n);
                    for (auto &c : xs[L])
                        c = uint8_t(rng.uniformInt(0, 255));
                    xPtrs[L] = xs[L].data();
                }
                const size_t stride = n + 2;  // guard cells per lane
                for (uint32_t shift : {0u, 4u, 8u}) {
                    std::vector<uint16_t> got(lanes * stride, 0xabcd);
                    ops.pairKeys8Lanes(w.data(), xPtrs.data(), lanes,
                                       n, shift, got.data(), stride);
                    for (size_t L = 0; L < lanes; ++L) {
                        for (size_t i = 0; i < n; ++i)
                            EXPECT_EQ(got[L * stride + i],
                                      uint16_t((uint32_t(w[i]) << shift)
                                               | xs[L][i]))
                                << ops.name << " n=" << n << " lane="
                                << L << " i=" << i
                                << " shift=" << shift;
                        for (size_t g = n; g < stride; ++g)
                            EXPECT_EQ(got[L * stride + g], 0xabcd)
                                << ops.name
                                << " wrote past n in lane " << L;
                    }
                }
            }
        }
    }
}

TEST(KernelPrimitives, NarrowMatchesScalar)
{
    Rng rng(103);
    for (Variant v : simdVariants()) {
        const KernelOps &ops = *kernels::opsFor(v);
        for (size_t n : kSizes) {
            for (size_t off = 0; off < 4; ++off) {
                std::vector<uint16_t> src(n + off);
                for (auto &c : src)
                    c = uint16_t(rng.uniformInt(0, 255));
                std::vector<uint8_t> got(n + 1, 0xcc), want(n + 1, 0xcc);
                scalarOps().narrow(src.data() + off, n, want.data());
                ops.narrow(src.data() + off, n, got.data());
                EXPECT_EQ(got, want)
                    << ops.name << " n=" << n << " off=" << off;
            }
        }
    }
}

TEST(KernelPrimitives, Gather8MatchesScalar)
{
    Rng rng(104);
    // Source must honor the gather contract: AlignedVec tail slack.
    // Indices deliberately include the very last element so the
    // 3-bytes-past-the-element overread lands in the slack (asan would
    // flag a violation).
    for (size_t srcLen : {1UL, 5UL, 64UL, 300UL}) {
        AlignedVec<uint8_t> src;
        src.ensure(srcLen);
        for (size_t i = 0; i < srcLen; ++i)
            src[i] = uint8_t(rng.uniformInt(0, 255));
        for (Variant v : simdVariants()) {
            const KernelOps &ops = *kernels::opsFor(v);
            for (size_t n : kSizes) {
                std::vector<uint32_t> idx(n);
                for (auto &i : idx)
                    i = uint32_t(rng.uniformInt(0, int64_t(srcLen) - 1));
                if (n > 0)
                    idx[n - 1] = uint32_t(srcLen - 1);
                std::vector<uint8_t> got(n + 1, 0xcc),
                    want(n + 1, 0xcc);
                scalarOps().gather8(src.data(), idx.data(), n,
                                    want.data());
                ops.gather8(src.data(), idx.data(), n, got.data());
                EXPECT_EQ(got, want) << ops.name << " srcLen=" << srcLen
                                     << " n=" << n;
            }
        }
    }
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

/**
 * run() (the reference) vs the kernel accumulations over pair keys —
 * runPrekeyed per lane and runPrekeyedLanes over three lanes — for
 * one (w, u) table.
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
    constexpr size_t kLanes = 3;

    for (size_t n : kSizes) {
        scratch.ensurePadded(w, engine.keyShift(), n);
        std::vector<uint8_t> wc8(n);
        for (auto &c : wc8)
            c = uint8_t(rng.uniformInt(0, int64_t(w) - 1));
        std::vector<uint16_t> wc(wc8.begin(), wc8.end());
        const double bias = rng.uniform() - 0.5;
        std::vector<std::vector<uint8_t>> uc8(kLanes,
                                              std::vector<uint8_t>(n));
        std::vector<const uint8_t *> xs(kLanes);
        std::vector<AccumResult> oracles(kLanes);
        for (size_t L = 0; L < kLanes; ++L) {
            for (auto &c : uc8[L])
                c = uint8_t(rng.uniformInt(0, int64_t(u) - 1));
            xs[L] = uc8[L].data();
            oracles[L] = engine.run(
                wc, std::vector<uint16_t>(uc8[L].begin(), uc8[L].end()),
                bias);
        }
        const uint32_t cc = engine.weightCountingCycles(wc8.data(), n);

        for (Variant v : kernels::availableVariants()) {
            const KernelOps &ops = *kernels::opsFor(v);
            std::vector<uint16_t> keys(kLanes * n + 1);
            ops.pairKeys8Lanes(wc8.data(), xs.data(), kLanes, n,
                               engine.keyShift(), keys.data(), n);
            std::vector<AccumResult> lanes(kLanes);
            engine.runPrekeyedLanes(ops, keys.data(), n, kLanes, n, bias,
                                    scratch, nullptr, lanes.data());
            for (size_t L = 0; L < kLanes; ++L) {
                expectResultsEqual(oracles[L],
                                   engine.runPrekeyed(ops,
                                                      keys.data() + L * n,
                                                      n, bias, scratch),
                                   ops.name);
                expectResultsEqual(oracles[L],
                                   engine.runPrekeyed(ops,
                                                      keys.data() + L * n,
                                                      n, bias, scratch, &cc),
                                   ops.name);
                expectResultsEqual(oracles[L], lanes[L], ops.name);
            }
        }
    }
}

TEST(EngineEquivalence, PowerOfTwoInputCodebook)
{
    sweepEngine(16, 16, 201); // u power of two: identity padded grid
}

TEST(EngineEquivalence, PaddedInputCodebook)
{
    sweepEngine(16, 12, 202); // u not a power of two: renumbered grid
    sweepEngine(7, 3, 203);
}

// ------------------------------------------------------- dense tally

TEST(DenseTally, NafWeightEqualsCsdTerms)
{
    // The tally counts CSD terms as popcount(c ^ 3c) across its
    // planes; that must equal the CSD recoding for every count.
    for (uint64_t c = 0; c < 100000; ++c) {
        size_t terms = 0;
        csdForEach(c, [&](ShiftTerm) { ++terms; });
        ASSERT_EQ(size_t(std::popcount(c ^ (3 * c))), terms) << c;
    }
}

/** One synthetic dense layer for the tally sweep. */
struct TallyCase
{
    size_t fanIn;
    size_t outCount;
    size_t w;
    size_t u;
    bool wide;        //!< products beyond int32 (fixed point)
    bool oneCode;     //!< every input shares one code
};

/**
 * Every dense-tally implementation vs a direct per-neuron count over
 * random codes: sums, distinct cells and CSD terms for every neuron
 * (padding included), for each lane, over split group ranges; then the
 * scalar outputs through denseResult vs the engine's run() oracle.
 */
void
sweepDenseTally(const TallyCase &tc, size_t lanes, uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> table(tc.w * tc.u);
    for (auto &p : table)
        p = (rng.uniform() * 2.0 - 1.0) * (tc.wide ? 4.0e6 : 1.5);
    AccumulationEngine engine(Array<double>(std::move(table)), tc.w,
                              tc.u, nvm::CostModel{});
    const size_t stride = composer::denseRowStride(tc.outCount);
    const size_t groups = stride / simd::kDenseGroup;

    std::vector<uint8_t> rows(tc.fanIn * stride, 0);
    for (size_t i = 0; i < tc.fanIn; ++i)
        for (size_t j = 0; j < tc.outCount; ++j)
            rows[i * stride + j] =
                uint8_t(rng.uniformInt(0, int64_t(tc.w) - 1));
    const int64_t *products = engine.paddedProducts();
    const uint32_t shift = engine.keyShift();
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
                sum += products[key];
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
        for (const kernels::DenseTallyImpl &impl :
             kernels::denseTallyImpls()) {
            // One guard neuron past the stride must stay untouched.
            std::vector<int64_t> sums(stride + 1, -7);
            std::vector<uint32_t> distinct(stride + 1, 7),
                addends(stride + 1, 7);
            simd::DenseTallyJob job{};
            job.rows = rows.data();
            job.rowStride = stride;
            job.order = buckets.order.data();
            job.bucketStart = buckets.start.data();
            job.bucketCode = buckets.code.data();
            job.buckets = buckets.buckets();
            job.products = products;
            job.shift = shift;
            job.maskWords = maskWords;
            for (auto [gb, ge] : {std::pair<size_t, size_t>{0, split},
                                  {split, groups}}) {
                const size_t at = gb * simd::kDenseGroup;
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
            const AccumResult got = engine.denseResult(
                wantSum[j], wantDistinct[j], wantAddends[j],
                engine.weightCountingCycles(col.data(), tc.fanIn),
                tc.fanIn, bias, scratch);
            expectResultsEqual(
                engine.run(std::vector<uint16_t>(col.begin(), col.end()),
                           x, bias),
                got, "denseResult");
        }
    }
}

TEST(DenseTally, AllImplementationsMatchDirectCount)
{
    const TallyCase cases[] = {
        // fan-in and outCount off multiples of 8, tail groups of 1
        {19, 9, 16, 16, false, false},
        {1, 1, 4, 4, false, false},
        {33, 17, 64, 37, false, false},   // u not a power of two
        {70, 25, 65, 37, false, false},   // two mask words
        {45, 8, 256, 5, false, false},    // four mask words
        {200, 13, 64, 16, true, false},   // wide products
        {300, 11, 64, 37, false, true},   // one bucket, most planes
        {4100, 3, 7, 3, false, true},     // > 12 planes
        {70000, 2, 3, 2, false, true},    // > 16 planes
        {257, 41, 200, 300, true, false}, // u beyond 8-bit codes
    };
    uint64_t seed = 401;
    for (const TallyCase &tc : cases)
        for (size_t lanes : {size_t(1), size_t(3)})
            sweepDenseTally(tc, lanes, seed++);
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
        EXPECT_NE(ops->narrow, nullptr);
        EXPECT_NE(ops->gather8, nullptr);
        EXPECT_NE(ops->maxU16, nullptr);
        EXPECT_NE(ops->quantize, nullptr);
        EXPECT_NE(ops->directLookup, nullptr);
        EXPECT_NE(ops->gatherSum16, nullptr);
        EXPECT_NE(ops->pairKeys8Lanes, nullptr);
        EXPECT_NE(ops->denseTally, nullptr);
    }
    EXPECT_EQ(kernels::opsFor(Variant::Auto), nullptr);
}

} // namespace
} // namespace rapidnn::rna
