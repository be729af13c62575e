/**
 * @file
 * Unit and property tests for the quantization toolkit: tree
 * codebooks, activation tables, and encoders.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <utility>

#include "common/rng.hh"
#include "nn/activation.hh"
#include "quant/activation_table.hh"
#include "quant/codebook.hh"
#include "quant/encoder.hh"

namespace rapidnn::quant {
namespace {

std::vector<double>
gaussianMixture(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> samples(n);
    for (double &s : samples) {
        const double centre = rng.bernoulli(0.5) ? -2.0 : 1.5;
        s = rng.gaussian(centre, 0.4);
    }
    return samples;
}

TEST(NearestCentroid, BinarySearchMatchesScan)
{
    Rng rng(12);
    std::vector<double> centroids;
    for (int i = 0; i < 33; ++i)
        centroids.push_back(rng.uniform(-10, 10));
    std::sort(centroids.begin(), centroids.end());
    for (int probe = 0; probe < 500; ++probe) {
        const double x = rng.uniform(-12, 12);
        size_t best = 0;
        for (size_t c = 1; c < centroids.size(); ++c)
            if (std::abs(x - centroids[c]) < std::abs(x - centroids[best]))
                best = c;
        const size_t got =
            nearestCentroid(centroids.data(), centroids.size(), x);
        EXPECT_NEAR(std::abs(x - centroids[got]),
                    std::abs(x - centroids[best]), 1e-12);
    }
}

// -------------------------------------------------------------- codebook

TEST(Codebook, SortedAndEncodeDecode)
{
    Codebook cb({3.0, -1.0, 0.5});
    EXPECT_EQ(cb.size(), 3u);
    EXPECT_DOUBLE_EQ(cb.value(0), -1.0);
    EXPECT_DOUBLE_EQ(cb.value(2), 3.0);
    EXPECT_EQ(cb.encode(2.9), 2u);
    EXPECT_DOUBLE_EQ(cb.quantize(-0.9), -1.0);
    EXPECT_EQ(cb.bits(), 2u);
}

TEST(Codebook, EncodingIsOrderPreserving)
{
    // The property that lets the accelerator pool encoded data
    // (paper Section 3.1): x <= y implies code(x) <= code(y).
    const auto samples = gaussianMixture(1000, 21);
    TreeCodebook tree(samples, 5);
    const Codebook &cb = tree.finest();
    Rng rng(22);
    for (int i = 0; i < 500; ++i) {
        double a = rng.uniform(-4, 4), b = rng.uniform(-4, 4);
        if (a > b)
            std::swap(a, b);
        EXPECT_LE(cb.encode(a), cb.encode(b))
            << "order violated for " << a << " <= " << b;
    }
}

class TreeCodebookDepth : public ::testing::TestWithParam<size_t>
{
};

TEST_P(TreeCodebookDepth, LevelsGrowAndRefine)
{
    const size_t depth = GetParam();
    const auto samples = gaussianMixture(800, 31);
    TreeCodebook tree(samples, depth);
    EXPECT_EQ(tree.depth(), depth);
    EXPECT_TRUE(tree.refinementHolds());
    for (size_t lvl = 1; lvl <= depth; ++lvl)
        EXPECT_LE(tree.level(lvl).size(), size_t(1) << lvl);
}

TEST_P(TreeCodebookDepth, DeeperLevelsQuantizeBetter)
{
    const size_t depth = GetParam();
    if (depth < 2)
        return;
    const auto samples = gaussianMixture(800, 33);
    TreeCodebook tree(samples, depth);
    double prev = 1e300;
    for (size_t lvl = 1; lvl <= depth; ++lvl) {
        const Codebook &cb = tree.level(lvl);
        double err = 0.0;
        for (double s : samples) {
            const double d = s - cb.quantize(s);
            err += d * d;
        }
        EXPECT_LE(err, prev * 1.01);
        prev = err;
    }
}

INSTANTIATE_TEST_SUITE_P(Depths, TreeCodebookDepth,
                         ::testing::Values(1, 2, 3, 5, 7));

TEST(TreeCodebook, LevelForEntriesNeverOvershoots)
{
    const auto samples = gaussianMixture(600, 41);
    TreeCodebook tree(samples, 7);
    for (size_t want : {2, 4, 8, 16, 64, 128, 1000}) {
        const size_t lvl = tree.levelForEntries(want);
        EXPECT_LE(tree.level(lvl).size(), std::max<size_t>(want, 2));
    }
}

/** Mean of sorted[lo, hi), accumulated in long double. */
long double
rangeMean(const std::vector<double> &sorted, size_t lo, size_t hi)
{
    long double sum = 0.0L;
    for (size_t i = lo; i < hi; ++i)
        sum += sorted[i];
    return sum / static_cast<long double>(hi - lo);
}

/** Two-sided WCSS of splitting sorted[begin, end) at `cut`, directly. */
long double
splitWcss(const std::vector<double> &sorted, size_t begin, size_t cut,
          size_t end)
{
    long double wcss = 0.0L;
    for (const auto &[lo, hi] : {std::pair{begin, cut}, std::pair{cut, end}}) {
        const long double mean = rangeMean(sorted, lo, hi);
        for (size_t i = lo; i < hi; ++i)
            wcss += (sorted[i] - mean) * (sorted[i] - mean);
    }
    return wcss;
}

TEST(TreeCodebook, EverySplitMinimizesTwoSidedWcss)
{
    // Brute force over small inputs: walk the tree's ranges level by
    // level (each level lists its ranges' centroids left to right),
    // recover each node's cut from its two child centroids, and check
    // no cut point of that node has lower two-sided WCSS.
    Rng rng(51);
    for (int trial = 0; trial < 300; ++trial) {
        const size_t n = size_t(rng.uniformInt(1, 16));
        std::vector<double> samples(n);
        for (double &s : samples)  // odd trials repeat values
            s = trial % 2 ? double(rng.uniformInt(0, 5))
                          : rng.gaussian(0.0, 1.0);
        const TreeCodebook tree(samples, 3);
        std::vector<double> sorted = samples;
        std::sort(sorted.begin(), sorted.end());

        std::vector<std::pair<size_t, size_t>> ranges = {{0, n}};
        for (size_t lvl = 1; lvl <= tree.depth(); ++lvl) {
            const Codebook &cb = tree.level(lvl);
            std::vector<std::pair<size_t, size_t>> next;
            size_t k = 0;
            for (const auto &[begin, end] : ranges) {
                if (sorted[begin] == sorted[end - 1]) {
                    ASSERT_LT(k, cb.size());
                    EXPECT_EQ(cb.value(k++), sorted[begin]);
                    next.emplace_back(begin, end);
                    continue;
                }
                ASSERT_LT(k + 1, cb.size());
                size_t cut = begin + 1;
                long double miss = std::numeric_limits<double>::max();
                long double best = std::numeric_limits<double>::max();
                for (size_t c = begin + 1; c < end; ++c) {
                    const long double m =
                        std::abs(rangeMean(sorted, begin, c) - cb.value(k))
                        + std::abs(rangeMean(sorted, c, end)
                                   - cb.value(k + 1));
                    if (m < miss) {
                        miss = m;
                        cut = c;
                    }
                    best = std::min(best, splitWcss(sorted, begin, c, end));
                }
                EXPECT_LT(miss, 1e-9L) << "trial " << trial;
                EXPECT_LE(splitWcss(sorted, begin, cut, end), best + 1e-12L)
                    << "trial " << trial << " level " << lvl;
                next.emplace_back(begin, cut);
                next.emplace_back(cut, end);
                k += 2;
            }
            EXPECT_EQ(k, cb.size()) << "trial " << trial;
            ranges = std::move(next);
        }
    }
}

TEST(TreeCodebook, SplitIsExactFarFromZero)
{
    // Values near 1e6 with a 1e-3 spread: raw sums of x and x^2 would
    // cancel to noise; the split must land where the brute force does.
    Rng rng(53);
    std::vector<double> samples(1000);
    for (double &s : samples)
        s = 1e6 + rng.gaussian(0.0, 1e-3);
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    size_t bruteCut = 0;
    long double best = std::numeric_limits<double>::max();
    for (size_t c = 1; c < sorted.size(); ++c) {
        const long double wcss = splitWcss(sorted, 0, c, sorted.size());
        if (wcss < best) {
            best = wcss;
            bruteCut = c;
        }
    }

    const TreeCodebook tree(samples, 1);
    const size_t treeCut = size_t(std::count_if(
        samples.begin(), samples.end(),
        [&](double s) { return tree.level(1).encode(s) == 0; }));
    EXPECT_EQ(treeCut, bruteCut);
}

TEST(TreeCodebook, TiedSplitTakesLowestCut)
{
    // {0} | {1, 1, 2} and {0, 1, 1} | {2} have equal WCSS.
    const TreeCodebook tree({0.0, 1.0, 1.0, 2.0}, 1);
    ASSERT_EQ(tree.level(1).size(), 2u);
    EXPECT_EQ(tree.level(1).value(0), 0.0);
    EXPECT_DOUBLE_EQ(tree.level(1).value(1), 4.0 / 3.0);
}

TEST(TreeCodebook, FewerDistinctValuesThanEntries)
{
    const std::vector<double> samples = {1.0, 1.0, 2.0, 2.0, 3.0};
    const TreeCodebook tree(samples, 7);
    for (size_t lvl = 1; lvl <= tree.depth(); ++lvl)
        EXPECT_LE(tree.level(lvl).size(), 3u) << "level " << lvl;
    for (double s : samples)
        EXPECT_EQ(tree.finest().quantize(s), s);
}

TEST(TreeCodebook, SingleValue)
{
    const std::vector<double> samples(50, 4.25);
    const TreeCodebook tree(samples, 4);
    for (size_t lvl = 1; lvl <= tree.depth(); ++lvl) {
        ASSERT_EQ(tree.level(lvl).size(), 1u) << "level " << lvl;
        EXPECT_EQ(tree.level(lvl).value(0), 4.25);
    }
}

TEST(TreeCodebook, NonFiniteSamplesRejected)
{
    // fatal() exits without unwinding, so leak checking in the child
    // is meaningless.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    setenv("ASAN_OPTIONS", "detect_leaks=0:abort_on_error=1", 1);
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
        const std::vector<double> samples = {0.5, bad, -1.0};
        EXPECT_EXIT(TreeCodebook(samples, 3), ::testing::ExitedWithCode(1),
                    "non-finite TreeCodebook sample")
            << bad;
    }
}

// ------------------------------------------------------ activation table

TEST(ActivationTable, SigmoidEndpointsExact)
{
    auto table = ActivationTable::build(nn::ActKind::Sigmoid, 64,
                                        TableSpacing::Linear);
    EXPECT_NEAR(table.lookup(table.domainLo()),
                nn::actForward(nn::ActKind::Sigmoid, table.domainLo()),
                1e-9);
    EXPECT_NEAR(table.lookup(table.domainHi()),
                nn::actForward(nn::ActKind::Sigmoid, table.domainHi()),
                1e-9);
}

class ActivationRows : public ::testing::TestWithParam<size_t>
{
};

TEST_P(ActivationRows, ErrorShrinksWithRows)
{
    const size_t rows = GetParam();
    auto coarse = ActivationTable::build(nn::ActKind::Sigmoid, rows,
                                         TableSpacing::Linear);
    auto fine = ActivationTable::build(nn::ActKind::Sigmoid, rows * 4,
                                       TableSpacing::Linear);
    auto fn = [](double y) {
        return nn::actForward(nn::ActKind::Sigmoid, y);
    };
    EXPECT_LT(fine.maxError(fn), coarse.maxError(fn));
}

INSTANTIATE_TEST_SUITE_P(RowCounts, ActivationRows,
                         ::testing::Values(8, 16, 32, 64));

TEST(ActivationTable, NonLinearBeatsLinearOnSigmoid)
{
    // Derivative-weighted placement concentrates rows where sigmoid
    // bends, which is the paper's accuracy argument.
    auto linear = ActivationTable::build(nn::ActKind::Sigmoid, 16,
                                         TableSpacing::Linear);
    auto weighted = ActivationTable::build(
        nn::ActKind::Sigmoid, 16, TableSpacing::DerivativeWeighted);
    auto fn = [](double y) {
        return nn::actForward(nn::ActKind::Sigmoid, y);
    };
    EXPECT_LT(weighted.maxError(fn), linear.maxError(fn));
}

TEST(ActivationTable, SixtyFourRowsIsAccurate)
{
    // The paper reports 64 rows recover baseline accuracy; the table
    // error must be tiny at that size.
    auto table = ActivationTable::build(
        nn::ActKind::Sigmoid, 64, TableSpacing::DerivativeWeighted);
    auto fn = [](double y) {
        return nn::actForward(nn::ActKind::Sigmoid, y);
    };
    EXPECT_LT(table.maxError(fn), 0.01);
}

class ActivationKinds : public ::testing::TestWithParam<nn::ActKind>
{
};

TEST_P(ActivationKinds, TableTracksFunction)
{
    auto table = ActivationTable::build(
        GetParam(), 64, TableSpacing::DerivativeWeighted);
    auto fn = [this](double y) {
        return nn::actForward(GetParam(), y);
    };
    const double span = table.domainHi() - table.domainLo();
    EXPECT_LT(table.maxError(fn), 0.05 * std::max(1.0, span / 6.0));
}

TEST_P(ActivationKinds, DerivativeMatchesFiniteDifference)
{
    const nn::ActKind kind = GetParam();
    for (double y : {-3.0, -1.0, -0.1, 0.1, 0.7, 2.5}) {
        const double h = 1e-6;
        const double numeric =
            (nn::actForward(kind, y + h) - nn::actForward(kind, y - h))
            / (2 * h);
        EXPECT_NEAR(nn::actDerivative(kind, y), numeric, 1e-4)
            << nn::actName(kind) << " at " << y;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ActivationKinds,
    ::testing::Values(nn::ActKind::ReLU, nn::ActKind::Sigmoid,
                      nn::ActKind::Tanh, nn::ActKind::Softsign,
                      nn::ActKind::Identity));

TEST(ActivationTable, CustomFunction)
{
    auto table = ActivationTable::buildCustom(
        [](double y) { return y * y; }, [](double y) { return 2 * y; },
        128, TableSpacing::DerivativeWeighted, -2.0, 2.0);
    EXPECT_NEAR(table.lookup(1.0), 1.0, 0.05);
    EXPECT_NEAR(table.lookup(-1.5), 2.25, 0.15);
}

TEST(ActivationTable, LookupRowIsNearestInput)
{
    auto table = ActivationTable::build(nn::ActKind::Tanh, 32,
                                        TableSpacing::Linear);
    Rng rng(55);
    for (int i = 0; i < 200; ++i) {
        const double y = rng.uniform(-5, 5);
        const size_t row = table.lookupRow(y);
        for (size_t r = 0; r < table.rows(); ++r)
            EXPECT_LE(std::abs(table.inputs()[row] - y),
                      std::abs(table.inputs()[r] - y) + 1e-12);
    }
}

// --------------------------------------------------------------- encoder

TEST(Encoder, RoundTripHitsNearestRepresentative)
{
    Codebook cb({-1.0, 0.0, 2.0, 5.0});
    Encoder enc(cb);
    EXPECT_EQ(enc.encode(-0.9), 0u);
    EXPECT_EQ(enc.encode(0.9), 1u);
    EXPECT_EQ(enc.encode(4.0), 3u);
    EXPECT_DOUBLE_EQ(enc.decode(2), 2.0);
    EXPECT_EQ(enc.bits(), 2u);
}

TEST(Encoder, EncodeAllMatchesScalar)
{
    Codebook cb({-2.0, -0.5, 0.5, 2.0});
    Encoder enc(cb);
    std::vector<double> xs = {-3.0, -0.4, 0.0, 0.6, 10.0};
    const auto codes = enc.encodeAll(xs);
    ASSERT_EQ(codes.size(), xs.size());
    for (size_t i = 0; i < xs.size(); ++i)
        EXPECT_EQ(codes[i], enc.encode(xs[i]));
}

} // namespace
} // namespace rapidnn::quant
