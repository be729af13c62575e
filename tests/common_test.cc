/**
 * @file
 * Unit tests for the common substrate: bit operations, units, stats,
 * RNG determinism, and the text-table formatter.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "common/bitops.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/units.hh"

namespace rapidnn {
namespace {

// ---------------------------------------------------------------- bitops

TEST(BinaryDecompose, MatchesSetBits)
{
    const auto terms = binaryDecompose(0b1001);
    ASSERT_EQ(terms.size(), 2u);
    EXPECT_EQ(terms[0].shift, 0u);
    EXPECT_EQ(terms[1].shift, 3u);
    EXPECT_FALSE(terms[0].negative);
    EXPECT_FALSE(terms[1].negative);
}

TEST(BinaryDecompose, ZeroHasNoTerms)
{
    EXPECT_TRUE(binaryDecompose(0).empty());
    EXPECT_TRUE(csdDecompose(0).empty());
}

TEST(CsdDecompose, RunOfOnesCollapses)
{
    // 15 = b1111 -> 16 - 1: exactly two terms (the paper's example).
    const auto terms = csdDecompose(15);
    ASSERT_EQ(terms.size(), 2u);
    EXPECT_EQ(evaluateDecomposition(terms), 15);
}

TEST(CsdDecompose, NineSplitsAsEightPlusOne)
{
    // 9 = 8 + 1 (the paper's non-power-of-two example).
    const auto terms = csdDecompose(9);
    ASSERT_EQ(terms.size(), 2u);
    EXPECT_EQ(evaluateDecomposition(terms), 9);
    EXPECT_FALSE(terms[0].negative);
    EXPECT_FALSE(terms[1].negative);
}

/** Property sweep: CSD is exact and never longer than plain binary. */
class CsdProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(CsdProperty, ExactAndMinimal)
{
    const uint64_t n = GetParam();
    const auto csd = csdDecompose(n);
    const auto bin = binaryDecompose(n);
    EXPECT_EQ(evaluateDecomposition(csd), static_cast<int64_t>(n));
    EXPECT_EQ(evaluateDecomposition(bin), static_cast<int64_t>(n));
    EXPECT_LE(csd.size(), bin.size());
}

TEST_P(CsdProperty, NonAdjacentForm)
{
    // No two consecutive nonzero signed digits (the NAF invariant).
    const auto csd = csdDecompose(GetParam());
    std::set<uint8_t> shifts;
    for (const auto &t : csd) {
        EXPECT_FALSE(shifts.count(t.shift)) << "duplicate digit";
        shifts.insert(t.shift);
    }
    for (const auto &t : csd)
        EXPECT_FALSE(shifts.count(t.shift + 1) && shifts.count(t.shift)
                     && t.shift + 1 <= 63
                     && shifts.count(t.shift + 1))
            << "adjacent digits at shift " << int(t.shift);
}

INSTANTIATE_TEST_SUITE_P(SmallValues, CsdProperty,
                         ::testing::Range<uint64_t>(0, 300));
INSTANTIATE_TEST_SUITE_P(PowersAndNeighbours, CsdProperty,
                         ::testing::Values(511, 512, 513, 1023, 1024,
                                           4095, 65535, 1000000,
                                           (1ULL << 40) - 1));

TEST(CeilLog2, KnownValues)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(4), 2u);
    EXPECT_EQ(ceilLog2(5), 3u);
    EXPECT_EQ(ceilLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1025), 11u);
}

TEST(IndexBits, KnownValues)
{
    EXPECT_EQ(indexBits(1), 1u);
    EXPECT_EQ(indexBits(2), 1u);
    EXPECT_EQ(indexBits(4), 2u);
    EXPECT_EQ(indexBits(64), 6u);
    EXPECT_EQ(indexBits(65), 7u);
}

// ----------------------------------------------------------------- units

TEST(Units, TimeConversions)
{
    const Time t = Time::nanoseconds(1500.0);
    EXPECT_DOUBLE_EQ(t.us(), 1.5);
    EXPECT_DOUBLE_EQ(t.ns(), 1500.0);
    EXPECT_DOUBLE_EQ((t + Time::microseconds(0.5)).us(), 2.0);
    EXPECT_DOUBLE_EQ((t * 2.0).ns(), 3000.0);
}

TEST(Units, EnergyConversions)
{
    const Energy e = Energy::femtojoules(920.0);
    EXPECT_NEAR(e.pj(), 0.92, 1e-12);
    EXPECT_NEAR((e * 1000.0).nj(), 0.92, 1e-12);
}

TEST(Units, PowerOverTimeIsEnergy)
{
    const Power p = Power::milliwatts(4.8);
    const Energy e = p.over(Time::microseconds(2.0));
    EXPECT_NEAR(e.nj(), 9.6, 1e-9);
}

TEST(Units, AreaArithmetic)
{
    const Area a = Area::squareMicrometers(3136.0);
    EXPECT_NEAR((a * 1024.0 * 32.0).mm2(), 102.8, 0.2);
    EXPECT_NEAR(a / Area::squareMicrometers(1568.0), 2.0, 1e-12);
}

TEST(Units, EdpHelper)
{
    EXPECT_DOUBLE_EQ(edp(Energy::joules(2.0), Time::seconds(3.0)), 6.0);
}

// ----------------------------------------------------------------- stats

TEST(Summary, BasicMoments)
{
    Summary s;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        s.add(x);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_NEAR(s.variance(), 1.25, 1e-12);
}

TEST(Summary, MergeEqualsCombinedStream)
{
    Summary a, b, both;
    for (int i = 0; i < 10; ++i) {
        a.add(i);
        both.add(i);
    }
    for (int i = 10; i < 25; ++i) {
        b.add(i * 0.5);
        both.add(i * 0.5);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), both.count());
    EXPECT_DOUBLE_EQ(a.mean(), both.mean());
    EXPECT_DOUBLE_EQ(a.min(), both.min());
    EXPECT_DOUBLE_EQ(a.max(), both.max());
}

TEST(Histogram, BinsAndClamping)
{
    Histogram h(0.0, 10.0, 10);
    h.add(0.5);
    h.add(9.99);
    h.add(-5.0);   // clamps into bin 0
    h.add(100.0);  // clamps into last bin
    EXPECT_EQ(h.bins()[0], 2u);
    EXPECT_EQ(h.bins()[9], 2u);
    EXPECT_EQ(h.summary().count(), 4u);
    EXPECT_DOUBLE_EQ(h.binLeft(5), 5.0);
}

// ------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(99), b(99);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 50; ++i)
        if (a.uniform() == b.uniform())
            ++same;
    EXPECT_LT(same, 5);
}

TEST(Rng, UniformIntInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const int64_t v = rng.uniformInt(-3, 5);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 5);
    }
}

TEST(Rng, SampleIndicesDistinctAndBounded)
{
    Rng rng(7);
    const auto idx = rng.sampleIndices(100, 30);
    EXPECT_EQ(idx.size(), 30u);
    std::set<size_t> unique(idx.begin(), idx.end());
    EXPECT_EQ(unique.size(), 30u);
    for (size_t i : idx)
        EXPECT_LT(i, 100u);
}

TEST(Rng, SampleMoreThanAvailableReturnsAll)
{
    Rng rng(7);
    EXPECT_EQ(rng.sampleIndices(5, 10).size(), 5u);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(11);
    Summary s;
    for (int i = 0; i < 20000; ++i)
        s.add(rng.gaussian(3.0, 2.0));
    EXPECT_NEAR(s.mean(), 3.0, 0.1);
    EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Rng, ForkIsIndependent)
{
    Rng a(5);
    Rng child = a.fork();
    // The child stream should not be identical to the parent's next
    // draws.
    int same = 0;
    Rng b(5);
    (void)b.fork();
    for (int i = 0; i < 20; ++i)
        if (child.uniform() == a.uniform())
            ++same;
    EXPECT_LT(same, 3);
}

// ----------------------------------------------------------------- table

TEST(TextTable, AlignsColumns)
{
    TextTable t({"name", "value"});
    t.newRow().cell("alpha").cell(3.14159, 2);
    t.newRow().cell("b").cell(int64_t(42));
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("3.14"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
    // Header separator line present.
    EXPECT_NE(out.find("|-"), std::string::npos);
}

} // namespace
} // namespace rapidnn
