/** @file Tests for the deterministic random stream. */

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.hh"
#include "core/stats.hh"

namespace redeye {
namespace {

TEST(RngTest, SameSeedSameSequence)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.raw(), b.raw());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    bool differs = false;
    for (int i = 0; i < 10 && !differs; ++i)
        differs = a.raw() != b.raw();
    EXPECT_TRUE(differs);
}

TEST(RngTest, ForkIsIndependentOfParentConsumption)
{
    Rng a(99);
    Rng child = a.fork();
    const auto c0 = child.raw();
    Rng b(99);
    Rng child2 = b.fork();
    EXPECT_EQ(c0, child2.raw());
}

TEST(RngTest, UniformInUnitInterval)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(RngTest, UniformRangeRespected)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, -1.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, -1.0);
    }
}

TEST(RngTest, UniformIntInclusive)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.uniformInt(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        saw_lo |= v == 0;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMomentsMatch)
{
    Rng rng(11);
    RunningStat stat;
    for (int i = 0; i < 50000; ++i)
        stat.add(rng.gaussian(2.0, 3.0));
    EXPECT_NEAR(stat.mean(), 2.0, 0.1);
    EXPECT_NEAR(stat.stddev(), 3.0, 0.1);
}

TEST(RngTest, PoissonMeanMatches)
{
    Rng rng(13);
    RunningStat stat;
    for (int i = 0; i < 20000; ++i)
        stat.add(static_cast<double>(rng.poisson(6.5)));
    EXPECT_NEAR(stat.mean(), 6.5, 0.15);
    // Poisson variance equals its mean.
    EXPECT_NEAR(stat.variance(), 6.5, 0.3);
}

TEST(RngTest, PoissonOfZeroMeanIsZero)
{
    Rng rng(17);
    EXPECT_EQ(rng.poisson(0.0), 0);
    EXPECT_EQ(rng.poisson(-1.0), 0);
}

TEST(RngTest, BernoulliProbability)
{
    Rng rng(19);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

constexpr std::size_t kKeyedDraws = 100000;

/** Pearson correlation of two equal-length samples. */
double
correlation(const std::vector<double> &a, const std::vector<double> &b)
{
    RunningStat sa, sb;
    double sab = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        sa.add(a[i]);
        sb.add(b[i]);
        sab += a[i] * b[i];
    }
    const double n = static_cast<double>(a.size());
    const double cov = sab / n - sa.mean() * sb.mean();
    return cov / std::sqrt(sa.variance() * sb.variance());
}

/** First normal of element @p e's stream under (key, layer). */
double
firstNormal(std::uint64_t key, std::uint64_t layer, std::uint64_t e)
{
    KeyedRng rng(keyedLayer(key, layer), e);
    return rng.normal();
}

TEST(KeyedRngTest, SameTripleSameStream)
{
    KeyedRng a(keyedLayer(7, 2), 11), b(keyedLayer(7, 2), 11);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.raw(), b.raw());
    KeyedRng c(keyedLayer(7, 2), 11), d(keyedLayer(7, 2), 11);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(c.normal(), d.normal());
}

TEST(KeyedRngTest, EveryCoordinateSeparatesStreams)
{
    const std::uint64_t base = KeyedRng(keyedLayer(7, 2), 11).raw();
    EXPECT_NE(base, KeyedRng(keyedLayer(8, 2), 11).raw());
    EXPECT_NE(base, KeyedRng(keyedLayer(7, 3), 11).raw());
    EXPECT_NE(base, KeyedRng(keyedLayer(7, 2), 12).raw());
}

TEST(KeyedRngTest, UniformAndBernoulli)
{
    KeyedRng rng(keyedLayer(1, 0), 0);
    int hits = 0;
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        hits += rng.bernoulli(0.3) ? 1 : 0;
    }
    // 4 sigma of a binomial(20000, 0.3) proportion.
    EXPECT_NEAR(hits / 20000.0, 0.3, 4.0 * std::sqrt(0.21 / 20000.0));
}

/**
 * Moments of 10^5 normals, one per element as a conv window draws
 * them. Each bound is 4 standard errors of the N(0, 1) estimator.
 */
TEST(KeyedRngTest, NormalMoments)
{
    const double n = static_cast<double>(kKeyedDraws);
    double m1 = 0.0, m2 = 0.0, m3 = 0.0, m4 = 0.0;
    for (std::size_t e = 0; e < kKeyedDraws; ++e) {
        const double z = firstNormal(0x5eed, 0, e);
        m1 += z;
        m2 += z * z;
        m3 += z * z * z;
        m4 += z * z * z * z;
    }
    m1 /= n;
    m2 /= n;
    m3 /= n;
    m4 /= n;
    EXPECT_LT(std::fabs(m1), 4.0 / std::sqrt(n));
    EXPECT_LT(std::fabs(m2 - 1.0), 4.0 * std::sqrt(2.0 / n));
    EXPECT_LT(std::fabs(m3), 4.0 * std::sqrt(15.0 / n));
    EXPECT_LT(std::fabs(m4 - 3.0), 4.0 * std::sqrt(96.0 / n));
}

/**
 * Kolmogorov-Smirnov against N(0, 1) at 10^5 draws, both one draw per
 * element and many draws along each stream (as the comparators and
 * SAR trials consume them).
 */
TEST(KeyedRngTest, NormalPassesKolmogorovSmirnov)
{
    auto ksP = [](std::vector<double> z) {
        std::sort(z.begin(), z.end());
        const double n = static_cast<double>(z.size());
        double d = 0.0;
        for (std::size_t i = 0; i < z.size(); ++i) {
            const double cdf = 0.5 * std::erfc(-z[i] / std::sqrt(2.0));
            d = std::max({d, cdf - static_cast<double>(i) / n,
                          static_cast<double>(i + 1) / n - cdf});
        }
        return ksPValue(d, n);
    };
    std::vector<double> per_element, along_streams;
    for (std::size_t e = 0; e < kKeyedDraws; ++e)
        per_element.push_back(firstNormal(0xc0ffee, 1, e));
    for (std::size_t e = 0; along_streams.size() < kKeyedDraws; ++e) {
        KeyedRng rng(keyedLayer(0xc0ffee, 2), e);
        for (int i = 0; i < 9; ++i)
            along_streams.push_back(rng.normal());
    }
    along_streams.resize(kKeyedDraws);
    EXPECT_GT(ksP(per_element), 0.01);
    EXPECT_GT(ksP(along_streams), 0.01);
}

/**
 * Adjacent elements, adjacent layers, adjacent array keys and
 * successive draws of one stream are uncorrelated: |r| below 4
 * standard errors (1 / sqrt(n)) of a zero correlation.
 */
TEST(KeyedRngTest, AdjacentCountersAndKeysUncorrelated)
{
    const std::size_t n = kKeyedDraws;
    std::vector<double> a(n), next_elem(n), next_layer(n), next_key(n);
    std::vector<double> draw0(n), draw1(n);
    for (std::size_t e = 0; e < n; ++e) {
        a[e] = firstNormal(41, 5, e);
        next_elem[e] = firstNormal(41, 5, e + 1);
        next_layer[e] = firstNormal(41, 6, e);
        next_key[e] = firstNormal(42, 5, e);
        KeyedRng rng(keyedLayer(41, 7), e);
        draw0[e] = rng.normal();
        rng.normal(); // the Box-Muller partner of draw0
        draw1[e] = rng.normal();
    }
    const double bound = 4.0 / std::sqrt(static_cast<double>(n));
    EXPECT_LT(std::fabs(correlation(a, next_elem)), bound);
    EXPECT_LT(std::fabs(correlation(a, next_layer)), bound);
    EXPECT_LT(std::fabs(correlation(a, next_key)), bound);
    EXPECT_LT(std::fabs(correlation(draw0, draw1)), bound);
}

} // namespace
} // namespace redeye
