/** @file Tests for the deterministic random stream. */

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>
#include <random>
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

/**
 * gaussian() scales a standard normal itself: for stddev > 0 it
 * returns exactly what std::normal_distribution(mean, stddev) does
 * and leaves the engine in the same state.
 */
TEST(RngTest, GaussianMatchesStdNormalDistribution)
{
    Rng rng(23);
    std::mt19937_64 engine(23);
    for (int i = 0; i < 1000; ++i) {
        const double mean = 0.01 * i - 3.0;
        const double stddev = 0.5 + 0.001 * i;
        EXPECT_EQ(rng.gaussian(mean, stddev),
                  std::normal_distribution<double>(mean, stddev)(engine));
    }
    EXPECT_EQ(rng.raw(), engine());
}

/** stddev = 0 is a point mass at the mean (and still draws). */
TEST(RngTest, GaussianZeroStddevReturnsMean)
{
    Rng rng(29), twin(29);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(rng.gaussian(1.25, 0.0), 1.25);
        twin.gaussian(0.0, 1.0);
    }
    EXPECT_EQ(rng.raw(), twin.raw());
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
        rng.normal(); // lag 2: SuccessiveDrawsUncorrelated takes lag 1
        draw1[e] = rng.normal();
    }
    const double bound = 4.0 / std::sqrt(static_cast<double>(n));
    EXPECT_LT(std::fabs(correlation(a, next_elem)), bound);
    EXPECT_LT(std::fabs(correlation(a, next_layer)), bound);
    EXPECT_LT(std::fabs(correlation(a, next_key)), bound);
    EXPECT_LT(std::fabs(correlation(draw0, draw1)), bound);
}

/**
 * The ziggurat tables tile the density: every layer, the bottom one
 * with its tail included, has area V, and the top layer closes at
 * f(0) = 1. Catches a wrong R/V pair or a mis-built table.
 */
TEST(KeyedRngTest, ZigguratLayersTileTheDensity)
{
    using detail::Ziggurat;
    const Ziggurat &z = detail::ziggurat();
    auto f = [](double x) { return std::exp(-0.5 * x * x); };
    const double tail = std::sqrt(std::numbers::pi / 2.0) *
                        std::erfc(Ziggurat::kR / std::sqrt(2.0));
    EXPECT_NEAR(Ziggurat::kR * f(Ziggurat::kR) + tail, Ziggurat::kV,
                Ziggurat::kV * 1e-12);
    EXPECT_NEAR(z.x[0] * f(Ziggurat::kR), Ziggurat::kV, 1e-15);
    for (unsigned i = 1; i < Ziggurat::kLayers; ++i) {
        EXPECT_GT(z.x[i], z.x[i + 1]) << i;
        EXPECT_NEAR(z.f[i], f(z.x[i]), 1e-15) << i;
        const double top = i + 1 < Ziggurat::kLayers ? z.f[i + 1] : 1.0;
        EXPECT_NEAR(z.x[i] * (top - z.f[i]), Ziggurat::kV,
                    Ziggurat::kV * 1e-12)
            << i;
    }
}

/**
 * Tail mass of 10^7 first draws (one per element, as conv windows
 * draw them) beyond the ziggurat's tail start R and beyond 4.5
 * sigma, both sides: each count within 4 standard deviations of its
 * binomial expectation. Box-Muller and ziggurat bugs both tend to
 * show in the tails, which the moment and KS tests barely see.
 */
TEST(KeyedRngTest, ZigguratTailMass)
{
    constexpr std::size_t n = 10000000;
    const double cuts[] = {detail::Ziggurat::kR, 4.5};
    std::size_t beyond[2] = {0, 0};
    const std::uint64_t layer_key = keyedLayer(0x7a11, 3);
    for (std::size_t e = 0; e < n; ++e) {
        const double z = std::fabs(KeyedRng(layer_key, e).normal());
        beyond[0] += z > cuts[0];
        beyond[1] += z > cuts[1];
    }
    for (int i = 0; i < 2; ++i) {
        const double p = std::erfc(cuts[i] / std::sqrt(2.0));
        const double mean = p * n;
        EXPECT_LT(std::fabs(static_cast<double>(beyond[i]) - mean),
                  4.0 * std::sqrt(mean * (1.0 - p)))
            << "beyond " << cuts[i] << ": " << beyond[i] << " vs "
            << mean;
    }
}

/**
 * Shape of 10^7 first draws: a chi-square test over 0.1-sigma bins on
 * [-5, 5] (bins expecting fewer than 20 draws dropped) against
 * N(0, 1), bounded at its mean plus 4 standard deviations. Catches a
 * wedge test that accepts points above the curve, which moves too
 * little mass for the moment and KS tests at 10^5 draws.
 */
TEST(KeyedRngTest, ZigguratHistogramMatchesDensity)
{
    constexpr std::size_t n = 10000000;
    constexpr int bins = 100;
    constexpr double lo = -5.0, width = 0.1;
    std::vector<double> counts(bins, 0.0);
    const std::uint64_t layer_key = keyedLayer(0x7a11, 4);
    for (std::size_t e = 0; e < n; ++e) {
        const double z = KeyedRng(layer_key, e).normal();
        const double b = std::floor((z - lo) / width);
        if (b >= 0.0 && b < bins)
            counts[static_cast<std::size_t>(b)] += 1.0;
    }
    auto cdf = [](double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); };
    double chi2 = 0.0;
    int dof = -1;
    for (int b = 0; b < bins; ++b) {
        const double expect =
            n * (cdf(lo + (b + 1) * width) - cdf(lo + b * width));
        if (expect < 20.0)
            continue;
        chi2 += (counts[b] - expect) * (counts[b] - expect) / expect;
        ++dof;
    }
    EXPECT_LT(chi2, dof + 4.0 * std::sqrt(2.0 * dof))
        << "chi2 " << chi2 << " over " << dof << " dof";
}

/**
 * Successive draws of one stream (as a pool window's comparisons
 * take them) are uncorrelated, in value and in magnitude; a sampler
 * that reused bits across calls would correlate them.
 */
TEST(KeyedRngTest, SuccessiveDrawsUncorrelated)
{
    const std::size_t n = kKeyedDraws;
    std::vector<double> z0(n), z1(n), m0(n), m1(n);
    for (std::size_t e = 0; e < n; ++e) {
        KeyedRng rng(keyedLayer(43, 1), e);
        z0[e] = rng.normal();
        z1[e] = rng.normal();
        m0[e] = std::fabs(z0[e]);
        m1[e] = std::fabs(z1[e]);
    }
    const double bound = 4.0 / std::sqrt(static_cast<double>(n));
    EXPECT_LT(std::fabs(correlation(z0, z1)), bound);
    EXPECT_LT(std::fabs(correlation(m0, m1)), bound);
}

/** How KeyedRng::normal() settles an element's first draw. */
enum class FirstDraw { Inner, Wedge, WedgeRejected, Tail };

FirstDraw
firstDraw(std::uint64_t layer_key, std::uint64_t e)
{
    using detail::Ziggurat;
    const Ziggurat &z = detail::ziggurat();
    KeyedRng probe(layer_key, e);
    const std::uint64_t r = probe.raw();
    const unsigned layer = r & Ziggurat::kLayerMask;
    if ((r >> 11) < z.inner[layer])
        return FirstDraw::Inner;
    if (layer == 0)
        return FirstDraw::Tail;
    // An accepted wedge point takes two words (the draw and y), so
    // the stream's next word is its third.
    KeyedRng drawn(layer_key, e);
    (void)drawn.normal();
    (void)probe.raw();
    return drawn.raw() == probe.raw() ? FirstDraw::Wedge
                                      : FirstDraw::WedgeRejected;
}

/**
 * Every lane of KeyedLanes is its element's KeyedRng, draw for draw,
 * under arbitrary masks and with coins interleaved among the normals.
 * The lanes include elements whose first normal takes the wedge, a
 * rejected wedge (a fresh word) and the tail, found by search.
 */
TEST(KeyedLanesTest, LanesReproduceKeyedRngUnderMasks)
{
    const std::uint64_t key = keyedLayer(0x1a9e, 3);
    constexpr std::size_t kEach = 4;
    std::vector<std::uint64_t> found[4];
    for (std::uint64_t e = 0;; ++e) {
        ASSERT_LT(e, 10000000u) << "no tail or rejected-wedge element";
        auto &bucket = found[static_cast<int>(firstDraw(key, e))];
        if (bucket.size() < kEach)
            bucket.push_back(e);
        bool done = true;
        for (const auto &b : found)
            done &= b.size() == kEach;
        if (done)
            break;
    }
    std::vector<std::uint64_t> slow;
    for (int kind = 1; kind < 4; ++kind)
        slow.insert(slow.end(), found[kind].begin(), found[kind].end());

    Rng pick(7);
    for (int group = 0; group < 400; ++group) {
        LaneWords element;
        for (unsigned l = 0; l < kLanes; ++l) {
            if (group == 0) // every lane slow at once
                element[l] = slow[l];
            else if (pick.bernoulli(0.4))
                element[l] = slow[pick.uniformInt(0, slow.size() - 1)];
            else
                element[l] = pick.raw();
        }
        KeyedLanes lanes(key, element);
        std::vector<KeyedRng> scalar;
        for (unsigned l = 0; l < kLanes; ++l)
            scalar.emplace_back(key, element[l]);
        for (int draw = 0; draw < 16; ++draw) {
            // The first draw is a normal on every lane, so the slow
            // elements take their slow path through the lanes.
            LaneMask mask;
            for (unsigned l = 0; l < kLanes; ++l)
                mask[l] = draw == 0 || pick.bernoulli(0.7) ? -1 : 0;
            if (draw > 0 && pick.bernoulli(0.3)) {
                LaneMask heads;
                lanes.coin(mask, heads);
                for (unsigned l = 0; l < kLanes; ++l) {
                    const bool expect =
                        mask[l] != 0 && scalar[l].bernoulli(0.5);
                    ASSERT_EQ(heads[l] != 0, expect)
                        << "group " << group << " draw " << draw
                        << " lane " << l;
                }
                continue;
            }
            LaneReals x;
            lanes.normal(mask, x);
            for (unsigned l = 0; l < kLanes; ++l) {
                const double expect = mask[l] ? scalar[l].normal() : 0.0;
                ASSERT_EQ(std::bit_cast<std::uint64_t>(x[l]),
                          std::bit_cast<std::uint64_t>(expect))
                    << "group " << group << " draw " << draw << " lane "
                    << l << ": " << x[l] << " vs " << expect;
            }
        }
    }
}

/**
 * firstNormals() is each stream's first KeyedRng normal, bit for bit,
 * for counts that leave partial lane groups and over elements whose
 * draws take the wedge and the tail.
 */
TEST(KeyedLanesTest, FirstNormalsAreEachStreamsFirstDraw)
{
    const std::uint64_t key = keyedLayer(0x51a7, 1);
    for (const std::size_t count : {0u, 5u, 8u, 4003u}) {
        std::vector<double> out(count);
        KeyedLanes::firstNormals(key, count, out.data());
        int slow = 0;
        for (std::size_t e = 0; e < count; ++e) {
            const double expect = KeyedRng(key, e).normal();
            ASSERT_EQ(std::bit_cast<std::uint64_t>(out[e]),
                      std::bit_cast<std::uint64_t>(expect))
                << "count " << count << " element " << e;
            slow += firstDraw(key, e) != FirstDraw::Inner;
        }
        if (count > 1000) {
            EXPECT_GT(slow, 0) << "no draw took the slow path";
        }
    }
}

} // namespace
} // namespace redeye
