/** @file Tests for the dynamic comparator with metastability forcing. */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "analog/comparator.hh"
#include "core/rng.hh"

namespace redeye {
namespace analog {
namespace {

DynamicComparator
makeComparator()
{
    return DynamicComparator(ComparatorParams{},
                             ProcessParams::typical());
}

TEST(ComparatorTest, LargeDifferencesDecidedCorrectly)
{
    auto cmp = makeComparator();
    Rng rng(1);
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(cmp.compare(0.5, 0.1, rng).aGreater);
        EXPECT_FALSE(cmp.compare(0.1, 0.5, rng).aGreater);
    }
    EXPECT_EQ(cmp.forcedCount(), 0u);
}

TEST(ComparatorTest, DecisionTimeGrowsAsInputsConverge)
{
    auto cmp = makeComparator();
    EXPECT_LT(cmp.decisionTime(0.5), cmp.decisionTime(0.01));
    EXPECT_LT(cmp.decisionTime(0.01), cmp.decisionTime(1e-5));
}

TEST(ComparatorTest, FullSwingAtNominalTime)
{
    auto cmp = makeComparator();
    EXPECT_DOUBLE_EQ(cmp.decisionTime(0.9),
                     cmp.params().nominalTimeS);
}

TEST(ComparatorTest, TinyDifferenceForcesArbitraryDecision)
{
    auto cmp = makeComparator();
    Rng rng(2);
    // Well below both the noise floor and the metastable threshold.
    std::size_t a_wins = 0;
    const int trials = 2000;
    for (int i = 0; i < trials; ++i) {
        const auto d = cmp.compare(0.5, 0.5, rng);
        a_wins += d.aGreater ? 1 : 0;
    }
    EXPECT_GT(cmp.forcedCount(), 0u);
    // Forced decisions are unbiased coin flips (noise may also
    // resolve some comparisons honestly, still ~50/50).
    EXPECT_NEAR(static_cast<double>(a_wins) / trials, 0.5, 0.05);
}

TEST(ComparatorTest, ForcedDecisionsCappedAtTimeout)
{
    auto cmp = makeComparator();
    Rng rng(3);
    for (int i = 0; i < 500; ++i) {
        const auto d = cmp.compare(0.5, 0.5, rng);
        EXPECT_LE(d.timeS, cmp.params().timeoutS + 1e-15);
    }
}

TEST(ComparatorTest, MetastableEnergyBounded)
{
    // The forcing mechanism bounds the worst-case energy; without it
    // the energy would grow without limit as inputs converge.
    auto cmp = makeComparator();
    Rng rng(4);
    for (int i = 0; i < 500; ++i) {
        const auto d = cmp.compare(0.5, 0.5 + 1e-9, rng);
        EXPECT_LE(d.energyJ, cmp.timeoutEnergy() + 1e-20);
        EXPECT_GE(d.energyJ, cmp.nominalEnergy() - 1e-20);
    }
}

TEST(ComparatorTest, EasyDecisionsCostNominalEnergy)
{
    auto cmp = makeComparator();
    Rng rng(5);
    const auto d = cmp.compare(0.9, 0.0, rng);
    EXPECT_NEAR(d.energyJ, cmp.nominalEnergy(),
                cmp.nominalEnergy() * 0.05);
}

TEST(ComparatorTest, MetastableThresholdConsistentWithTimeout)
{
    auto cmp = makeComparator();
    const double v = cmp.metastableDeltaV();
    EXPECT_NEAR(cmp.decisionTime(v), cmp.params().timeoutS,
                cmp.params().timeoutS * 1e-6);
}

TEST(ComparatorTest, CountsAccumulate)
{
    auto cmp = makeComparator();
    Rng rng(6);
    cmp.compare(0.4, 0.1, rng);
    cmp.compare(0.1, 0.4, rng);
    EXPECT_EQ(cmp.decisionCount(), 2u);
    EXPECT_GT(cmp.energyJ(), 0.0);
    cmp.resetEnergy();
    EXPECT_EQ(cmp.energyJ(), 0.0);
}

/**
 * A noise-free decision against the closed form, on differences just
 * either side of the metastable threshold and of +-swing: with
 * t = t0 + tau ln(swing / |d|) (t0 at or beyond swing), the decision
 * is forced iff t >= timeout, at the timeout and its energy;
 * otherwise it takes t and E + I Vdd (t - t0), and a wins iff d > 0.
 */
TEST(ComparatorTest, DecisionMatchesClosedForm)
{
    ComparatorParams params;
    params.inputNoiseRms = 0.0;
    const ProcessParams process = ProcessParams::typical();
    DynamicComparator cmp(params, process);
    const double t0 = params.nominalTimeS;
    const double tau = params.regenTauS / process.speedFactor;
    const double swing = process.signalSwing;
    const double power = params.metastableCurrentA * process.supplyVoltage;
    const double timeout_j =
        params.energyPerDecisionJ + power * (params.timeoutS - t0);

    std::vector<double> grid;
    for (double centre : {cmp.metastableDeltaV(), swing}) {
        for (int k = -40; k <= 40; ++k) {
            if (k == 0)
                continue;
            // Steps of 1e-7 relative move t by ~2e-17 s, far beyond
            // rounding; steps of 1e-3 reach well past the boundary.
            for (double step : {1e-7, 1e-3}) {
                grid.push_back(centre * (1.0 + k * step));
                grid.push_back(-centre * (1.0 + k * step));
            }
        }
    }
    std::size_t forced = 0;
    Rng rng(8);
    for (double d : grid) {
        const double mag = std::fabs(d);
        const double t =
            mag >= swing ? t0 : t0 + tau * std::log(swing / mag);
        const Decision got = cmp.compare(d, 0.0, rng);
        if (t >= params.timeoutS) {
            ++forced;
            EXPECT_TRUE(got.forced) << d;
            EXPECT_EQ(got.timeS, params.timeoutS) << d;
            EXPECT_NEAR(got.energyJ, timeout_j, timeout_j * 1e-12) << d;
            continue;
        }
        EXPECT_FALSE(got.forced) << d;
        EXPECT_EQ(got.aGreater, d > 0.0) << d;
        EXPECT_NEAR(got.timeS, t, t * 1e-12) << d;
        const double e = params.energyPerDecisionJ + power * (t - t0);
        EXPECT_NEAR(got.energyJ, e, e * 1e-12) << d;
    }
    // Both sides of the threshold were exercised.
    EXPECT_GT(forced, 0u);
    EXPECT_LT(forced, grid.size());
    EXPECT_EQ(cmp.forcedCount(), forced);
}

TEST(ComparatorTest, InvalidTimingFatal)
{
    ComparatorParams p;
    p.timeoutS = p.nominalTimeS; // timeout must exceed nominal
    EXPECT_EXIT(DynamicComparator(p, ProcessParams::typical()),
                ::testing::ExitedWithCode(1), "timeout");
}

} // namespace
} // namespace analog
} // namespace redeye
