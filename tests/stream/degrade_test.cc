/** @file Tests for the graceful-degradation policy. */

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "stream/degrade.hh"

namespace redeye {
namespace stream {
namespace {

constexpr std::size_t kColumns = 16;

arch::ColumnArrayConfig
makeConfig(unsigned adc_bits = 4)
{
    arch::ColumnArrayConfig cfg;
    cfg.columns = kColumns;
    cfg.adcBits = adc_bits;
    return cfg;
}

/** A probe report flagging exactly @p suspects. */
ProbeReport
makeProbe(std::vector<std::size_t> suspects)
{
    ProbeReport r;
    r.columnError.assign(kColumns, 0.0);
    for (std::size_t s : suspects)
        r.columnError[s] = 1.0;
    r.suspectColumns = std::move(suspects);
    return r;
}

TEST(DegradeTest, NoSuspectsStaysNormal)
{
    const DegradePlan plan = planDegradation(
        makeProbe({}), makeConfig(), DegradationPolicyConfig{});
    EXPECT_EQ(plan.mode, DegradeMode::Normal);
    EXPECT_TRUE(plan.columnMap.empty());
    EXPECT_EQ(plan.adcBits, 0u);
}

TEST(DegradeTest, FewSuspectsRemapOntoHealthyColumns)
{
    const DegradePlan plan = planDegradation(
        makeProbe({3, 11}), makeConfig(), DegradationPolicyConfig{});
    EXPECT_EQ(plan.mode, DegradeMode::Remap);
    ASSERT_EQ(plan.columnMap.size(), kColumns);
    for (std::size_t c = 0; c < kColumns; ++c) {
        // No logical position reads through a suspect column...
        EXPECT_NE(plan.columnMap[c], 3u);
        EXPECT_NE(plan.columnMap[c], 11u);
        // ... and healthy positions keep their own column.
        if (c != 3 && c != 11) {
            EXPECT_EQ(plan.columnMap[c], c);
        }
    }
}

TEST(DegradeTest, RemapBoostsAdcResolution)
{
    DegradationPolicyConfig cfg;
    cfg.adcBoostBits = 2;
    const DegradePlan plan =
        planDegradation(makeProbe({5}), makeConfig(4), cfg);
    EXPECT_EQ(plan.mode, DegradeMode::Remap);
    EXPECT_EQ(plan.adcBits, 6u);
}

TEST(DegradeTest, AdcBoostIsCappedAtTenBits)
{
    DegradationPolicyConfig cfg;
    cfg.adcBoostBits = 4;
    const DegradePlan plan =
        planDegradation(makeProbe({5}), makeConfig(9), cfg);
    EXPECT_EQ(plan.adcBits, 10u);
}

TEST(DegradeTest, ZeroBoostLeavesAdcUnchanged)
{
    DegradationPolicyConfig cfg;
    cfg.adcBoostBits = 0;
    const DegradePlan plan =
        planDegradation(makeProbe({5}), makeConfig(4), cfg);
    EXPECT_EQ(plan.mode, DegradeMode::Remap);
    EXPECT_EQ(plan.adcBits, 0u);
}

TEST(DegradeTest, SuspectFractionTriggersBypass)
{
    // 8 of 16 = 0.5 >= the default bypass fraction.
    const DegradePlan plan = planDegradation(
        makeProbe({0, 2, 4, 6, 8, 10, 12, 14}), makeConfig(),
        DegradationPolicyConfig{});
    EXPECT_EQ(plan.mode, DegradeMode::Bypass);
    EXPECT_TRUE(plan.columnMap.empty());
}

TEST(DegradeTest, JustBelowFractionStillRemaps)
{
    // 7 of 16 < 0.5: the policy still tries to serve the analog path.
    const std::vector<std::size_t> suspects{0, 2, 4, 6, 8, 10, 12};
    const DegradePlan plan = planDegradation(
        makeProbe(suspects), makeConfig(), DegradationPolicyConfig{});
    EXPECT_EQ(plan.mode, DegradeMode::Remap);
    ASSERT_EQ(plan.columnMap.size(), kColumns);
    for (std::size_t c = 0; c < kColumns; ++c) {
        const bool suspect = std::count(suspects.begin(),
                                        suspects.end(), c) > 0;
        // No logical position reads through a suspect column...
        EXPECT_EQ(std::count(suspects.begin(), suspects.end(),
                             plan.columnMap[c]),
                  0)
            << "position " << c << " reads a suspect column";
        // ... and healthy positions keep their own column.
        if (!suspect) {
            EXPECT_EQ(plan.columnMap[c], c);
        }
    }
}

TEST(DegradeTest, ModeNames)
{
    EXPECT_STREQ(degradeModeName(DegradeMode::Normal), "normal");
    EXPECT_STREQ(degradeModeName(DegradeMode::Remap), "remap");
    EXPECT_STREQ(degradeModeName(DegradeMode::Bypass), "bypass");
}

TEST(DegradeDeathTest, RejectsProbeArrayMismatch)
{
    ProbeReport short_probe;
    short_probe.columnError.assign(kColumns - 1, 0.0);
    EXPECT_EXIT(planDegradation(short_probe, makeConfig(),
                                DegradationPolicyConfig{}),
                ::testing::ExitedWithCode(1), "probe covered");
}

} // namespace
} // namespace stream
} // namespace redeye
