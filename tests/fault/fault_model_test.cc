/** @file Tests for the deterministic fault campaign model. */

#include <gtest/gtest.h>

#include "fault/fault_model.hh"

namespace redeye {
namespace fault {
namespace {

TEST(FaultModelTest, EmptyCampaignHasNoFaults)
{
    FaultCampaign c;
    EXPECT_FALSE(c.any());
    FaultModel model(c, 32);
    EXPECT_EQ(model.faultyColumnCount(), 0u);
    EXPECT_EQ(model.deadColumnCount(), 0u);
    for (std::size_t i = 0; i < 32; ++i)
        EXPECT_FALSE(model.column(i).any());
}

TEST(FaultModelTest, RealizationIsDeterministic)
{
    FaultCampaign c;
    c.seed = 0x1234;
    c.deadColumnRate = 0.2;
    c.stuckWeightBitRate = 0.2;
    c.offsetColumnRate = 0.2;
    c.memoryLeakRate = 0.2;
    c.comparatorOffsetRate = 0.2;
    c.adcStuckBitRate = 0.2;

    FaultModel a(c, 64);
    FaultModel b(c, 64);
    for (std::size_t i = 0; i < 64; ++i) {
        const ColumnFaults &fa = a.column(i);
        const ColumnFaults &fb = b.column(i);
        EXPECT_EQ(fa.dead, fb.dead);
        EXPECT_EQ(fa.offsetV, fb.offsetV);
        EXPECT_EQ(fa.weightStuckBit, fb.weightStuckBit);
        EXPECT_EQ(fa.weightStuckHigh, fb.weightStuckHigh);
        EXPECT_EQ(fa.extraHoldS, fb.extraHoldS);
        EXPECT_EQ(fa.comparatorOffsetV, fb.comparatorOffsetV);
        EXPECT_EQ(fa.adcStuckBit, fb.adcStuckBit);
        EXPECT_EQ(fa.onset, fb.onset);
    }
}

TEST(FaultModelTest, SeedChangesRealization)
{
    FaultCampaign c = FaultCampaign::deadColumns(0.3, 1);
    FaultCampaign d = FaultCampaign::deadColumns(0.3, 2);
    FaultModel a(c, 256);
    FaultModel b(d, 256);
    bool differ = false;
    for (std::size_t i = 0; i < 256; ++i)
        differ |= a.column(i).dead != b.column(i).dead;
    EXPECT_TRUE(differ);
}

TEST(FaultModelTest, DeadColumnRateMatchesExpectation)
{
    const double rate = 0.25;
    FaultModel model(FaultCampaign::deadColumns(rate, 0xabc), 4096);
    const double realized =
        static_cast<double>(model.deadColumnCount()) / 4096.0;
    EXPECT_NEAR(realized, rate, 0.03);
}

TEST(FaultModelTest, KindsRealizeIndependently)
{
    // Adding a second fault kind must not perturb the first kind's
    // realization (independent counter-based streams per kind).
    FaultCampaign only_dead = FaultCampaign::deadColumns(0.3, 7);
    FaultCampaign both = only_dead;
    both.adcStuckBitRate = 0.3;

    FaultModel a(only_dead, 128);
    FaultModel b(both, 128);
    for (std::size_t i = 0; i < 128; ++i)
        EXPECT_EQ(a.column(i).dead, b.column(i).dead) << "col " << i;
}

TEST(FaultModelTest, OnsetZeroByDefault)
{
    FaultModel model(FaultCampaign::deadColumns(0.5, 3), 64);
    for (std::size_t i = 0; i < 64; ++i) {
        EXPECT_EQ(model.column(i).onset, 0u);
        if (model.column(i).dead) {
            EXPECT_TRUE(model.column(i).activeAt(0));
        }
    }
}

TEST(FaultModelTest, OnsetHorizonSchedulesWearOut)
{
    FaultCampaign c = FaultCampaign::deadColumns(0.5, 3);
    c.onsetHorizon = 1000;
    FaultModel model(c, 256);

    bool some_late = false;
    for (std::size_t i = 0; i < 256; ++i) {
        const ColumnFaults &f = model.column(i);
        if (!f.any())
            continue;
        EXPECT_LE(f.onset, 1000u);
        if (f.onset > 0) {
            some_late = true;
            EXPECT_FALSE(f.activeAt(f.onset - 1));
        }
        EXPECT_TRUE(f.activeAt(f.onset));
    }
    EXPECT_TRUE(some_late);

    // Counts grow monotonically with the frame index.
    EXPECT_LE(model.deadColumnCount(0), model.deadColumnCount(500));
    EXPECT_LE(model.deadColumnCount(500), model.deadColumnCount());
}

TEST(FaultModelTest, StuckBitsWithinRange)
{
    FaultCampaign c;
    c.stuckWeightBitRate = 1.0;
    c.adcStuckBitRate = 1.0;
    FaultModel model(c, 128);
    for (std::size_t i = 0; i < 128; ++i) {
        const ColumnFaults &f = model.column(i);
        ASSERT_GE(f.weightStuckBit, 0);
        ASSERT_LE(f.weightStuckBit, 7);
        ASSERT_GE(f.adcStuckBit, 0);
        ASSERT_LE(f.adcStuckBit, 9);
    }
}

TEST(FaultModelTest, StrListsFaultyColumns)
{
    FaultModel model(FaultCampaign::deadColumns(1.0, 5), 4);
    const std::string s = model.str();
    EXPECT_NE(s.find("4 columns"), std::string::npos);
    EXPECT_NE(s.find("dead"), std::string::npos);
}

TEST(FaultModelDeathTest, RejectsBadRate)
{
    EXPECT_EXIT(FaultModel(FaultCampaign::deadColumns(1.5, 0), 8),
                ::testing::ExitedWithCode(1), "must be in \\[0, 1\\]");
}

TEST(FaultModelDeathTest, RejectsZeroColumns)
{
    EXPECT_EXIT(FaultModel(FaultCampaign{}, 0),
                ::testing::ExitedWithCode(1), "at least one column");
}

TEST(FaultModelDeathTest, QueryOutOfRangePanics)
{
    FaultModel model(FaultCampaign{}, 4);
    EXPECT_DEATH((void)model.column(4), "fault query");
}

} // namespace
} // namespace fault
} // namespace redeye
