/** @file Tests for the calibration probe. */

#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_model.hh"
#include "stream/probe.hh"

namespace redeye {
namespace stream {
namespace {

constexpr std::size_t kColumns = 16;

arch::ColumnArrayConfig
makeConfig()
{
    arch::ColumnArrayConfig cfg;
    cfg.columns = kColumns;
    cfg.convSnrDb = 40.0;
    cfg.adcBits = 4;
    return cfg;
}

/**
 * A campaign realizing exactly one dead column at kColumns width
 * (scans seeds; the realization is deterministic per seed).
 */
fault::FaultCampaign
oneDeadColumn(std::size_t &dead_col)
{
    fault::FaultCampaign c = fault::FaultCampaign::deadColumns(0.05);
    for (std::uint64_t seed = 1; seed < 200; ++seed) {
        c.seed = seed;
        fault::FaultModel m(c, kColumns);
        if (m.deadColumnCount() == 1) {
            for (std::size_t i = 0; i < kColumns; ++i) {
                if (m.column(i).dead)
                    dead_col = i;
            }
            return c;
        }
    }
    ADD_FAILURE() << "no seed yields exactly one dead column";
    return c;
}

TEST(ProbeTest, PristineSiliconHasNoSuspects)
{
    const ProbeReport r =
        runCalibrationProbe(makeConfig(), nullptr, 0);
    ASSERT_EQ(r.columnError.size(), kColumns);
    EXPECT_FALSE(r.anySuspect());
    for (double e : r.columnError)
        EXPECT_LT(e, 0.02) << r.str();
}

TEST(ProbeTest, EmptyCampaignHasNoSuspects)
{
    fault::FaultModel empty(fault::FaultCampaign{}, kColumns);
    const ProbeReport r =
        runCalibrationProbe(makeConfig(), &empty, 0);
    EXPECT_FALSE(r.anySuspect()) << r.str();
}

TEST(ProbeTest, DeadColumnIsFlagged)
{
    std::size_t dead_col = kColumns;
    const fault::FaultCampaign c = oneDeadColumn(dead_col);
    ASSERT_LT(dead_col, kColumns);
    fault::FaultModel model(c, kColumns);

    const ProbeReport r =
        runCalibrationProbe(makeConfig(), &model, 0);
    ASSERT_EQ(r.suspectColumns.size(), 1u) << r.str();
    EXPECT_EQ(r.suspectColumns[0], dead_col);
    EXPECT_GT(r.columnError[dead_col], 0.02);
}

TEST(ProbeTest, ReportIsDeterministic)
{
    std::size_t dead_col = kColumns;
    const fault::FaultCampaign c = oneDeadColumn(dead_col);
    fault::FaultModel model(c, kColumns);

    const ProbeReport a =
        runCalibrationProbe(makeConfig(), &model, 0);
    const ProbeReport b =
        runCalibrationProbe(makeConfig(), &model, 0);
    ASSERT_EQ(a.columnError.size(), b.columnError.size());
    for (std::size_t i = 0; i < a.columnError.size(); ++i)
        EXPECT_EQ(a.columnError[i], b.columnError[i]);
    EXPECT_EQ(a.suspectColumns, b.suspectColumns);
}

TEST(ProbeTest, OnsetGatesDetection)
{
    // Every fault onsets strictly after frame 0; the probe at frame 0
    // sees pristine silicon, a probe past the last onset sees the
    // faults.
    fault::FaultCampaign c;
    c.deadColumnRate = 1.0;
    c.onsetHorizon = 1000000;
    fault::FaultModel model(c, kColumns);

    std::uint64_t last_onset = 0;
    bool all_late = true;
    for (std::size_t i = 0; i < kColumns; ++i) {
        last_onset = std::max(last_onset, model.column(i).onset);
        all_late &= model.column(i).onset > 0;
    }
    ASSERT_GT(last_onset, 0u);

    if (all_late) {
        const ProbeReport before =
            runCalibrationProbe(makeConfig(), &model, 0);
        EXPECT_FALSE(before.anySuspect()) << before.str();
    }
    const ProbeReport after =
        runCalibrationProbe(makeConfig(), &model, last_onset);
    EXPECT_EQ(after.suspectColumns.size(), kColumns) << after.str();
}

/** Fault kinds of the pinned probe campaigns. */
enum class Kind { Dead, Stuck, Offset, Droop };

/** One kind of fault at a high rate, realized from @p seed. */
fault::FaultCampaign
campaign(Kind kind, std::uint64_t seed)
{
    fault::FaultCampaign c;
    c.seed = seed;
    switch (kind) {
      case Kind::Dead:
        c.deadColumnRate = 0.15;
        break;
      case Kind::Stuck:
        c.stuckWeightBitRate = 0.3;
        break;
      case Kind::Offset:
        c.offsetColumnRate = 0.3;
        break;
      case Kind::Droop:
        c.memoryLeakRate = 0.3;
        break;
    }
    return c;
}

/**
 * Suspect sets of dead, stuck-bit, offset and droop campaigns, pinned
 * to what the probe returned when the array simulated every tap from
 * one sequential stream. Fleet quarantine and degradation plans are
 * built from these sets, so the closed-form engine must reproduce
 * them.
 */
TEST(ProbeTest, SuspectSetsMatchPerTapEngine)
{
    struct Pin {
        Kind kind;
        std::uint64_t seed;
        std::vector<std::size_t> suspects;
    };
    const std::vector<Pin> pins = {
        {Kind::Dead, 1, {3, 7, 11, 13}},
        {Kind::Dead, 2, {0, 2, 4, 5, 8, 9, 15}},
        {Kind::Dead, 3, {}},
        {Kind::Dead, 4, {7, 14}},
        {Kind::Dead, 5, {4}},
        {Kind::Dead, 6, {0, 3, 4, 7}},
        {Kind::Stuck, 1, {1, 4, 11, 12}},
        {Kind::Stuck, 2, {13}},
        {Kind::Stuck, 3, {0, 9}},
        {Kind::Stuck, 4, {3, 8, 10, 13, 15}},
        {Kind::Stuck, 5, {3, 12}},
        {Kind::Stuck, 6, {14}},
        {Kind::Offset, 1, {0, 2, 4, 15}},
        {Kind::Offset, 2, {2, 9, 11, 15}},
        {Kind::Offset, 3, {4, 10, 12, 15}},
        {Kind::Offset, 4, {1, 10, 12, 13, 15}},
        {Kind::Offset, 5, {7, 12}},
        {Kind::Offset, 6, {1, 6, 8, 12, 13, 15}},
        {Kind::Droop, 1, {2, 8, 12, 13, 14, 15}},
        {Kind::Droop, 2, {2, 8, 9, 11, 13}},
        {Kind::Droop, 3, {2, 4, 6, 13}},
        // The per-tap engine also flagged healthy 3, 4, 6, 9, 10, 12
        // and 13 here, before both arrays read out on the reference's
        // full scale; the set is now exactly the leaky columns.
        {Kind::Droop, 4, {0, 1, 2, 5, 11, 14, 15}},
        {Kind::Droop, 5, {5, 9, 11, 12, 14}},
        {Kind::Droop, 6, {0, 3, 6, 14}},
    };
    for (const Pin &pin : pins) {
        fault::FaultModel model(campaign(pin.kind, pin.seed), kColumns);
        const ProbeReport r =
            runCalibrationProbe(makeConfig(), &model, 0);
        EXPECT_EQ(r.suspectColumns, pin.suspects)
            << "kind " << static_cast<int>(pin.kind) << " seed "
            << pin.seed << ": " << r.str();
    }
}

/**
 * At the serving width (32 columns) the probe flags exactly the dead
 * columns: no draw depends on another column's decisions, so a dead
 * column cannot perturb a healthy column's readout.
 */
TEST(ProbeTest, DeadSuspectsAreExactlyTheDeadColumns)
{
    constexpr std::size_t kWide = 32;
    arch::ColumnArrayConfig cfg = makeConfig();
    cfg.columns = kWide;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        fault::FaultModel model(campaign(Kind::Dead, seed), kWide);
        std::vector<std::size_t> dead;
        for (std::size_t i = 0; i < kWide; ++i) {
            if (model.column(i).dead)
                dead.push_back(i);
        }
        const ProbeReport r = runCalibrationProbe(cfg, &model, 0);
        EXPECT_EQ(r.suspectColumns, dead)
            << "seed " << seed << ": " << r.str();
    }
}

/** Columns with any realized fault, ascending. */
std::vector<std::size_t>
faultyColumns(const fault::FaultModel &model)
{
    std::vector<std::size_t> faulty;
    for (std::size_t i = 0; i < model.columns(); ++i) {
        if (model.column(i).any())
            faulty.push_back(i);
    }
    return faulty;
}

/**
 * Ground truth over probe noise: for 100 probe seeds, a single dead
 * column, dead-rate and droop campaigns at the test width flag
 * exactly the faulty columns, with no healthy column a suspect and
 * no faulty one missed. Holds because both arrays read out on the
 * reference's full scale, so a railed or drooped column cannot move
 * a healthy column's readout steps.
 */
TEST(ProbeTest, SuspectsAreTheFaultyColumnsAtAnyProbeSeed)
{
    std::size_t dead_col = kColumns;
    std::vector<fault::FaultCampaign> campaigns = {oneDeadColumn(dead_col)};
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        campaigns.push_back(campaign(Kind::Dead, seed));
        campaigns.push_back(campaign(Kind::Droop, seed));
    }
    std::size_t faulty_total = 0;
    for (const fault::FaultCampaign &c : campaigns) {
        const fault::FaultModel model(c, kColumns);
        const std::vector<std::size_t> faulty = faultyColumns(model);
        faulty_total += faulty.size();
        for (std::uint64_t s = 0; s < 100; ++s) {
            ProbeConfig pc;
            pc.seed = 0x9a0be + s;
            const ProbeReport r =
                runCalibrationProbe(makeConfig(), &model, 0, pc);
            EXPECT_EQ(r.suspectColumns, faulty)
                << "campaign seed " << c.seed << " probe seed "
                << pc.seed << ": " << r.str();
        }
    }
    EXPECT_GT(faulty_total, 20u); // the campaigns do afflict columns
}

TEST(ProbeDeathTest, RejectsBadThreshold)
{
    ProbeConfig pc;
    pc.threshold = 0.0;
    EXPECT_EXIT(runCalibrationProbe(makeConfig(), nullptr, 0, pc),
                ::testing::ExitedWithCode(1), "threshold");
}

} // namespace
} // namespace stream
} // namespace redeye
