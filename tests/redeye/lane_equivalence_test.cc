/**
 * @file
 * ColumnArray against the scalar keyed engine (ScalarColumnArray in
 * reference_engine.hh), which settles one output element at a time.
 * Both draw every element's noise from the same KeyedRng stream, so
 * over every seed the features must match bit for bit and the forced
 * counts exactly. Realized comparator and readout energies may differ
 * by the rounding of their summation order, within 1e-12 relative.
 *
 * The cases cover pristine arrays, each fault kind the array hooks,
 * a column map shorter than the width (lanes sharing a column), ADC
 * boost, and shapes whose element counts leave a partial lane group.
 * Both engines are compiled into this one binary, so the comparison
 * holds on whatever ISA the build targets.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_model.hh"
#include "reference_engine.hh"

namespace redeye {
namespace arch {
namespace {

constexpr std::size_t kSeeds = 200;

/** One array configuration and the frame it runs. */
struct Case {
    std::size_t columns = 12;
    Shape image = Shape(1, 3, 9, 13); ///< 13 wide: a partial lane group
    std::size_t outChannels = 12;     ///< one full and one partial group
    nn::PoolParams pool{3, 2, 0};
    fault::FaultCampaign faults;      ///< realized when any() is set
    std::vector<std::size_t> map;     ///< column map; empty = identity
    unsigned adcBits = 4;
    unsigned boostBits = 0;           ///< setAdcBits() after the conv
};

Tensor
randomImage(const Shape &s, std::uint64_t seed)
{
    Rng rng(seed);
    Tensor t(s);
    t.fillUniform(rng, 0.0f, 1.0f);
    return t;
}

void
expectSameTensor(const Tensor &lane, const Tensor &scalar,
                 const std::string &what)
{
    ASSERT_EQ(lane.shape(), scalar.shape()) << what;
    for (std::size_t i = 0; i < lane.size(); ++i)
        ASSERT_EQ(lane[i], scalar[i]) << what << ", element " << i;
}

void
expectNearRelative(double lane, double scalar, const std::string &what)
{
    EXPECT_NEAR(lane, scalar, 1e-12 * std::fabs(scalar)) << what;
}

/**
 * Run conv (rectified on even seeds, so pools see ReLU zeros and
 * their ties), max pool and readout through both engines over kSeeds
 * seeds, comparing every stage. Returns the forced decisions summed
 * over seeds.
 */
std::size_t
expectLanesMatchScalar(const Case &c)
{
    ColumnArrayConfig cfg;
    cfg.columns = c.columns;
    cfg.convSnrDb = 40.0;
    cfg.adcBits = c.adcBits;
    std::unique_ptr<fault::FaultModel> faults;
    if (c.faults.any())
        faults = std::make_unique<fault::FaultModel>(c.faults, c.columns);
    Rng weights(1);
    nn::ConvolutionLayer conv(
        "c", nn::ConvParams::square(c.outChannels, 5, 1, 2));
    (void)conv.outputShape({c.image});
    conv.initHe(weights);
    const nn::MaxPoolLayer pool("p", c.pool);

    std::size_t forced = 0;
    for (std::size_t seed = 0; seed < kSeeds; ++seed) {
        const std::string at = "seed " + std::to_string(seed);
        ColumnArray lane(cfg, analog::ProcessParams::typical(),
                         Rng(500 + seed));
        ScalarColumnArray scalar(cfg, analog::ProcessParams::typical(),
                                 Rng(500 + seed));
        lane.armFaults(faults.get(), seed);
        scalar.armFaults(faults.get(), seed);
        lane.setColumnMap(c.map);
        scalar.setColumnMap(c.map);

        const Tensor x = randomImage(c.image, seed);
        const bool rectify = seed % 2 == 0;
        const Tensor a = lane.runConvolution(x, conv, rectify);
        const Tensor b = scalar.runConvolution(x, conv, rectify);
        expectSameTensor(a, b, "conv, " + at);
        if (c.boostBits) {
            lane.setAdcBits(c.boostBits);
            scalar.setAdcBits(c.boostBits);
        }
        const Tensor pa = lane.runMaxPool(a, pool);
        const Tensor pb = scalar.runMaxPool(b, pool);
        expectSameTensor(pa, pb, "pool, " + at);
        const Tensor qa = lane.runQuantization(pa);
        const Tensor qb = scalar.runQuantization(pb);
        expectSameTensor(qa, qb, "readout, " + at);
        // A second readout at a fixed full scale, so codes clip too.
        expectSameTensor(lane.runQuantization(pa, 0.5),
                         scalar.runQuantization(pb, 0.5),
                         "clipped readout, " + at);

        EXPECT_EQ(lane.forcedDecisions(), scalar.forcedDecisions()) << at;
        forced += scalar.forcedDecisions();
        const EnergyBreakdown ea = lane.energy();
        const EnergyBreakdown eb = scalar.energy();
        expectNearRelative(ea.macJ, eb.macJ, "MAC energy, " + at);
        expectNearRelative(ea.memoryJ, eb.memoryJ, "memory energy, " + at);
        expectNearRelative(ea.comparatorJ, eb.comparatorJ,
                           "comparator energy, " + at);
        expectNearRelative(ea.readoutJ, eb.readoutJ,
                           "readout energy, " + at);
        if (testing::Test::HasFailure())
            break;
    }
    return forced;
}

/** True if some column of @p c's campaign realizes @p has. */
template <class Pred>
bool
realizes(const Case &c, Pred has)
{
    const fault::FaultModel m(c.faults, c.columns);
    for (std::size_t i = 0; i < c.columns; ++i) {
        if (has(m.column(i)))
            return true;
    }
    return false;
}

TEST(LaneEquivalenceTest, PristineMatchesScalar)
{
    EXPECT_GT(expectLanesMatchScalar(Case{}), 0u)
        << "no forced decision: the ties went unexercised";
}

/** Wider than the array: logical positions wrap onto the columns. */
TEST(LaneEquivalenceTest, WrappedNarrowArrayMatchesScalar)
{
    Case c;
    c.columns = 5;
    c.image = Shape(1, 2, 7, 21);
    c.outChannels = 5; // a single partial lane group
    c.pool = nn::PoolParams{2, 2, 0};
    expectLanesMatchScalar(c);
}

/** Padded pool windows: border lanes hold fewer values. */
TEST(LaneEquivalenceTest, PaddedPoolMatchesScalar)
{
    Case c;
    c.pool = nn::PoolParams{3, 2, 1};
    expectLanesMatchScalar(c);
}

TEST(LaneEquivalenceTest, DeadColumnsMatchScalar)
{
    Case c;
    c.faults.seed = 11;
    c.faults.deadColumnRate = 0.3;
    ASSERT_TRUE(realizes(c, [](const auto &f) { return f.dead; }));
    expectLanesMatchScalar(c);
}

TEST(LaneEquivalenceTest, ColumnOffsetsMatchScalar)
{
    Case c;
    c.faults.seed = 12;
    c.faults.offsetColumnRate = 0.4;
    ASSERT_TRUE(realizes(c, [](const auto &f) { return f.offsetV != 0.0; }));
    expectLanesMatchScalar(c);
}

TEST(LaneEquivalenceTest, StuckWeightBitsMatchScalar)
{
    Case c;
    c.faults.seed = 13;
    c.faults.stuckWeightBitRate = 0.4;
    ASSERT_TRUE(
        realizes(c, [](const auto &f) { return f.weightStuckBit >= 0; }));
    expectLanesMatchScalar(c);
}

TEST(LaneEquivalenceTest, StuckAdcBitsMatchScalar)
{
    Case c;
    c.faults.seed = 14;
    c.faults.adcStuckBitRate = 0.5;
    ASSERT_TRUE(realizes(c, [](const auto &f) { return f.adcStuckBit >= 0; }));
    expectLanesMatchScalar(c);
}

TEST(LaneEquivalenceTest, DroopMatchesScalar)
{
    Case c;
    c.faults.seed = 15;
    c.faults.memoryLeakRate = 0.4;
    ASSERT_TRUE(
        realizes(c, [](const auto &f) { return f.extraHoldS > 0.0; }));
    expectLanesMatchScalar(c);
}

TEST(LaneEquivalenceTest, ComparatorOffsetsMatchScalar)
{
    Case c;
    c.faults.seed = 16;
    c.faults.comparatorOffsetRate = 0.5;
    ASSERT_TRUE(realizes(
        c, [](const auto &f) { return f.comparatorOffsetV != 0.0; }));
    expectLanesMatchScalar(c);
}

/** Every kind at once, with onsets spread over the seeds (frames). */
TEST(LaneEquivalenceTest, MixedCampaignWithOnsetsMatchesScalar)
{
    Case c;
    c.faults.seed = 17;
    c.faults.onsetHorizon = kSeeds;
    c.faults.deadColumnRate = 0.15;
    c.faults.offsetColumnRate = 0.2;
    c.faults.stuckWeightBitRate = 0.2;
    c.faults.adcStuckBitRate = 0.2;
    c.faults.memoryLeakRate = 0.2;
    c.faults.comparatorOffsetRate = 0.2;
    expectLanesMatchScalar(c);
}

/**
 * A remap shorter than the width, as the degradation policy builds
 * around dead columns: several lanes of one group share a physical
 * column, whose comparator and ADC accrue every one of them.
 */
TEST(LaneEquivalenceTest, RemapSharingColumnsMatchesScalar)
{
    Case c;
    c.faults.seed = 18;
    c.faults.deadColumnRate = 0.3;
    c.faults.comparatorOffsetRate = 0.3;
    c.faults.adcStuckBitRate = 0.3;
    c.map = {0, 2, 5};
    expectLanesMatchScalar(c);
}

/** ADC boost: the readout reprogrammed to more bits mid-frame. */
TEST(LaneEquivalenceTest, AdcBoostMatchesScalar)
{
    Case c;
    c.boostBits = 8;
    expectLanesMatchScalar(c);
    c.adcBits = 1;
    c.boostBits = 10;
    expectLanesMatchScalar(c);
}

} // namespace
} // namespace arch
} // namespace redeye
