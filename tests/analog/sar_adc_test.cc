/** @file Tests for the variable-resolution SAR ADC. */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "analog/sar_adc.hh"
#include "core/rng.hh"

namespace redeye {
namespace analog {
namespace {

SarAdc
makeAdc(std::uint64_t seed = 1, double mismatch = 0.002)
{
    SarAdcParams p;
    p.capMismatchSigma0 = mismatch;
    Rng rng(seed);
    return SarAdc(p, ProcessParams::typical(), rng);
}

TEST(SarAdcTest, RampProducesMonotonicCodes)
{
    auto adc = makeAdc();
    adc.setResolution(8);
    Rng rng(2);
    std::uint32_t prev = 0;
    for (int i = 0; i <= 100; ++i) {
        const double v = adc.vref() * i / 100.0;
        const auto code = adc.convert(v, rng);
        // Allow +-1 code of comparator-noise wiggle.
        EXPECT_GE(code + 1, prev);
        prev = std::max(prev, code);
    }
    EXPECT_GT(prev, 250u);
}

TEST(SarAdcTest, ReconstructionErrorWithinLsb)
{
    auto adc = makeAdc();
    adc.setResolution(10);
    Rng rng(3);
    const double lsb = adc.vref() / 1024.0;
    for (int i = 0; i < 200; ++i) {
        const double v = adc.vref() * (i + 0.5) / 200.0;
        const double vq = adc.reconstruct(adc.convert(v, rng));
        EXPECT_NEAR(vq, v, 2.5 * lsb);
    }
}

TEST(SarAdcTest, OutOfRangeInputsClamped)
{
    auto adc = makeAdc();
    adc.setResolution(6);
    Rng rng(4);
    EXPECT_EQ(adc.convert(-1.0, rng), 0u);
    EXPECT_EQ(adc.convert(10.0, rng), 63u);
}

TEST(SarAdcTest, ResolutionConservesFullScale)
{
    // Cutting the MSB capacitor halves C_sigma but the remaining MSB
    // weight is promoted to 1/2: full scale is conserved at every
    // resolution.
    auto adc = makeAdc();
    Rng rng(5);
    for (unsigned bits = 2; bits <= 10; ++bits) {
        adc.setResolution(bits);
        const double top = adc.reconstruct(
            adc.convert(adc.vref() * 0.999, rng));
        // Mid-rise reconstruction tops out at
        // vref * (1 - 1/2^(bits+1)); allow one LSB of slack.
        const double floor_v = adc.vref() *
                               (1.0 - 1.5 / std::ldexp(1.0, bits));
        EXPECT_GT(top, floor_v) << "resolution " << bits;
    }
}

TEST(SarAdcTest, HalvingResolutionHalvesArrayCap)
{
    auto adc = makeAdc(1, 0.0);
    adc.setResolution(10);
    const double c10 = adc.totalCapF();
    adc.setResolution(9);
    const double c9 = adc.totalCapF();
    // C_sigma(10) = 1024 C0 + C0; dropping C10 removes 512 C0.
    EXPECT_NEAR((c10 - c9) / c10, 512.0 / 1025.0, 1e-3);
}

TEST(SarAdcTest, EnergyDoublesPerBit)
{
    auto adc = makeAdc(1, 0.0);
    adc.setResolution(10);
    const double e10 = adc.energyPerConversion();
    adc.setResolution(4);
    const double e4 = adc.energyPerConversion();
    // Switching energy dominated by the array: ~2^6 ratio.
    EXPECT_GT(e10 / e4, 30.0);
    EXPECT_LT(e10 / e4, 70.0);
}

TEST(SarAdcTest, EnobNearNominalForSmallMismatch)
{
    auto adc = makeAdc(6, 0.001);
    adc.setResolution(8);
    Rng rng(7);
    const double enob = adc.measureEnob(rng, 4096);
    EXPECT_GT(enob, 6.5);
    EXPECT_LE(enob, 8.2);
}

TEST(SarAdcTest, MismatchDegradesEnob)
{
    auto good = makeAdc(8, 0.0005);
    auto bad = makeAdc(8, 0.05);
    good.setResolution(10);
    bad.setResolution(10);
    Rng rng(9);
    const double e_good = good.measureEnob(rng, 4096);
    const double e_bad = bad.measureEnob(rng, 4096);
    EXPECT_GT(e_good, e_bad + 0.5);
}

TEST(SarAdcTest, LowResolutionEnobTracksBits)
{
    auto adc = makeAdc(10);
    Rng rng(11);
    adc.setResolution(4);
    const double enob4 = adc.measureEnob(rng, 4096);
    EXPECT_NEAR(enob4, 4.0, 0.5);
}

TEST(SarAdcTest, TimeGrowsWithResolution)
{
    auto adc = makeAdc();
    adc.setResolution(10);
    const double t10 = adc.timePerConversion();
    adc.setResolution(4);
    const double t4 = adc.timePerConversion();
    EXPECT_NEAR(t10 / t4, 11.0 / 5.0, 1e-9);
}

TEST(SarAdcTest, ConversionAccruesEnergy)
{
    auto adc = makeAdc();
    adc.setResolution(6);
    Rng rng(12);
    adc.resetEnergy();
    adc.convert(0.3, rng);
    EXPECT_GT(adc.energyJ(), 0.0);
}

/**
 * Codes and energy of conversions at code boundaries (where the
 * comparator noise decides bits and some decisions are forced) for a
 * fixed Rng stream. Pinned to what the SAR returned when it summed
 * C_sigma and divided by it on every bit trial: caching C_sigma and
 * multiplying must not move a code, and moves energy by rounding only.
 */
TEST(SarAdcTest, CodesAndEnergyPinnedForFixedRngStream)
{
    struct Pin {
        unsigned bits;
        std::vector<std::uint32_t> codes;
        double energyJ;
    };
    const std::vector<Pin> pins = {
        {4,
         {0, 0, 1,  1,  1,  2,  3,  3,  4,  4,  5,  5,  5,  6,  7,  7,
          7, 8, 8,  9,  9,  10, 10, 11, 11, 12, 12, 13, 13, 14, 14, 15},
         1.4498962668482828e-11},
        {10,
         {0,   31,  63,  95,  127, 160, 191, 224, 255, 288, 319,
          352, 383, 416, 448, 479, 511, 543, 576, 608, 639, 672,
          704, 735, 768, 800, 832, 863, 895, 928, 960, 991},
         3.0123986855574635e-10},
    };
    for (const Pin &pin : pins) {
        auto adc = makeAdc();
        adc.setResolution(pin.bits);
        Rng rng(7);
        std::vector<std::uint32_t> codes;
        for (std::size_t i = 0; i < pin.codes.size(); ++i)
            codes.push_back(adc.convert(adc.vref() * i / 32.0, rng));
        EXPECT_EQ(codes, pin.codes) << pin.bits << " bits";
        EXPECT_NEAR(adc.energyJ(), pin.energyJ, pin.energyJ * 1e-12)
            << pin.bits << " bits";
    }
}

TEST(SarAdcTest, InvalidResolutionFatal)
{
    auto adc = makeAdc();
    EXPECT_EXIT(adc.setResolution(0), ::testing::ExitedWithCode(1),
                "resolution");
    EXPECT_EXIT(adc.setResolution(11), ::testing::ExitedWithCode(1),
                "resolution");
}

} // namespace
} // namespace analog
} // namespace redeye
