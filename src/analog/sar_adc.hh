/**
 * @file
 * Successive Approximation Register ADC with variable resolution.
 *
 * The 10-bit SAR design (Section IV-A) achieves variable resolution
 * by skipping bit cycles and cutting the corresponding capacitors off
 * the array: dropping the MSB capacitor halves C_sigma and promotes
 * the next bit's weight to 1/2, conserving full-scale range.
 *
 * The model includes:
 *  - real successive-approximation search over a per-instance
 *    mismatched capacitor array (systematic INL/DNL),
 *  - comparator noise per bit cycle (random error),
 *  - array switching energy proportional to C_sigma = 2^n C0
 *    (the exponential energy-per-bit tradeoff of Section II-B),
 *  - ENOB measurement, used as the behavioral noise parameter
 *    ("we assume its noise contribution is identical to the
 *    quantization noise of an ideal m-bit ADC where m = ENOB").
 */

#ifndef REDEYE_ANALOG_SAR_ADC_HH
#define REDEYE_ANALOG_SAR_ADC_HH

#include <cstdint>
#include <vector>

#include "analog/comparator.hh"
#include "analog/process.hh"
#include "core/rng.hh"

namespace redeye {

namespace analog {

/** SAR ADC design parameters. */
struct SarAdcParams {
    unsigned maxBits = 10;      ///< physical resolution
    double capMismatchSigma0 = 0.002; ///< unit cap relative mismatch
    double switchingAlpha = 1.0; ///< switching-energy factor of
                                 ///< C_sigma * Vref^2
    ComparatorParams comparator;
};

/** Variable-resolution SAR ADC. */
class SarAdc
{
  public:
    /**
     * @param rng Used once to draw this instance's capacitor
     * mismatch (a per-die systematic error).
     */
    SarAdc(SarAdcParams params, const ProcessParams &process, Rng &rng);

    /** Program the active resolution (1..maxBits). */
    void setResolution(unsigned bits);

    unsigned resolution() const { return bits_; }

    unsigned maxBits() const { return params_.maxBits; }

    /** Full-scale input range [0, vref]. */
    double vref() const { return process_.signalSwing; }

    /**
     * Convert @p v_in (clamped to [0, vref]) to a code in
     * [0, 2^bits). Accrues conversion energy.
     */
    std::uint32_t convert(double v_in, Rng &rng);

    /** As above, drawing from a keyed stream (core/rng.hh). */
    std::uint32_t convert(double v_in, KeyedRng &rng);

    /**
     * kLanes conversions in lockstep: lane l converts @p v_in[l] on
     * @p adc[l], drawing from lane l of @p rng as convert() draws from
     * that lane's KeyedRng, and gets its code in @p code[l]. Lanes
     * outside @p active draw and accrue nothing, but their @p adc
     * entry must still point at an ADC. Each active lane's ADC
     * accrues that lane's energy, in lane order; lanes may share an
     * ADC. The lanes' ADCs must share resolution and comparator
     * parameters.
     */
    static void convert(SarAdc *const (&adc)[kLanes], const LaneReals &v_in,
                        const LaneMask &active, KeyedLanes &rng,
                        LaneWords &code);

    /** Ideal mid-rise reconstruction of a code to volts. */
    double reconstruct(std::uint32_t code) const;

    /** Active array capacitance C_sigma at the current resolution. */
    double totalCapF() const { return cSigmaF_; }

    /** Analytic energy of one conversion at current resolution [J]. */
    double energyPerConversion() const;

    /** Analytic time of one conversion [s]. */
    double timePerConversion() const;

    /**
     * Measure effective number of bits through a uniform-ramp test
     * over @p samples conversions (SNDR-based).
     */
    double measureEnob(Rng &rng, std::size_t samples = 4096);

    /** Total energy accrued [J]. */
    double energyJ() const { return energyJ_; }

    void resetEnergy() { energyJ_ = 0.0; }

    const SarAdcParams &adcParams() const { return params_; }

  private:
    /** Shared body of the convert() overloads. */
    template <class Gen> std::uint32_t sample(double v_in, Gen &rng);

    SarAdcParams params_;
    ProcessParams process_;
    DynamicComparator comparator_;
    unsigned bits_;
    std::vector<double> capsF_; ///< mismatched C_i, i = 1..maxBits
    double bridgeCapF_;         ///< terminating C0
    // Derived by setResolution().
    double cSigmaF_ = 0.0;   ///< active array capacitance C_sigma
    double levels_ = 0.0;    ///< 2^bits, the reconstruction step count
    double voltsPerF_ = 0.0; ///< DAC volts per switched farad
    double switchJ_ = 0.0;   ///< array switching energy per conversion
    double energyJ_ = 0.0;
};

} // namespace analog
} // namespace redeye

#endif // REDEYE_ANALOG_SAR_ADC_HH
