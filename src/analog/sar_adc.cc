#include "analog/sar_adc.hh"

#include <algorithm>
#include <cmath>

#include "analog/capacitor.hh"
#include "core/logging.hh"
#include "core/rng.hh"

namespace redeye {
namespace analog {

SarAdc::SarAdc(SarAdcParams params, const ProcessParams &process,
               Rng &rng)
    : params_(params), process_(process),
      comparator_(params.comparator, process), bits_(params.maxBits)
{
    fatal_if(params_.maxBits < 1 || params_.maxBits > 16,
             "SAR resolution must be in [1, 16], got ",
             params_.maxBits);

    // Draw this instance's binary-weighted array with Pelgrom
    // mismatch: C_i is nominally 2^(i-1) unit capacitors.
    capsF_.resize(params_.maxBits);
    for (unsigned i = 1; i <= params_.maxBits; ++i) {
        const double nominal = std::ldexp(process_.unitCapF,
                                          static_cast<int>(i) - 1);
        capsF_[i - 1] = drawMismatchedCap(nominal, process_.unitCapF,
                                          params_.capMismatchSigma0,
                                          rng);
    }
    bridgeCapF_ = drawMismatchedCap(process_.unitCapF,
                                    process_.unitCapF,
                                    params_.capMismatchSigma0, rng);
    setResolution(params_.maxBits);
}

void
SarAdc::setResolution(unsigned bits)
{
    fatal_if(bits < 1 || bits > params_.maxBits,
             "resolution ", bits, " outside [1, ", params_.maxBits,
             "]");
    bits_ = bits;
    cSigmaF_ = bridgeCapF_;
    for (unsigned i = 0; i < bits_; ++i)
        cSigmaF_ += capsF_[i];
    levels_ = std::ldexp(1.0, static_cast<int>(bits_));
    voltsPerF_ = vref() / cSigmaF_;
    switchJ_ = params_.switchingAlpha * cSigmaF_ * vref() * vref();
}

template <class Gen>
std::uint32_t
SarAdc::sample(double v_in, Gen &rng)
{
    const double v = std::clamp(v_in, 0.0, vref());

    std::uint32_t code = 0;
    double dac_caps = 0.0; // capacitance currently switched to Vref
    for (unsigned i = bits_; i >= 1; --i) {
        const double trial_caps = dac_caps + capsF_[i - 1];
        const Decision d =
            comparator_.compare(v, trial_caps * voltsPerF_, rng);
        if (d.aGreater) {
            code |= 1u << (i - 1);
            dac_caps = trial_caps;
        }
    }

    // Array switching energy plus the comparator energy already
    // accounted inside the comparator; fold both into this ADC.
    energyJ_ += switchJ_;
    energyJ_ += comparator_.energyJ();
    comparator_.resetEnergy();
    return code;
}

std::uint32_t
SarAdc::convert(double v_in, Rng &rng)
{
    return sample(v_in, rng);
}

std::uint32_t
SarAdc::convert(double v_in, KeyedRng &rng)
{
    return sample(v_in, rng);
}

void
SarAdc::convert(SarAdc *const (&adc)[kLanes], const LaneReals &v_in,
                const LaneMask &active, KeyedLanes &rng, LaneWords &code)
{
    const SarAdc &first = *adc[0];
    LaneReals vref, volts_per_f;
    for (unsigned l = 0; l < kLanes; ++l) {
        panic_if(adc[l]->bits_ != first.bits_,
                 "lanes convert at different resolutions");
        vref[l] = adc[l]->vref();
        volts_per_f[l] = adc[l]->voltsPerF_;
    }
    // std::clamp(v_in, 0, vref), lane-wise.
    const LaneReals zero = {};
    LaneReals v = v_in < zero ? zero : v_in;
    v = vref < v ? vref : v;

    code = LaneWords{};
    LaneReals dac_caps = {}; // capacitance switched to Vref, per lane
    LaneTally tally;
    for (unsigned i = first.bits_; i >= 1; --i) {
        LaneReals cap;
        for (unsigned l = 0; l < kLanes; ++l)
            cap[l] = adc[l]->capsF_[i - 1];
        const LaneReals trial_caps = dac_caps + cap;
        LaneMask win;
        first.comparator_.decide(v, trial_caps * volts_per_f, active, rng,
                                 tally, win);
        code |= (LaneWords)win & (std::uint64_t{1} << (i - 1));
        dac_caps = win ? trial_caps : dac_caps;
    }

    for (unsigned l = 0; l < kLanes; ++l) {
        if (!active[l])
            continue;
        SarAdc &a = *adc[l];
        a.comparator_.accrue(tally, l);
        a.energyJ_ += a.switchJ_;
        a.energyJ_ += a.comparator_.energyJ();
        a.comparator_.resetEnergy();
    }
}

double
SarAdc::reconstruct(std::uint32_t code) const
{
    return vref() * (static_cast<double>(code) + 0.5) / levels_;
}

double
SarAdc::energyPerConversion() const
{
    return switchJ_ + static_cast<double>(bits_) * comparator_.nominalEnergy();
}

double
SarAdc::timePerConversion() const
{
    // One comparator decision per bit cycle plus a sampling phase of
    // the same order as one decision.
    return static_cast<double>(bits_ + 1) *
           params_.comparator.nominalTimeS / process_.speedFactor;
}

double
SarAdc::measureEnob(Rng &rng, std::size_t samples)
{
    fatal_if(samples == 0, "ENOB needs samples");
    // Uniform-ramp test: for a full-scale uniform input the ideal
    // n-bit quantizer achieves SNDR = 6.02 n dB, so ENOB =
    // SNDR / 6.02.
    double signal_power = 0.0;
    double error_power = 0.0;
    const double mean = vref() / 2.0;
    for (std::size_t k = 0; k < samples; ++k) {
        const double v = vref() * (static_cast<double>(k) + 0.5) /
                         static_cast<double>(samples);
        const std::uint32_t code = convert(v, rng);
        const double vq = reconstruct(code);
        signal_power += (v - mean) * (v - mean);
        error_power += (vq - v) * (vq - v);
    }
    if (error_power == 0.0)
        return static_cast<double>(bits_);
    const double sndr = 10.0 * std::log10(signal_power / error_power);
    return sndr / 6.0206;
}

} // namespace analog
} // namespace redeye
