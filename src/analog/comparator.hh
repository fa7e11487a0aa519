/**
 * @file
 * Fully dynamic comparator with metastability suppression.
 *
 * RedEye's max-pooling module uses a dynamic comparator with zero idle
 * power. When the input difference is small the regeneration time
 * grows logarithmically and the comparator burns maximum current; the
 * design "suppresses this effect by forcing arbitrary decisions when
 * the comparator fails to deliver a result in time" (Section IV-A).
 */

#ifndef REDEYE_ANALOG_COMPARATOR_HH
#define REDEYE_ANALOG_COMPARATOR_HH

#include <cmath>
#include <cstddef>

#include "analog/process.hh"
#include "core/rng.hh"

namespace redeye {

namespace analog {

/** Comparator design parameters. */
struct ComparatorParams {
    double inputNoiseRms = 100e-6; ///< input-referred noise [V rms]
    double nominalTimeS = 1e-9;    ///< decision time at full swing [s]
    double regenTauS = 0.22e-9;    ///< regeneration time constant [s]
    double timeoutS = 3e-9;        ///< forced-decision deadline [s];
                                   ///< places the metastable window
                                   ///< near the noise floor (~100 uV)
    double energyPerDecisionJ = 20e-15; ///< nominal decision energy [J]
    double metastableCurrentA = 50e-6;  ///< extra current while
                                        ///< regenerating [A]
};

/** Outcome of one comparison. */
struct Decision {
    bool aGreater = false; ///< decision: a > b
    double timeS = 0.0;    ///< time the decision took
    double energyJ = 0.0;  ///< energy it consumed
    bool forced = false;   ///< true if the timeout forced it
};

/** Dynamic latch comparator. */
class DynamicComparator
{
  public:
    DynamicComparator(ComparatorParams params,
                      const ProcessParams &process);

    /**
     * Compare @p a and @p b. Adds input-referred noise; if the noisy
     * difference is so small that regeneration exceeds the timeout,
     * the decision is forced to a coin flip at maximum energy.
     */
    Decision compare(double a, double b, Rng &rng);

    /**
     * As above, drawing from a keyed stream (core/rng.hh). Inline:
     * the functional array makes ~10^5 decisions per frame.
     */
    Decision
    compare(double a, double b, KeyedRng &rng)
    {
        return decide(a, b, rng);
    }

    /** Decision time for a given input difference (pre-timeout). */
    double decisionTime(double delta_v) const;

    /**
     * Input difference at or below which honest regeneration would
     * reach the timeout: |delta| <= this iff decisionTime >= timeout.
     */
    double metastableDeltaV() const { return metastableV_; }

    /** Nominal (full-swing) energy per decision [J]. */
    double nominalEnergy() const { return params_.energyPerDecisionJ; }

    /** Worst-case (timeout) energy per decision [J]. */
    double timeoutEnergy() const { return timeoutJ_; }

    const ComparatorParams &params() const { return params_; }

    /** Total energy accrued [J]. */
    double energyJ() const { return energyJ_; }

    /** Count of decisions forced by the timeout. */
    std::size_t forcedCount() const { return forcedCount_; }

    /** Total decisions made. */
    std::size_t decisionCount() const { return decisionCount_; }

    void resetEnergy() { energyJ_ = 0.0; }

  private:
    /** Shared body of the compare() overloads. */
    template <class Gen> Decision decide(double a, double b, Gen &rng);

    /** Regeneration time beyond nominal for 0 < |delta| < swing. */
    double
    regenTime(double mag) const
    {
        return tauS_ * (lnSwing_ - std::log(mag));
    }

    ComparatorParams params_;
    ProcessParams process_;
    // Derived once at construction.
    double tauS_ = 0.0;        ///< regeneration tau at this corner [s]
    double lnSwing_ = 0.0;     ///< ln(signal swing)
    double metastableV_ = 0.0; ///< forced-decision bound on |delta|
    double regenPowerW_ = 0.0; ///< extra power while regenerating
    double timeoutJ_ = 0.0;    ///< energy of a forced decision
    double energyJ_ = 0.0;
    std::size_t forcedCount_ = 0;
    std::size_t decisionCount_ = 0;
};

template <class Gen>
inline Decision
DynamicComparator::decide(double a, double b, Gen &rng)
{
    Decision d;
    const double noisy_delta = (a - b) +
                               rng.gaussian(0.0,
                                            params_.inputNoiseRms);
    const double mag = std::fabs(noisy_delta);

    // |delta| <= metastableV_ is exactly decisionTime() >= timeout,
    // so a forced decision needs no logarithm.
    if (mag <= metastableV_) {
        // Forced arbitrary decision at the deadline.
        d.forced = true;
        d.timeS = params_.timeoutS;
        d.energyJ = timeoutJ_;
        d.aGreater = rng.bernoulli(0.5);
        ++forcedCount_;
    } else {
        const double regen =
            mag < process_.signalSwing ? regenTime(mag) : 0.0;
        d.timeS = params_.nominalTimeS + regen;
        d.energyJ = params_.energyPerDecisionJ + regenPowerW_ * regen;
        d.aGreater = noisy_delta > 0.0;
    }

    energyJ_ += d.energyJ;
    ++decisionCount_;
    return d;
}

} // namespace analog
} // namespace redeye

#endif // REDEYE_ANALOG_COMPARATOR_HH
