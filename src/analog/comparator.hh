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

#include "analog/process.hh"

namespace redeye {

class KeyedRng;
class Rng;

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

    /** As above, drawing from a keyed stream (core/rng.hh). */
    Decision compare(double a, double b, KeyedRng &rng);

    /** Decision time for a given input difference (pre-timeout). */
    double decisionTime(double delta_v) const;

    /** Probability bound that honest regeneration exceeds timeout. */
    double metastableDeltaV() const;

    /** Nominal (full-swing) energy per decision [J]. */
    double nominalEnergy() const;

    /** Worst-case (timeout) energy per decision [J]. */
    double timeoutEnergy() const;

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

    ComparatorParams params_;
    ProcessParams process_;
    double energyJ_ = 0.0;
    std::size_t forcedCount_ = 0;
    std::size_t decisionCount_ = 0;
};

} // namespace analog
} // namespace redeye

#endif // REDEYE_ANALOG_COMPARATOR_HH
