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

/**
 * Decisions that DynamicComparator::decide() made on lanes, per lane,
 * awaiting accrue(): the counts, and the product of the honest
 * decisions' |delta| clipped at the swing, so that their regeneration
 * energy costs one logarithm per element instead of one per decision.
 */
struct LaneTally {
    LaneWords forced = {};
    LaneWords honest = {};
    LaneReals product = LaneReals{} + 1.0;
    /** ln of products folded out before they left the normal range. */
    LaneReals lnFolded = {};
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

    /**
     * One decision on each lane of @p active: compare() of a[l] with
     * b[l], drawing from lane l of @p rng, with compare()'s arithmetic
     * and draws and no branches. @p aGreater gets the lanes where a
     * wins (none outside @p active). Counts and energy wait in
     * @p tally until accrue(). Every lane uses this comparator's
     * constants, so the lanes' comparators must share parameters and
     * process corner.
     */
    void decide(const LaneReals &a, const LaneReals &b,
                const LaneMask &active, KeyedLanes &rng, LaneTally &tally,
                LaneMask &aGreater) const;

    /**
     * Accrue lane @p lane of @p tally to this comparator: its counts,
     * and the energy of its decisions. Forced ones cost
     * timeoutEnergy(); n honest ones cost n nominal energies plus the
     * regeneration P tau (n ln swing - ln prod |delta|), the sum of
     * their regeneration energies.
     */
    void
    accrue(const LaneTally &tally, unsigned lane)
    {
        const double forced = static_cast<double>(tally.forced[lane]);
        const double honest = static_cast<double>(tally.honest[lane]);
        const double ln_product =
            std::log(tally.product[lane]) + tally.lnFolded[lane];
        energyJ_ += forced * timeoutJ_ +
                    honest * params_.energyPerDecisionJ +
                    regenPowerW_ * tauS_ * (honest * lnSwing_ - ln_product);
        forcedCount_ += tally.forced[lane];
        decisionCount_ += tally.forced[lane] + tally.honest[lane];
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

inline void
DynamicComparator::decide(const LaneReals &a, const LaneReals &b,
                          const LaneMask &active, KeyedLanes &rng,
                          LaneTally &tally, LaneMask &aGreater) const
{
    constexpr std::uint64_t kMagnitude = ~(std::uint64_t{1} << 63);
    LaneReals noise;
    rng.normal(active, noise);
    const LaneReals noisy = (a - b) + (0.0 + params_.inputNoiseRms * noise);
    const LaneReals mag = (LaneReals)((LaneWords)noisy & kMagnitude);
    const LaneMask forced =
        active & (LaneMask)(mag <= LaneReals{} + metastableV_);
    const LaneMask honest = active & ~forced;
    LaneMask heads;
    rng.coin(forced, heads);
    aGreater = heads | (honest & (LaneMask)(noisy > LaneReals{}));
    tally.forced -= (LaneWords)forced; // a set lane is -1
    tally.honest -= (LaneWords)honest;

    // Beyond the swing regeneration takes no time: clip |delta| there.
    const LaneReals swing = LaneReals{} + process_.signalSwing;
    const LaneReals one = LaneReals{} + 1.0;
    tally.product *= honest ? (mag < swing ? mag : swing) : one;
    const LaneMask wild = (LaneMask)(tally.product < one * 0x1p-500) |
                          (LaneMask)(tally.product > one * 0x1p500);
    if (anyLane(wild)) {
        for (unsigned l = 0; l < kLanes; ++l) {
            tally.lnFolded[l] += std::log(tally.product[l]);
            tally.product[l] = 1.0;
        }
    }
}

} // namespace analog
} // namespace redeye

#endif // REDEYE_ANALOG_COMPARATOR_HH
