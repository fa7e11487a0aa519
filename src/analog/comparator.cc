#include "analog/comparator.hh"

#include <algorithm>
#include <cmath>

#include "core/logging.hh"
#include "core/rng.hh"

namespace redeye {
namespace analog {

DynamicComparator::DynamicComparator(ComparatorParams params,
                                     const ProcessParams &process)
    : params_(params), process_(process)
{
    fatal_if(params_.nominalTimeS <= 0.0 || params_.regenTauS <= 0.0,
             "comparator timing must be positive");
    fatal_if(params_.timeoutS <= params_.nominalTimeS,
             "timeout must exceed the nominal decision time");
}

double
DynamicComparator::decisionTime(double delta_v) const
{
    const double swing = process_.signalSwing;
    const double mag = std::fabs(delta_v);
    if (mag >= swing)
        return params_.nominalTimeS;
    if (mag <= 0.0)
        return params_.timeoutS;
    const double tau = params_.regenTauS / process_.speedFactor;
    return params_.nominalTimeS + tau * std::log(swing / mag);
}

double
DynamicComparator::metastableDeltaV() const
{
    // Delta below which regeneration would exceed the timeout:
    // timeout = t0 + tau * ln(swing / delta).
    const double tau = params_.regenTauS / process_.speedFactor;
    return process_.signalSwing *
           std::exp(-(params_.timeoutS - params_.nominalTimeS) / tau);
}

double
DynamicComparator::nominalEnergy() const
{
    return params_.energyPerDecisionJ;
}

double
DynamicComparator::timeoutEnergy() const
{
    const double extra = params_.metastableCurrentA *
                         process_.supplyVoltage *
                         (params_.timeoutS - params_.nominalTimeS);
    return params_.energyPerDecisionJ + extra;
}

template <class Gen>
Decision
DynamicComparator::decide(double a, double b, Gen &rng)
{
    Decision d;
    const double noisy_delta = (a - b) +
                               rng.gaussian(0.0,
                                            params_.inputNoiseRms);
    const double t = decisionTime(noisy_delta);

    if (t >= params_.timeoutS) {
        // Forced arbitrary decision at the deadline.
        d.forced = true;
        d.timeS = params_.timeoutS;
        d.energyJ = timeoutEnergy();
        d.aGreater = rng.bernoulli(0.5);
    } else {
        d.timeS = t;
        const double extra = params_.metastableCurrentA *
                             process_.supplyVoltage *
                             (t - params_.nominalTimeS);
        d.energyJ = params_.energyPerDecisionJ + std::max(0.0, extra);
        d.aGreater = noisy_delta > 0.0;
    }

    energyJ_ += d.energyJ;
    ++decisionCount_;
    if (d.forced)
        ++forcedCount_;
    return d;
}

Decision
DynamicComparator::compare(double a, double b, Rng &rng)
{
    return decide(a, b, rng);
}

Decision
DynamicComparator::compare(double a, double b, KeyedRng &rng)
{
    return decide(a, b, rng);
}

} // namespace analog
} // namespace redeye
