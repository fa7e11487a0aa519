#include "analog/comparator.hh"

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
    tauS_ = params_.regenTauS / process_.speedFactor;
    lnSwing_ = std::log(process_.signalSwing);
    // Delta below which regeneration would exceed the timeout:
    // timeout = t0 + tau * ln(swing / delta).
    metastableV_ = process_.signalSwing *
                   std::exp(-(params_.timeoutS - params_.nominalTimeS) /
                            tauS_);
    regenPowerW_ = params_.metastableCurrentA * process_.supplyVoltage;
    timeoutJ_ = params_.energyPerDecisionJ +
                regenPowerW_ * (params_.timeoutS - params_.nominalTimeS);
}

double
DynamicComparator::decisionTime(double delta_v) const
{
    const double mag = std::fabs(delta_v);
    if (mag >= process_.signalSwing)
        return params_.nominalTimeS;
    if (mag <= 0.0)
        return params_.timeoutS;
    return params_.nominalTimeS + regenTime(mag);
}

Decision
DynamicComparator::compare(double a, double b, Rng &rng)
{
    return decide(a, b, rng);
}

} // namespace analog
} // namespace redeye
