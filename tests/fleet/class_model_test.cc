/**
 * @file
 * Pins the fleet's per-class serving numbers and the tuner's
 * per-operating-point models of the same points, as exact doubles.
 *
 * Both come from tune::buildOpModel() on the served mini-GoogLeNet;
 * they differ only in the host calibration (the class models anchor
 * the Jetson line at the class's own cut, the OpModelCache at the
 * paper's depth-5 tail), which is why hostTailS differs below. Any
 * drift in the shared builder, the compiler, the scheduler or the
 * energy model shows here as an exact mismatch.
 */

#include <memory>

#include <gtest/gtest.h>

#include "core/rng.hh"
#include "data/shapes_dataset.hh"
#include "fleet/engine.hh"
#include "models/mini_googlenet.hh"
#include "tune/op_model.hh"

namespace redeye {
namespace fleet {
namespace {

struct ClassNumbers {
    double deviceS;
    double hostS;
    double sloS;
};

/** classDeviceS / classHostS / classSloS of the default QoS table. */
constexpr ClassNumbers kClassNumbers[kTrafficClasses] = {
    {9.0566246399999972e-05, 0.018599999999999998,
     0.11214339747839999},
    {2.8639561775602489e-05, 0.018599999999999998,
     0.59611646597681922},
    {9.0566246399999986e-06, 0.018599999999999998,
     4.7639184959078396},
};

/** OpModelCache::fetch of each default class operating point. */
constexpr double kOpModels[kTrafficClasses][8] = {
    // deviceS, remapDeviceS, analogJ, remapAnalogJ,
    // hostTailS, hostTailJ, hostFullS, hostFullJ
    {9.0566246399999972e-05, 9.0566246399999972e-05,
     0.00039985295550771198, 0.00040279555855544323,
     0.02777826633165829, 0.33889484924623114,
     0.033300000000000003, 0.40626000000000001},
    {2.8639561775602489e-05, 2.8639561775602489e-05,
     0.00039752751765387246, 0.00040047012070160365,
     0.02777826633165829, 0.33889484924623114,
     0.033300000000000003, 0.40626000000000001},
    {9.0566246399999986e-06, 9.0566246399999986e-06,
     0.00039621021694406658, 0.00039781876674441219,
     0.02777826633165829, 0.33889484924623114,
     0.033300000000000003, 0.40626000000000001},
};

TEST(ClassModelPinTest, DefaultClassServingNumbers)
{
    FleetConfig cfg;
    cfg.sessions = 4;
    FleetEngine engine(cfg);
    for (std::size_t c = 0; c < kTrafficClasses; ++c) {
        const auto cls = static_cast<TrafficClass>(c);
        EXPECT_EQ(engine.classDeviceS(cls), kClassNumbers[c].deviceS)
            << "class " << c;
        EXPECT_EQ(engine.classHostS(cls), kClassNumbers[c].hostS)
            << "class " << c;
        EXPECT_EQ(engine.classSloS(cls), kClassNumbers[c].sloS)
            << "class " << c;
    }
}

TEST(ClassModelPinTest, OpModelsOfTheClassOperatingPoints)
{
    Rng init(0x3317a11);
    auto net = models::buildMiniGoogLeNet(data::kShapeClasses, init);
    tune::OpModelCache cache(*net,
                             std::make_shared<arch::ProgramCache>());
    const QosTable qos = defaultQosTable();
    for (std::size_t c = 0; c < kTrafficClasses; ++c) {
        tune::OperatingPoint op;
        op.snrDb = qos[c].convSnrDb;
        op.adcBits = qos[c].adcBits;
        op.depth = qos[c].depth;
        const tune::OpModel &m = cache.fetch(op);
        const double got[8] = {m.deviceS,   m.remapDeviceS,
                               m.analogJ,   m.remapAnalogJ,
                               m.hostTailS, m.hostTailJ,
                               m.hostFullS, m.hostFullJ};
        for (std::size_t i = 0; i < 8; ++i)
            EXPECT_EQ(got[i], kOpModels[c][i])
                << "class " << c << " field " << i;
    }
}

} // namespace
} // namespace fleet
} // namespace redeye
