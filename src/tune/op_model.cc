#include "tune/op_model.hh"

#include "core/logging.hh"
#include "models/mini_googlenet.hh"
#include "models/partition.hh"
#include "nn/network.hh"
#include "redeye/energy_model.hh"
#include "redeye/scheduler.hh"

namespace redeye {
namespace tune {

StatusOr<OpModel>
buildOpModel(nn::Network &net, arch::ProgramCache &programs,
             const OperatingPoint &op, unsigned adc_boost_bits,
             const sys::JetsonTk1 &host)
{
    OpModel m;
    m.op = op;
    m.analogLayers = models::miniGoogLeNetAnalogLayers(op.depth);
    m.device.adcBits = op.adcBits;
    m.device.convSnrDb = op.snrDb;
    m.device.columns = models::kMiniInputSize;

    auto prog = programs.compileOrStatus(net, m.analogLayers, m.device);
    if (!prog.ok())
        return prog.status();
    m.program = std::move(prog.value());
    m.deviceS =
        arch::scheduleProgram(*m.program, m.device).frameLatencyS;
    m.analogJ = arch::RedEyeModel(*m.program, m.device)
                    .estimateFrame()
                    .energy.totalJ();

    // The Remap serving point: same cut, ADC boosted the way the
    // degradation policy programs it (stream/degrade.hh).
    arch::RedEyeConfig remap_cfg = m.device;
    remap_cfg.adcBits += adc_boost_bits;
    auto remap = programs.compileOrStatus(net, m.analogLayers, remap_cfg);
    if (!remap.ok())
        return remap.status();
    m.remapProgram = std::move(remap.value());
    m.remapDeviceS =
        arch::scheduleProgram(*m.remapProgram, remap_cfg)
            .frameLatencyS;
    m.remapAnalogJ = arch::RedEyeModel(*m.remapProgram, remap_cfg)
                         .estimateFrame()
                         .energy.totalJ();

    // Evaluate the host at *this* cut's tail, so moving layers into
    // analog really shrinks the modeled digital spend — the whole
    // energy argument for the depth knob.
    const double full_macs = static_cast<double>(net.totalMacs());
    const double tail_macs = static_cast<double>(
        models::digitalTailMacs(net, m.analogLayers));
    m.hostTailS = host.executionTimeS(tail_macs);
    m.hostTailJ = host.executionEnergyJ(tail_macs);
    m.hostFullS = host.executionTimeS(full_macs);
    m.hostFullJ = host.executionEnergyJ(full_macs);
    return m;
}

OpModelCache::OpModelCache(nn::Network &net,
                           std::shared_ptr<arch::ProgramCache>
                               programs,
                           Config config)
    : net_(net), programs_(std::move(programs)), config_(config),
      host_(sys::JetsonParams::paper(
          config.host, static_cast<double>(net.totalMacs()),
          static_cast<double>(models::digitalTailMacs(
              net, models::miniGoogLeNetAnalogLayers(5)))))
{
    fatal_if(programs_ == nullptr,
             "OpModelCache needs a program cache");
}

OpModelCache::OpModelCache(nn::Network &net,
                           std::shared_ptr<arch::ProgramCache>
                               programs)
    : OpModelCache(net, std::move(programs), Config())
{
}

const OpModel &
OpModelCache::fetch(const OperatingPoint &op)
{
    auto model =
        models_.fetchOrStatus(operatingPointKey(op), [&]() {
            return buildOpModel(net_, *programs_, op,
                                config_.adcBoostBits, host_);
        });
    fatal_if(!model.ok(), "operating point ", op.str(),
             " does not compile: ", model.status().message());
    return *model.value();
}

OpCost
OpModelCache::costFor(const OperatingPoint &op,
                      stream::DegradeMode mode)
{
    const OpModel &m = fetch(op);
    OpCost cost;
    switch (mode) {
      case stream::DegradeMode::Normal:
        cost.energyJ = m.analogJ + m.hostTailJ;
        cost.timeS = m.deviceS + m.hostTailS;
        break;
      case stream::DegradeMode::Remap:
        cost.energyJ = m.remapAnalogJ + m.hostTailJ;
        cost.timeS = m.remapDeviceS + m.hostTailS;
        break;
      case stream::DegradeMode::Bypass:
        cost.energyJ = m.hostFullJ;
        cost.timeS = m.hostFullS;
        break;
    }
    return cost;
}

} // namespace tune
} // namespace redeye
