#include "redeye/device.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "core/logging.hh"
#include "nn/concat.hh"
#include "nn/lrn.hh"
#include "nn/network.hh"
#include "noise/snr.hh"

namespace redeye {
namespace arch {

namespace {

/** Layer kinds the analog array can realize. */
bool
analogExecutable(nn::LayerKind kind)
{
    switch (kind) {
      case nn::LayerKind::Convolution:
      case nn::LayerKind::ReLU:
      case nn::LayerKind::MaxPool:
      case nn::LayerKind::AvgPool:
      case nn::LayerKind::LRN:
      case nn::LayerKind::Concat:
        return true;
      default:
        return false;
    }
}

} // namespace

StatusOr<AnalogPlan>
AnalogPlan::build(nn::Network &net,
                  const std::vector<std::string> &analog_layers,
                  unsigned weight_bits)
{
    std::set<std::string> wanted(analog_layers.begin(),
                                 analog_layers.end());
    for (const auto &name : analog_layers) {
        if (!net.hasLayer(name)) {
            return Status::invalidArgument("network has no layer '" +
                                           name + "'");
        }
    }

    AnalogPlan plan;
    plan.weightBits_ = weight_bits;
    std::map<std::string, std::size_t> produced{
        {std::string(nn::kInputName), kFrameInput}};
    for (std::size_t i = 0; i < net.size(); ++i) {
        nn::Layer &layer = net.layerAt(i);
        if (!wanted.count(layer.name()))
            continue;
        if (!analogExecutable(layer.kind())) {
            return Status::invalidArgument(
                "RedEye device cannot execute layer '" +
                layer.name() + "' of kind " +
                nn::layerKindName(layer.kind()));
        }
        Step step;
        step.layer = &layer;
        for (const auto &name : net.inputsOf(i)) {
            auto it = produced.find(name);
            if (it == produced.end()) {
                return Status::invalidArgument(
                    "analog layer consumes '" + name +
                    "', which is not in the partition");
            }
            step.inputs.push_back(it->second);
        }
        if (layer.kind() == nn::LayerKind::Convolution) {
            // Fold an immediately following in-partition ReLU.
            if (i + 1 < net.size()) {
                nn::Layer &next = net.layerAt(i + 1);
                step.rectify = next.kind() == nn::LayerKind::ReLU &&
                               wanted.count(next.name()) > 0;
            }
            auto &conv = static_cast<nn::ConvolutionLayer &>(layer);
            step.kernel = plan.kernels_.size();
            plan.kernels_.push_back(
                ConvKernel::lower(conv, weight_bits));
        }
        produced[layer.name()] = plan.steps_.size();
        plan.steps_.push_back(std::move(step));
    }
    if (plan.steps_.empty()) {
        return Status::invalidArgument(
            "partition executed no layers");
    }
    return plan;
}

RedEyeDevice::RedEyeDevice(ColumnArrayConfig config,
                           analog::ProcessParams process, Rng rng)
    : array_(config, process, rng.fork()), rng_(rng)
{
}

StatusOr<DeviceRun>
RedEyeDevice::tryRun(nn::Network &net,
                     const std::vector<std::string> &analog_layers,
                     const Tensor &input)
{
    if (input.shape().n != 1) {
        return Status::invalidArgument(
            "device executes one frame at a time, got batch of " +
            std::to_string(input.shape().n));
    }
    StatusOr<AnalogPlan> plan = AnalogPlan::build(
        net, analog_layers, array_.config().weightBits);
    RETURN_IF_ERROR(plan.status());
    return run(*plan, input);
}

DeviceRun
RedEyeDevice::run(nn::Network &net,
                  const std::vector<std::string> &analog_layers,
                  const Tensor &input)
{
    StatusOr<DeviceRun> result = tryRun(net, analog_layers, input);
    fatal_if(!result.ok(), result.status().message());
    return std::move(result.value());
}

DeviceRun
RedEyeDevice::run(const AnalogPlan &plan, const Tensor &input)
{
    fatal_if(input.shape().n != 1,
             "device executes one frame at a time, got batch of ",
             input.shape().n);
    fatal_if(plan.weightBits() != array_.config().weightBits,
             "plan lowered at ", plan.weightBits(),
             "-bit weights, array has ", array_.config().weightBits);

    array_.resetEnergy();
    const auto &steps = plan.steps();
    std::vector<Tensor> acts(steps.size());
    auto fetch = [&](std::size_t from) -> const Tensor & {
        return from == AnalogPlan::kFrameInput ? input : acts[from];
    };

    for (std::size_t k = 0; k < steps.size(); ++k) {
        const AnalogPlan::Step &step = steps[k];
        nn::Layer &layer = *step.layer;
        Tensor &out = acts[k];

        switch (layer.kind()) {
          case nn::LayerKind::Convolution:
            out = array_.runConvolution(
                fetch(step.inputs[0]),
                static_cast<nn::ConvolutionLayer &>(layer),
                plan.kernels()[step.kernel], step.rectify);
            break;
          case nn::LayerKind::ReLU: {
            // Either folded into the preceding conv (then this is a
            // copy) or applied as clipping on a buffered tensor.
            out = fetch(step.inputs[0]);
            for (std::size_t i = 0; i < out.size(); ++i)
                out[i] = std::max(0.0f, out[i]);
            break;
          }
          case nn::LayerKind::MaxPool:
            out = array_.runMaxPool(
                fetch(step.inputs[0]),
                static_cast<nn::MaxPoolLayer &>(layer));
            break;
          case nn::LayerKind::AvgPool:
            // Lowered to a uniform-weight convolution on hardware;
            // functionally: exact mean + conv-module noise.
          case nn::LayerKind::LRN: {
            // Realized as conv-module weight renormalization: exact
            // math plus module noise at the programmed SNR.
            layer.forward({&fetch(step.inputs[0])}, out);
            double s = 0.0;
            for (float v : out.vec())
                s += static_cast<double>(v) * v;
            const double rms =
                out.size() ? std::sqrt(s / static_cast<double>(
                                               out.size()))
                           : 0.0;
            const double sigma = noise::noiseSigmaForSnr(
                rms, array_.config().convSnrDb);
            for (std::size_t i = 0; i < out.size(); ++i) {
                out[i] += static_cast<float>(
                    rng_.gaussian(0.0, sigma));
            }
            break;
          }
          case nn::LayerKind::Concat: {
            std::vector<const Tensor *> ins;
            for (std::size_t from : step.inputs)
                ins.push_back(&fetch(from));
            layer.forward(ins, out);
            break;
          }
          default:
            panic("analog plan reached unsupported layer '",
                  layer.name(), "'");
        }
    }

    DeviceRun result;
    result.features = array_.runQuantization(acts.back());
    result.energy = array_.energy();
    result.forcedDecisions = array_.forcedDecisions();
    for (const AnalogPlan::Step &step : steps)
        result.executedLayers.push_back(step.layer->name());
    return result;
}

} // namespace arch
} // namespace redeye
