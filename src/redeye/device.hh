/**
 * @file
 * RedEyeDevice: functional whole-partition execution.
 *
 * Drives the ColumnArray through every analog layer of a partitioned
 * network — convolutions (with folded ReLU), max pooling, LRN (weight
 * renormalization with module noise), concat routing — and exports
 * the quantized cut tensor, exactly what the host would retrieve from
 * the feature SRAM. Collects the realized energy breakdown alongside.
 *
 * The partition is resolved once into an AnalogPlan: validation,
 * layer order and input routing, ReLU folding and every
 * convolution's lowered kernel. A serving worker builds its plan at
 * start-up and runs it every frame; run(net, names, input) builds a
 * plan and runs it, for one-off use.
 *
 * Fault campaigns (src/fault) arm through armFaults(); with none
 * armed, execution is bit-identical to pristine silicon. tryRun()
 * surfaces malformed partitions as a typed core::Status instead of
 * exiting, so a serving runtime can fail one frame and keep going.
 */

#ifndef REDEYE_REDEYE_DEVICE_HH
#define REDEYE_REDEYE_DEVICE_HH

#include <string>
#include <vector>

#include "core/status.hh"
#include "redeye/column.hh"

namespace redeye {

namespace nn {
class Network;
}

namespace arch {

/** Result of a functional frame execution. */
struct DeviceRun {
    Tensor features;      ///< quantized cut tensor (value domain)
    EnergyBreakdown energy;
    std::size_t forcedDecisions = 0;
    std::vector<std::string> executedLayers;
};

/**
 * An analog partition of one network resolved for execution. Built
 * once per (network, partition, weight resolution); running it does
 * no name lookups and no weight quantization. The plan borrows the
 * network's layers: it must not outlive the network, and the
 * network's weights must not change while it is in use.
 */
class AnalogPlan
{
  public:
    /** One analog layer and where its inputs come from. */
    struct Step {
        nn::Layer *layer = nullptr;
        /** Producing step of each input; kFrameInput = the frame. */
        std::vector<std::size_t> inputs;
        bool rectify = false; ///< conv with a folded ReLU
        std::size_t kernel = 0; ///< index into kernels() (convs)
    };

    static constexpr std::size_t kFrameInput = ~std::size_t{0};

    /**
     * Resolve @p analog_layers of @p net at @p weight_bits: an
     * InvalidArgument status when the partition is malformed (empty,
     * unknown layers, out-of-partition consumers, unsupported layer
     * kinds).
     */
    static StatusOr<AnalogPlan>
    build(nn::Network &net, const std::vector<std::string> &analog_layers,
          unsigned weight_bits);

    const std::vector<Step> &steps() const { return steps_; }

    const std::vector<ConvKernel> &kernels() const { return kernels_; }

    unsigned weightBits() const { return weightBits_; }

  private:
    std::vector<Step> steps_;
    std::vector<ConvKernel> kernels_;
    unsigned weightBits_ = 0;
};

/** Functional RedEye device. */
class RedEyeDevice
{
  public:
    RedEyeDevice(ColumnArrayConfig config,
                 analog::ProcessParams process, Rng rng);

    /**
     * Execute the analog prefix @p analog_layers of @p net on the
     * single-frame tensor @p input (1, C, H, W), returning the
     * quantized features crossing the A/D boundary, or an
     * InvalidArgument status when the partition is malformed (empty,
     * unknown layers, out-of-partition consumers, unsupported layer
     * kinds, batched input).
     */
    StatusOr<DeviceRun> tryRun(nn::Network &net,
                               const std::vector<std::string>
                                   &analog_layers,
                               const Tensor &input);

    /** Like tryRun(), but a malformed partition is fatal. */
    DeviceRun run(nn::Network &net,
                  const std::vector<std::string> &analog_layers,
                  const Tensor &input);

    /**
     * Execute a resolved partition on the single-frame @p input
     * (batched input is fatal). Bit-identical to run() with the
     * plan's network and layers.
     */
    DeviceRun run(const AnalogPlan &plan, const Tensor &input);

    /**
     * Arm a fault campaign for subsequent runs (nullptr disarms);
     * @p frame selects which faults have onset. See
     * ColumnArray::armFaults.
     */
    void
    armFaults(const fault::FaultModel *faults, std::uint64_t frame = 0)
    {
        array_.armFaults(faults, frame);
    }

    ColumnArray &array() { return array_; }

  private:
    ColumnArray array_;
    Rng rng_;
};

} // namespace arch
} // namespace redeye

#endif // REDEYE_REDEYE_DEVICE_HH
