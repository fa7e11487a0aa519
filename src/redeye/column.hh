/**
 * @file
 * Column-parallel functional execution engine.
 *
 * The structural counterpart of the analytic energy model: a
 * ColumnArray routes real signal values through the circuit models of
 * src/analog (tunable-capacitor MAC, buffer cells, comparators, SAR
 * ADCs) with every circuit-level noise and energy mechanism engaged.
 * Output x positions map onto columns; horizontally adjacent columns
 * bridge their buffered samples for kernel windows (Section III-B3).
 *
 * A convolution window is computed in closed form: the ideal sum
 * over the quantized kernel (im2col + GEMM) plus one Gaussian draw
 * whose variance is the exact sum of the window's independent noise
 * terms (tunable-cap kT/C0 per set weight bit, buffer write/read
 * noise per in-bounds tap, op amp noise per settle, damping kT/C).
 * Energy accrues from the same event counts the per-tap circuits
 * would see. Every draw comes from a KeyedRng keyed on (array key,
 * layer ordinal, output element), where the layer ordinal counts the
 * array's run*() calls: the realized noise depends neither on the
 * column map nor on the order elements are visited. DESIGN.md
 * ("Closed-form analog windows") derives the variance.
 *
 * Like the array's columns, the engine settles output elements side
 * by side: kLanes at a time in lockstep, one per SIMD lane, each on
 * its own keyed stream (KeyedLanes), so the result is the same as
 * settling them one by one.
 *
 * Used for bit-level validation (does the analog pipeline compute
 * the ConvNet?) and for measuring realized SNR against the
 * noise-layer abstraction.
 */

#ifndef REDEYE_REDEYE_COLUMN_HH
#define REDEYE_REDEYE_COLUMN_HH

#include <memory>
#include <vector>

#include "analog/comparator.hh"
#include "analog/mac_unit.hh"
#include "analog/memory_cell.hh"
#include "analog/sar_adc.hh"
#include "core/rng.hh"
#include "fault/fault_model.hh"
#include "nn/conv.hh"
#include "nn/pool.hh"
#include "redeye/energy_model.hh"
#include "tensor/tensor.hh"

namespace redeye {
namespace arch {

/** Static configuration of the functional array. */
struct ColumnArrayConfig {
    std::size_t columns = 32;
    double convSnrDb = 40.0;
    unsigned weightBits = 8;
    unsigned adcBits = 4;
};

/**
 * A convolution kernel lowered for the array: the weights quantized
 * to the array's weight resolution, plus the per-output-channel sums
 * the closed-form window model needs. A pure function of the layer's
 * weights and the weight resolution, so it is built once per layer
 * (AnalogPlan) and reused every frame.
 */
struct ConvKernel {
    std::size_t outC = 0;
    std::size_t inC = 0;
    std::size_t kernelH = 0;
    std::size_t kernelW = 0;
    unsigned weightBits = 0;
    double weightScale = 0.0;  ///< |w|max of the float kernel
    std::vector<int> codes;    ///< (outC, inC*kH*kW) signed codes
    std::vector<float> matrix; ///< codes as floats, GEMM operand A
    /**
     * Per channel: sum over taps and set magnitude bits j (0 = LSB)
     * of 4^-(bits-1-j), the kT/C0 noise power each bit samples.
     */
    std::vector<double> bitNoise;
    /** Per channel: set weight bits over all taps. */
    std::vector<double> activeBits;
    /** (outC, kH*kW): sum over input channels of code^2. */
    std::vector<double> codeSq;
    /** Per channel: codeSq summed over kernel positions. */
    std::vector<double> codeSqTotal;

    std::size_t taps() const { return inC * kernelH * kernelW; }

    /** Lower @p layer's kernel at @p weight_bits resolution. */
    static ConvKernel lower(const nn::ConvolutionLayer &layer,
                            unsigned weight_bits);

    /**
     * The kernel a column with a stuck weight-capacitor bit realizes:
     * magnitude bit @p bit forced to @p high in every code.
     */
    ConvKernel withStuckBit(int bit, bool high) const;
};

/** Column-parallel mixed-signal execution engine. */
class ColumnArray
{
  public:
    ColumnArray(ColumnArrayConfig config,
                analog::ProcessParams process, Rng rng);

    /**
     * Execute a convolution layer's arithmetic through the MAC
     * circuits. @p in is a single-item (1, C, H, W) tensor in value
     * domain; kernel weights are quantized to the array's digital
     * weight resolution on the fly.
     *
     * @param rectify Clip outputs at the rectified signal range
     * (the folded ReLU).
     */
    Tensor runConvolution(const Tensor &in,
                          nn::ConvolutionLayer &layer, bool rectify);

    /**
     * As above, with the kernel already lowered (ConvKernel::lower of
     * @p layer at this array's weight resolution). Bit-identical to
     * the lowering overload.
     */
    Tensor runConvolution(const Tensor &in,
                          nn::ConvolutionLayer &layer,
                          const ConvKernel &kernel, bool rectify);

    /** Execute max pooling through the comparator circuits. */
    Tensor runMaxPool(const Tensor &in, const nn::MaxPoolLayer &layer);

    /**
     * Quantize through the per-column SAR ADCs and reconstruct to
     * value domain (what the host receives after bit alignment). The
     * ADC full scale is the tensor's own absMax().
     */
    Tensor runQuantization(const Tensor &in);

    /**
     * As above on a given full scale: values in [0, @p full_scale]
     * map onto the ADC range, larger ones clip at its top code.
     */
    Tensor runQuantization(const Tensor &in, double full_scale);

    /** Reprogram the noise admission of the conv modules. */
    void setConvSnrDb(double snr_db);

    /** Reprogram the ADC resolution. */
    void setAdcBits(unsigned bits);

    /**
     * Arm a fault campaign: every subsequent run consults @p faults
     * (one entry per physical column, so the model's column count
     * must match the array's) for faults active at frame index
     * @p frame. Passing nullptr disarms. With no model armed the
     * execution path is bit-identical to pristine silicon — the
     * fault hooks neither draw randomness nor alter any value.
     */
    void armFaults(const fault::FaultModel *faults,
                   std::uint64_t frame = 0);

    /** Armed fault model (nullptr when pristine). */
    const fault::FaultModel *faults() const { return faults_; }

    /**
     * Remap logical output positions onto physical columns: position
     * x is served by column map[x % map.size()] instead of
     * x % columns. The degradation policy uses this to steer work
     * (MACs, buffered samples, comparisons, conversions) off columns
     * the calibration probe flagged dead. An empty map restores the
     * identity mapping.
     */
    void setColumnMap(std::vector<std::size_t> map);

    const std::vector<std::size_t> &columnMap() const { return map_; }

    /** Accrued energy by category since the last reset. */
    EnergyBreakdown energy() const;

    void resetEnergy();

    /** Comparator decisions forced by the metastability timeout. */
    std::size_t forcedDecisions() const;

    const ColumnArrayConfig &config() const { return config_; }

  private:
    /**
     * Per-column comparator and (mismatched) SAR ADC. Every column's
     * are built from the same parameters, so the lane engine decides
     * all lanes on one comparator's constants and accrues each lane
     * to its own column.
     */
    struct Column {
        Column(const ColumnArrayConfig &config,
               const analog::ProcessParams &process, Rng &rng);

        analog::DynamicComparator comparator;
        analog::SarAdc adc;
    };

    /** A logical position's column and its armed faults. */
    struct Port {
        Column *column = nullptr;
        const fault::ColumnFaults *faults = nullptr; ///< nullptr: none
    };

    /**
     * Ports of logical positions [0, @p width), resolved once per
     * run*() call rather than once per element.
     */
    std::vector<Port> portsFor(std::size_t width);

    /** Physical column serving logical position @p x. */
    std::size_t
    physicalFor(std::size_t x) const
    {
        return map_.empty() ? x % cols_.size() : map_[x % map_.size()];
    }

    /**
     * Faults of physical column @p physical active at the armed
     * frame, or nullptr when pristine (or not yet onset).
     */
    const fault::ColumnFaults *activeFaults(std::size_t physical) const;

    /** Per-layer key of the next run*() call's draws. */
    std::uint64_t nextLayerKey() { return keyedLayer(key_, layer_++); }

    ColumnArrayConfig config_;
    analog::ProcessParams process_;
    std::vector<Column> cols_;
    analog::MacUnit mac_;              ///< conv-module parameters
    analog::AnalogMemoryCell buffer_;  ///< buffer-cell parameters
    std::uint64_t key_ = 0;   ///< array key of every keyed draw
    std::uint64_t layer_ = 0; ///< run*() calls so far
    double macJ_ = 0.0;
    double memoryJ_ = 0.0;
    std::vector<std::size_t> map_; ///< logical->physical (empty = id)
    const fault::FaultModel *faults_ = nullptr;
    std::uint64_t faultFrame_ = 0;
};

} // namespace arch
} // namespace redeye

#endif // REDEYE_REDEYE_COLUMN_HH
