/**
 * @file
 * Test-only per-tap reference for the functional column engine. Same
 * interface and fault hooks as ColumnArray; every noise term is drawn
 * separately, in execution order, from one sequential Rng.
 */

#ifndef REDEYE_TESTS_REDEYE_REFERENCE_ENGINE_HH
#define REDEYE_TESTS_REDEYE_REFERENCE_ENGINE_HH

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
#include "redeye/column.hh"
#include "redeye/energy_model.hh"
#include "tensor/tensor.hh"

namespace redeye {
namespace arch {

/**
 * The per-tap engine: every buffer write and read, every weight bit
 * of every tap and every op amp settle is simulated and draws from
 * one sequential Rng. ColumnArray replaces it with one exact Gaussian
 * per window and keyed draws; the equivalence tests hold the two to
 * the same distribution and the same MAC and memory energy.
 */
class ReferenceColumnArray
{
  public:
    ReferenceColumnArray(ColumnArrayConfig config,
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

    /** Execute max pooling through the comparator circuits. */
    Tensor runMaxPool(const Tensor &in, const nn::MaxPoolLayer &layer);

    /**
     * Quantize through the per-column SAR ADCs and reconstruct to
     * value domain (what the host receives after bit alignment).
     */
    Tensor runQuantization(const Tensor &in);

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
    /** Per-column circuit instances. */
    struct Column {
        Column(const ColumnArrayConfig &config,
               const analog::ProcessParams &process, Rng &rng);

        analog::MacUnit mac;
        analog::AnalogMemoryCell buffer;
        analog::DynamicComparator comparator;
        analog::SarAdc adc;
    };

    /** Physical column serving logical position @p x. */
    std::size_t
    physicalFor(std::size_t x) const
    {
        return map_.empty() ? x % cols_.size() : map_[x % map_.size()];
    }

    Column &columnFor(std::size_t x) { return cols_[physicalFor(x)]; }

    /**
     * Faults of physical column @p physical active at the armed
     * frame, or nullptr when pristine (or not yet onset).
     */
    const fault::ColumnFaults *activeFaults(std::size_t physical) const;

    ColumnArrayConfig config_;
    analog::ProcessParams process_;
    Rng rng_;
    std::vector<Column> cols_;
    std::vector<std::size_t> map_; ///< logical->physical (empty = id)
    const fault::FaultModel *faults_ = nullptr;
    std::uint64_t faultFrame_ = 0;
};

/**
 * The scalar keyed engine: ColumnArray as it was before the lane
 * engine, settling one output element at a time. It draws from the
 * same KeyedRng streams, so ColumnArray must reproduce its features
 * and forced counts bit for bit, and its realized energies up to
 * rounding.
 */
class ScalarColumnArray
{
  public:
    ScalarColumnArray(ColumnArrayConfig config,
                      analog::ProcessParams process, Rng rng);

    /** Lower @p layer's kernel, then run it (ColumnArray's overload). */
    Tensor runConvolution(const Tensor &in,
                          nn::ConvolutionLayer &layer, bool rectify);

    Tensor runConvolution(const Tensor &in,
                          nn::ConvolutionLayer &layer,
                          const ConvKernel &kernel, bool rectify);

    Tensor runMaxPool(const Tensor &in, const nn::MaxPoolLayer &layer);

    Tensor runQuantization(const Tensor &in);

    Tensor runQuantization(const Tensor &in, double full_scale);

    void setConvSnrDb(double snr_db);

    void setAdcBits(unsigned bits);

    void armFaults(const fault::FaultModel *faults,
                   std::uint64_t frame = 0);

    void setColumnMap(std::vector<std::size_t> map);

    EnergyBreakdown energy() const;

    void resetEnergy();

    std::size_t forcedDecisions() const;

  private:
    struct Column {
        Column(const ColumnArrayConfig &config,
               const analog::ProcessParams &process, Rng &rng);

        analog::DynamicComparator comparator;
        analog::SarAdc adc;
    };

    struct Port {
        Column *column = nullptr;
        const fault::ColumnFaults *faults = nullptr; ///< nullptr: none
    };

    std::vector<Port> portsFor(std::size_t width);

    std::size_t
    physicalFor(std::size_t x) const
    {
        return map_.empty() ? x % cols_.size() : map_[x % map_.size()];
    }

    const fault::ColumnFaults *activeFaults(std::size_t physical) const;

    std::uint64_t nextLayerKey() { return keyedLayer(key_, layer_++); }

    ColumnArrayConfig config_;
    analog::ProcessParams process_;
    std::vector<Column> cols_;
    analog::MacUnit mac_;
    analog::AnalogMemoryCell buffer_;
    std::uint64_t key_ = 0;
    std::uint64_t layer_ = 0;
    double macJ_ = 0.0;
    double memoryJ_ = 0.0;
    std::vector<std::size_t> map_;
    const fault::FaultModel *faults_ = nullptr;
    std::uint64_t faultFrame_ = 0;
};

} // namespace arch
} // namespace redeye

#endif // REDEYE_TESTS_REDEYE_REFERENCE_ENGINE_HH
