#include "reference_engine.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "core/logging.hh"

namespace redeye {
namespace arch {

namespace {

analog::MemoryCellParams
bufferParamsFor(double snr_db)
{
    analog::MemoryCellParams p;
    p.holdCapF = analog::dampingCapForSnr(snr_db);
    // The read buffer is sized with the rest of the fidelity mode:
    // its noise is kT/C-limited too.
    p.bufferNoiseRms *= std::sqrt(analog::kAnchorDampingCapF /
                                  p.holdCapF);
    return p;
}

} // namespace

ReferenceColumnArray::Column::Column(const ColumnArrayConfig &config,
                            const analog::ProcessParams &process,
                            Rng &rng)
    : mac(analog::MacParams{8, config.weightBits, 20e-15,
                            analog::OpAmpParams{}},
          process),
      buffer(bufferParamsFor(config.convSnrDb), process),
      comparator(analog::ComparatorParams{}, process),
      adc(analog::SarAdcParams{}, process, rng)
{
    mac.setSnrDb(config.convSnrDb);
    adc.setResolution(config.adcBits);
}

ReferenceColumnArray::ReferenceColumnArray(ColumnArrayConfig config,
                         analog::ProcessParams process, Rng rng)
    : config_(config), process_(process), rng_(rng)
{
    fatal_if(config_.columns == 0, "column array cannot be empty");
    fatal_if(config_.adcBits < 1 || config_.adcBits > 10,
             "ADC bits must be in [1, 10]");
    cols_.reserve(config_.columns);
    for (std::size_t i = 0; i < config_.columns; ++i)
        cols_.emplace_back(config_, process_, rng_);
}

void
ReferenceColumnArray::setConvSnrDb(double snr_db)
{
    config_.convSnrDb = snr_db;
    for (auto &col : cols_)
        col.mac.setSnrDb(snr_db);
}

void
ReferenceColumnArray::setAdcBits(unsigned bits)
{
    fatal_if(bits < 1 || bits > 10, "ADC bits must be in [1, 10]");
    config_.adcBits = bits;
    for (auto &col : cols_)
        col.adc.setResolution(bits);
}

void
ReferenceColumnArray::armFaults(const fault::FaultModel *faults,
                       std::uint64_t frame)
{
    fatal_if(faults && faults->columns() != cols_.size(),
             "fault model covers ", faults ? faults->columns() : 0,
             " columns, array has ", cols_.size());
    faults_ = faults;
    faultFrame_ = frame;
}

void
ReferenceColumnArray::setColumnMap(std::vector<std::size_t> map)
{
    for (std::size_t p : map) {
        fatal_if(p >= cols_.size(), "column map entry ", p,
                 " out of range for ", cols_.size(), " columns");
    }
    map_ = std::move(map);
}

const fault::ColumnFaults *
ReferenceColumnArray::activeFaults(std::size_t physical) const
{
    if (!faults_)
        return nullptr;
    const fault::ColumnFaults &f = faults_->column(physical);
    return f.activeAt(faultFrame_) ? &f : nullptr;
}

Tensor
ReferenceColumnArray::runConvolution(const Tensor &in,
                            nn::ConvolutionLayer &layer, bool rectify)
{
    const Shape &is = in.shape();
    fatal_if(is.n != 1, "functional engine runs one frame at a time");
    const Shape os = layer.outputShape({is});
    const auto &p = layer.convParams();
    fatal_if(p.groups != 1,
             "functional engine does not support grouped convolution");

    // Signal conditioning. The controller programs a per-layer gain
    // (feedback-capacitor sizing) so that the accumulated output
    // exercises, but does not exceed, the analog swing; we derive it
    // from the layer's digital reference range, as a calibration
    // pass would.
    const double swing = process_.signalSwing;
    const double in_scale = std::max(1e-12,
                                     static_cast<double>(in.absMax()));
    const Tensor &w = layer.weights();
    const double w_scale = std::max(
        1e-12, static_cast<double>(w.absMax()));
    const int w_max = (1 << (config_.weightBits - 1)) - 1;

    // Pre-quantize the kernel to integers.
    std::vector<int> wq(w.size());
    for (std::size_t i = 0; i < w.size(); ++i) {
        wq[i] = static_cast<int>(
            std::lround(w[i] / w_scale * static_cast<double>(w_max)));
    }

    // Output range estimate (value domain) for the gain setting.
    Tensor digital_ref;
    layer.forward({&in}, digital_ref);
    const double out_amax = std::max(
        1e-9, static_cast<double>(digital_ref.absMax()));

    // Input scaling into the MAC such that full-range outputs land
    // at +-swing: out_volts = sum (w_int / 2^(b-1)) * (k * value).
    const double denom = static_cast<double>(1 << (config_.weightBits -
                                                   1));
    const double k_in = denom * w_scale * swing /
                        (static_cast<double>(w_max) * out_amax);
    // The controller's gain calibration divides out the known
    // systematic settling/finite-gain attenuation of the MAC.
    const std::size_t taps = is.c * p.kernelH * p.kernelW;
    const double sys_gain =
        cols_.front().mac.systematicGain(taps);
    const double out_factor = out_amax / (swing * sys_gain);

    Tensor out(Shape(1, os.c, os.h, os.w));
    std::vector<double> window;
    std::vector<int> weights;
    window.reserve(taps);
    weights.reserve(taps);

    for (std::size_t oy = 0; oy < os.h; ++oy) {
        for (std::size_t ox = 0; ox < os.w; ++ox) {
            const std::size_t pcol = physicalFor(ox);
            Column &col = cols_[pcol];
            const fault::ColumnFaults *cf = activeFaults(pcol);
            for (std::size_t oc = 0; oc < os.c; ++oc) {
                window.clear();
                weights.clear();
                for (std::size_t ic = 0; ic < is.c; ++ic) {
                    for (std::size_t ky = 0; ky < p.kernelH; ++ky) {
                        const long iy = static_cast<long>(
                                            oy * p.strideH + ky) -
                                        static_cast<long>(p.padH);
                        for (std::size_t kx = 0; kx < p.kernelW;
                             ++kx) {
                            const long ix = static_cast<long>(
                                                ox * p.strideW + kx) -
                                            static_cast<long>(p.padW);
                            double v = 0.0;
                            if (iy >= 0 &&
                                iy < static_cast<long>(is.h) &&
                                ix >= 0 &&
                                ix < static_cast<long>(is.w)) {
                                // Buffered sample, bridged from the
                                // neighboring column's storage; the
                                // buffer holds full-swing samples.
                                // A leaky cell droops as if the
                                // sample had been held extra time.
                                const std::size_t psrc = physicalFor(
                                    static_cast<std::size_t>(ix));
                                Column &src = cols_[psrc];
                                const fault::ColumnFaults *sf =
                                    activeFaults(psrc);
                                const double value = in.at(
                                    0, ic,
                                    static_cast<std::size_t>(iy),
                                    static_cast<std::size_t>(ix));
                                src.buffer.write(
                                    value / in_scale * swing, rng_);
                                v = src.buffer.read(
                                        rng_,
                                        sf ? sf->extraHoldS : 0.0) *
                                    in_scale / swing;
                            }
                            window.push_back(v * k_in);
                            weights.push_back(
                                wq[w.shape().index(oc, ic, ky, kx)]);
                        }
                    }
                }
                if (cf && cf->weightStuckBit >= 0) {
                    // Stuck capacitor bit in this column's weight
                    // bank: the magnitude bit is forced for every
                    // weight the bank realizes.
                    const int bit = cf->weightStuckBit;
                    for (int &wv : weights) {
                        int mag = std::abs(wv);
                        if (cf->weightStuckHigh)
                            mag |= 1 << bit;
                        else
                            mag &= ~(1 << bit);
                        wv = wv < 0 ? -mag : mag;
                    }
                }
                double volts = col.mac.multiplyAccumulate(window,
                                                          weights,
                                                          rng_);
                if (p.bias)
                    volts += layer.biases()[oc] / out_factor;
                if (cf) {
                    volts += cf->offsetV;
                    if (cf->dead) {
                        // Railed op amp: the column always reports
                        // full positive swing. The MAC above still
                        // ran (it burns energy and consumes its
                        // noise draws), keeping healthy columns
                        // bit-identical to a fault-free run.
                        volts = swing;
                    }
                }
                // Physical clipping at the signal swing; rectified
                // layers clip at zero as well (folded ReLU).
                volts = std::clamp(volts, rectify ? 0.0 : -swing,
                                   swing);
                out.at(0, oc, oy, ox) =
                    static_cast<float>(volts * out_factor);
            }
        }
    }
    return out;
}

Tensor
ReferenceColumnArray::runMaxPool(const Tensor &in,
                                 const nn::MaxPoolLayer &layer)
{
    const Shape &is = in.shape();
    fatal_if(is.n != 1, "functional engine runs one frame at a time");
    const Shape os = layer.outputShape({is});
    const auto &p = layer.poolParams();

    const double swing = process_.signalSwing;
    const double in_scale = std::max(1e-12,
                                     static_cast<double>(in.absMax()));

    Tensor out(Shape(1, os.c, os.h, os.w));
    for (std::size_t oc = 0; oc < os.c; ++oc) {
        for (std::size_t oy = 0; oy < os.h; ++oy) {
            for (std::size_t ox = 0; ox < os.w; ++ox) {
                const std::size_t pcol = physicalFor(ox);
                Column &col = cols_[pcol];
                const fault::ColumnFaults *cf = activeFaults(pcol);
                bool have = false;
                double best = 0.0;
                for (std::size_t ky = 0; ky < p.kernel; ++ky) {
                    const long iy = static_cast<long>(oy * p.stride +
                                                      ky) -
                                    static_cast<long>(p.pad);
                    if (iy < 0 || iy >= static_cast<long>(is.h))
                        continue;
                    for (std::size_t kx = 0; kx < p.kernel; ++kx) {
                        const long ix = static_cast<long>(
                                            ox * p.stride + kx) -
                                        static_cast<long>(p.pad);
                        if (ix < 0 || ix >= static_cast<long>(is.w))
                            continue;
                        double v =
                            in.at(0, oc,
                                  static_cast<std::size_t>(iy),
                                  static_cast<std::size_t>(ix)) /
                            in_scale * swing;
                        if (!have) {
                            best = v;
                            have = true;
                            continue;
                        }
                        // Input-referred latch offset: the decision
                        // sees the challenger shifted, but the
                        // routed signal itself is unshifted.
                        const double seen =
                            cf ? v + cf->comparatorOffsetV : v;
                        const auto d = col.comparator.compare(seen,
                                                              best,
                                                              rng_);
                        best = d.aGreater ? v : best;
                    }
                }
                if (cf && cf->dead)
                    best = swing; // railed column
                out.at(0, oc, oy, ox) = static_cast<float>(
                    best * in_scale / swing);
            }
        }
    }
    return out;
}

Tensor
ReferenceColumnArray::runQuantization(const Tensor &in)
{
    const Shape &is = in.shape();
    fatal_if(is.n != 1, "functional engine runs one frame at a time");

    // Rectified features are non-negative; map [0, max] onto the ADC
    // range [0, vref].
    const double in_max = std::max(1e-12,
                                   static_cast<double>(in.absMax()));
    Tensor out(is);
    for (std::size_t c = 0; c < is.c; ++c) {
        for (std::size_t y = 0; y < is.h; ++y) {
            for (std::size_t x = 0; x < is.w; ++x) {
                const std::size_t pcol = physicalFor(x);
                Column &col = cols_[pcol];
                const fault::ColumnFaults *cf = activeFaults(pcol);
                const double v = std::max(
                    0.0, static_cast<double>(in.at(0, c, y, x)));
                double volts = v / in_max * col.adc.vref();
                if (cf && cf->dead)
                    volts = col.adc.vref(); // railed input
                auto code = col.adc.convert(volts, rng_);
                if (cf && cf->adcStuckBit >= 0 &&
                    cf->adcStuckBit <
                        static_cast<int>(col.adc.resolution())) {
                    // Frozen SAR bit. Only bits the programmed
                    // resolution keeps in the array can stick; a
                    // stuck capacitor among the cut-off bits is
                    // harmless.
                    const std::uint32_t mask =
                        1u << cf->adcStuckBit;
                    code = cf->adcStuckHigh ? (code | mask)
                                            : (code & ~mask);
                }
                out.at(0, c, y, x) = static_cast<float>(
                    col.adc.reconstruct(code) / col.adc.vref() *
                    in_max);
            }
        }
    }
    return out;
}

EnergyBreakdown
ReferenceColumnArray::energy() const
{
    EnergyBreakdown e;
    for (const auto &col : cols_) {
        e.macJ += col.mac.energyJ();
        e.memoryJ += col.buffer.energyJ();
        e.comparatorJ += col.comparator.energyJ();
        e.readoutJ += col.adc.energyJ();
    }
    return e;
}

void
ReferenceColumnArray::resetEnergy()
{
    for (auto &col : cols_) {
        col.mac.resetEnergy();
        col.buffer.resetEnergy();
        col.comparator.resetEnergy();
        col.adc.resetEnergy();
    }
}

std::size_t
ReferenceColumnArray::forcedDecisions() const
{
    std::size_t total = 0;
    for (const auto &col : cols_)
        total += col.comparator.forcedCount();
    return total;
}

} // namespace arch
} // namespace redeye
