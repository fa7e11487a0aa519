#include "reference_engine.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "core/logging.hh"
#include "tensor/kernels.hh"

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

/** What the engine cannot run: batched input, grouped kernels. */
void
checkConvolution(const Tensor &in, const nn::ConvolutionLayer &layer)
{
    fatal_if(in.shape().n != 1,
             "functional engine runs one frame at a time");
    fatal_if(layer.convParams().groups != 1,
             "functional engine does not support grouped convolution");
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

// The scalar keyed engine, as ColumnArray ran it element by element.

ScalarColumnArray::Column::Column(const ColumnArrayConfig &config,
                                  const analog::ProcessParams &process,
                                  Rng &rng)
    : comparator(analog::ComparatorParams{}, process),
      adc(analog::SarAdcParams{}, process, rng)
{
    adc.setResolution(config.adcBits);
}

ScalarColumnArray::ScalarColumnArray(ColumnArrayConfig config,
                                     analog::ProcessParams process,
                                     Rng rng)
    : config_(config), process_(process),
      mac_(analog::MacParams{8, config.weightBits, 20e-15,
                             analog::OpAmpParams{}},
           process),
      buffer_(bufferParamsFor(config.convSnrDb), process)
{
    fatal_if(config_.columns == 0, "column array cannot be empty");
    fatal_if(config_.adcBits < 1 || config_.adcBits > 10,
             "ADC bits must be in [1, 10]");
    mac_.setSnrDb(config_.convSnrDb);
    cols_.reserve(config_.columns);
    for (std::size_t i = 0; i < config_.columns; ++i)
        cols_.emplace_back(config_, process_, rng);
    key_ = rng.raw();
}

void
ScalarColumnArray::setConvSnrDb(double snr_db)
{
    config_.convSnrDb = snr_db;
    mac_.setSnrDb(snr_db);
}

void
ScalarColumnArray::setAdcBits(unsigned bits)
{
    fatal_if(bits < 1 || bits > 10, "ADC bits must be in [1, 10]");
    config_.adcBits = bits;
    for (auto &col : cols_)
        col.adc.setResolution(bits);
}

void
ScalarColumnArray::armFaults(const fault::FaultModel *faults,
                             std::uint64_t frame)
{
    fatal_if(faults && faults->columns() != cols_.size(),
             "fault model covers ", faults ? faults->columns() : 0,
             " columns, array has ", cols_.size());
    faults_ = faults;
    faultFrame_ = frame;
}

void
ScalarColumnArray::setColumnMap(std::vector<std::size_t> map)
{
    for (std::size_t p : map) {
        fatal_if(p >= cols_.size(), "column map entry ", p,
                 " out of range for ", cols_.size(), " columns");
    }
    map_ = std::move(map);
}

const fault::ColumnFaults *
ScalarColumnArray::activeFaults(std::size_t physical) const
{
    if (!faults_)
        return nullptr;
    const fault::ColumnFaults &f = faults_->column(physical);
    return f.activeAt(faultFrame_) ? &f : nullptr;
}

std::vector<ScalarColumnArray::Port>
ScalarColumnArray::portsFor(std::size_t width)
{
    std::vector<Port> ports(width);
    for (std::size_t x = 0; x < width; ++x) {
        const std::size_t physical = physicalFor(x);
        ports[x] = {&cols_[physical], activeFaults(physical)};
    }
    return ports;
}

Tensor
ScalarColumnArray::runConvolution(const Tensor &in,
                                  nn::ConvolutionLayer &layer, bool rectify)
{
    (void)layer.outputShape({in.shape()}); // materialize the weights
    return runConvolution(in, layer,
                          ConvKernel::lower(layer, config_.weightBits),
                          rectify);
}

Tensor
ScalarColumnArray::runConvolution(const Tensor &in,
                                  nn::ConvolutionLayer &layer,
                                  const ConvKernel &kernel, bool rectify)
{
    checkConvolution(in, layer);
    const std::uint64_t layer_key = nextLayerKey();
    const Shape &is = in.shape();
    const Shape os = layer.outputShape({is});
    const auto &p = layer.convParams();
    panic_if(kernel.outC != os.c || kernel.inC != is.c ||
                 kernel.kernelH != p.kernelH ||
                 kernel.kernelW != p.kernelW ||
                 kernel.weightBits != config_.weightBits,
             "lowered kernel does not match layer '", layer.name(),
             "'");

    // Signal conditioning. The controller programs a per-layer gain
    // (feedback-capacitor sizing) so that the accumulated output
    // exercises, but does not exceed, the analog swing; we derive it
    // from the layer's digital reference range, as a calibration
    // pass would.
    const double swing = process_.signalSwing;
    const double in_scale = std::max(1e-12,
                                     static_cast<double>(in.absMax()));
    const int w_max = (1 << (config_.weightBits - 1)) - 1;
    Tensor digital_ref;
    layer.forward({&in}, digital_ref);
    const double out_amax = std::max(
        1e-9, static_cast<double>(digital_ref.absMax()));

    // Input scaling into the MAC such that full-range outputs land
    // at +-swing: out_volts = sum (w_int / 2^(b-1)) * (k * value).
    // volts_per_code folds the 2^(b-1) into k.
    const double volts_per_code =
        kernel.weightScale * swing /
        (static_cast<double>(w_max) * out_amax);
    // The controller's gain calibration divides out the known
    // systematic settling/finite-gain attenuation of the MAC.
    const std::size_t taps = kernel.taps();
    const std::size_t cycles = mac_.cycles(taps);
    const analog::MacWindowModel m = mac_.windowModel();
    const double sys_gain = mac_.systematicGain(taps);
    const double out_factor = out_amax / (swing * sys_gain);

    // Variance terms of one window (DESIGN.md, "Closed-form analog
    // windows"). Sampling and buffer noise enter before the settles
    // and are attenuated by all of them; the k-th of n settles adds
    // op amp noise attenuated by the n-k that follow; the damping
    // cap adds its kT/C at the output.
    const double g2n = sys_gain * sys_gain;
    const double bit_var = m.bitNoiseRms * m.bitNoiseRms / 4.0;
    const double code_volts = in_scale / swing * volts_per_code;
    const double buf_scale = code_volts * code_volts;
    const double write_var =
        buffer_.writeNoiseRms() * buffer_.writeNoiseRms();
    const double read_var = buffer_.params().bufferNoiseRms *
                            buffer_.params().bufferNoiseRms;
    double fixed_var = m.dampNoiseRms * m.dampNoiseRms;
    {
        const double g2 = m.settleGain * m.settleGain;
        double att = 1.0;
        for (std::size_t k = 0; k < cycles; ++k, att *= g2)
            fixed_var += m.opAmpNoiseRms * m.opAmpNoiseRms * att;
    }

    // Buffered samples are bridged from the source column's storage;
    // a leaky cell droops as if the sample had been held extra time,
    // scaling the signal and its write noise alike.
    std::vector<double> droop(is.w, 1.0);
    bool any_droop = false;
    const std::vector<Port> sources = portsFor(is.w);
    for (std::size_t x = 0; x < is.w; ++x) {
        if (const fault::ColumnFaults *sf = sources[x].faults) {
            droop[x] = std::exp(-buffer_.params().droopPerSecond *
                                sf->extraHoldS);
            any_droop |= droop[x] != 1.0;
        }
    }
    const float *image = in.data();
    std::vector<float> drooped;
    if (any_droop) {
        drooped.assign(in.data(), in.data() + in.size());
        for (std::size_t i = 0; i < drooped.size(); ++i)
            drooped[i] = static_cast<float>(drooped[i] *
                                            droop[i % is.w]);
        image = drooped.data();
    }

    // The windows' ideal sums: im2col + one GEMM over the kernel.
    WindowParams wp;
    wp.kernelH = p.kernelH;
    wp.kernelW = p.kernelW;
    wp.strideH = p.strideH;
    wp.strideW = p.strideW;
    wp.padH = p.padH;
    wp.padW = p.padW;
    const std::size_t windows = os.h * os.w;
    std::vector<float> cols(taps * windows);
    kernels::im2col(image, is.c, is.h, is.w, wp, cols.data());
    std::vector<float> dots(os.c * windows);
    kernels::gemm(kernel.matrix.data(), {os.c, taps}, cols.data(),
                  {taps, windows}, dots.data());

    // Kernels realized by columns with a stuck weight bit.
    struct Stuck {
        int bit;
        bool high;
        ConvKernel kernel;
    };
    std::vector<Stuck> stuck;
    auto kernelFor = [&](const fault::ColumnFaults *cf)
        -> const ConvKernel & {
        if (!cf || cf->weightStuckBit < 0)
            return kernel;
        for (const Stuck &s : stuck) {
            if (s.bit == cf->weightStuckBit &&
                s.high == cf->weightStuckHigh)
                return s.kernel;
        }
        stuck.push_back({cf->weightStuckBit, cf->weightStuckHigh,
                         kernel.withStuckBit(cf->weightStuckBit,
                                             cf->weightStuckHigh)});
        return stuck.back().kernel;
    };

    const std::size_t positions = p.kernelH * p.kernelW;
    const std::vector<Port> ports = portsFor(os.w);
    std::vector<double> buf_weight(positions);
    double mac_bits = 0.0;
    std::size_t mem_taps = 0;
    Tensor out(Shape(1, os.c, os.h, os.w));
    float *dst = out.data();
    for (std::size_t oy = 0; oy < os.h; ++oy) {
        for (std::size_t ox = 0; ox < os.w; ++ox) {
            const std::size_t win = oy * os.w + ox;
            const fault::ColumnFaults *cf = ports[ox].faults;
            const ConvKernel &k = kernelFor(cf);

            // Buffer noise weight of each kernel position: zero off
            // the image, droop-scaled write noise plus read noise on
            // it. `plain` windows take the precomputed channel sum.
            std::size_t in_bounds = 0;
            bool plain = true;
            for (std::size_t ky = 0; ky < p.kernelH; ++ky) {
                const long iy = static_cast<long>(oy * p.strideH + ky) -
                                static_cast<long>(p.padH);
                for (std::size_t kx = 0; kx < p.kernelW; ++kx) {
                    const long ix =
                        static_cast<long>(ox * p.strideW + kx) -
                        static_cast<long>(p.padW);
                    double &bw = buf_weight[ky * p.kernelW + kx];
                    if (iy < 0 || iy >= static_cast<long>(is.h) ||
                        ix < 0 || ix >= static_cast<long>(is.w)) {
                        bw = 0.0;
                        plain = false;
                        continue;
                    }
                    const double d = droop[static_cast<std::size_t>(ix)];
                    bw = d * d * write_var + read_var;
                    plain &= d == 1.0;
                    ++in_bounds;
                }
            }
            mem_taps += in_bounds * is.c;

            for (std::size_t oc = 0; oc < os.c; ++oc) {
                double dot;
                if (&k == &kernel) {
                    dot = dots[oc * windows + win];
                } else {
                    dot = 0.0;
                    for (std::size_t t = 0; t < taps; ++t) {
                        dot += static_cast<double>(
                                   k.matrix[oc * taps + t]) *
                               cols[t * windows + win];
                    }
                }
                double buf_sum;
                if (plain) {
                    buf_sum = k.codeSqTotal[oc] * (write_var + read_var);
                } else {
                    buf_sum = 0.0;
                    for (std::size_t q = 0; q < positions; ++q)
                        buf_sum += k.codeSq[oc * positions + q] *
                                   buf_weight[q];
                }
                mac_bits += k.activeBits[oc];
                const double var =
                    g2n * (bit_var * k.bitNoise[oc] +
                           buf_scale * buf_sum) +
                    fixed_var;
                const std::size_t element = oc * windows + win;
                KeyedRng rng(layer_key, element);
                double volts = sys_gain * volts_per_code * dot +
                               std::sqrt(var) * rng.normal();
                if (p.bias)
                    volts += layer.biases()[oc] / out_factor;
                if (cf) {
                    volts += cf->offsetV;
                    if (cf->dead) {
                        // Railed op amp: the column always reports
                        // full positive swing. Its MAC still ran and
                        // burned energy.
                        volts = swing;
                    }
                }
                // Physical clipping at the signal swing; rectified
                // layers clip at zero as well (folded ReLU).
                volts = std::clamp(volts, rectify ? 0.0 : -swing,
                                   swing);
                dst[element] = static_cast<float>(volts * out_factor);
            }
        }
    }
    macJ_ += mac_bits * m.bitEnergyJ +
             static_cast<double>(windows * os.c * cycles) *
                 m.cycleEnergyJ;
    memoryJ_ += static_cast<double>(mem_taps * os.c) *
                (buffer_.writeEnergy() + buffer_.readEnergy());
    return out;
}

Tensor
ScalarColumnArray::runMaxPool(const Tensor &in,
                              const nn::MaxPoolLayer &layer)
{
    const Shape &is = in.shape();
    fatal_if(is.n != 1, "functional engine runs one frame at a time");
    const std::uint64_t layer_key = nextLayerKey();
    const Shape os = layer.outputShape({is});
    const auto &p = layer.poolParams();

    const double swing = process_.signalSwing;
    const double in_scale = std::max(1e-12,
                                     static_cast<double>(in.absMax()));
    const std::vector<Port> ports = portsFor(os.w);

    // In-bounds input range [lo, hi) of output coordinate o's window.
    struct Span {
        std::size_t lo, hi;
    };
    auto span = [&](std::size_t o, std::size_t extent) {
        const long first = static_cast<long>(o * p.stride) -
                           static_cast<long>(p.pad);
        const long last = first + static_cast<long>(p.kernel);
        return Span{static_cast<std::size_t>(std::max(0L, first)),
                    static_cast<std::size_t>(std::clamp(
                        last, 0L, static_cast<long>(extent)))};
    };

    Tensor out(Shape(1, os.c, os.h, os.w));
    float *dst = out.data();
    std::size_t element = 0;
    for (std::size_t oc = 0; oc < os.c; ++oc) {
        const float *plane = in.data() + oc * is.h * is.w;
        for (std::size_t oy = 0; oy < os.h; ++oy) {
            const Span ys = span(oy, is.h);
            for (std::size_t ox = 0; ox < os.w; ++ox, ++element) {
                const Port &port = ports[ox];
                const fault::ColumnFaults *cf = port.faults;
                analog::DynamicComparator &cmp = port.column->comparator;
                const Span xs = span(ox, is.w);
                KeyedRng rng(layer_key, element);
                bool have = false;
                double best = 0.0;
                for (std::size_t iy = ys.lo; iy < ys.hi; ++iy) {
                    const float *row = plane + iy * is.w;
                    for (std::size_t ix = xs.lo; ix < xs.hi; ++ix) {
                        const double v = row[ix] / in_scale * swing;
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
                        best = cmp.compare(seen, best, rng).aGreater
                                   ? v
                                   : best;
                    }
                }
                if (cf && cf->dead)
                    best = swing; // railed column
                dst[element] = static_cast<float>(best * in_scale /
                                                  swing);
            }
        }
    }
    return out;
}

Tensor
ScalarColumnArray::runQuantization(const Tensor &in)
{
    // Rectified features are non-negative; map [0, max] onto the ADC
    // range [0, vref].
    return runQuantization(in, static_cast<double>(in.absMax()));
}

Tensor
ScalarColumnArray::runQuantization(const Tensor &in, double full_scale)
{
    const Shape &is = in.shape();
    fatal_if(is.n != 1, "functional engine runs one frame at a time");
    const std::uint64_t layer_key = nextLayerKey();

    const double in_max = std::max(1e-12, full_scale);
    const std::vector<Port> ports = portsFor(is.w);
    Tensor out(is);
    const float *src = in.data();
    float *dst = out.data();
    const std::size_t rows = is.c * is.h;
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t x = 0; x < is.w; ++x) {
            const std::size_t element = r * is.w + x;
            const fault::ColumnFaults *cf = ports[x].faults;
            analog::SarAdc &adc = ports[x].column->adc;
            const double v =
                std::max(0.0, static_cast<double>(src[element]));
            double volts = v / in_max * adc.vref();
            if (cf && cf->dead)
                volts = adc.vref(); // railed input
            KeyedRng rng(layer_key, element);
            auto code = adc.convert(volts, rng);
            if (cf && cf->adcStuckBit >= 0 &&
                cf->adcStuckBit < static_cast<int>(adc.resolution())) {
                // Frozen SAR bit. Only bits the programmed resolution
                // keeps in the array can stick; a stuck capacitor
                // among the cut-off bits is harmless.
                const std::uint32_t mask = 1u << cf->adcStuckBit;
                code = cf->adcStuckHigh ? (code | mask) : (code & ~mask);
            }
            dst[element] = static_cast<float>(
                adc.reconstruct(code) / adc.vref() * in_max);
        }
    }
    return out;
}

EnergyBreakdown
ScalarColumnArray::energy() const
{
    EnergyBreakdown e;
    e.macJ = macJ_;
    e.memoryJ = memoryJ_;
    for (const auto &col : cols_) {
        e.comparatorJ += col.comparator.energyJ();
        e.readoutJ += col.adc.energyJ();
    }
    return e;
}

void
ScalarColumnArray::resetEnergy()
{
    macJ_ = 0.0;
    memoryJ_ = 0.0;
    for (auto &col : cols_) {
        col.comparator.resetEnergy();
        col.adc.resetEnergy();
    }
}

std::size_t
ScalarColumnArray::forcedDecisions() const
{
    std::size_t total = 0;
    for (const auto &col : cols_)
        total += col.comparator.forcedCount();
    return total;
}

} // namespace arch
} // namespace redeye
