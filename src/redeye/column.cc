#include "redeye/column.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <deque>

#include "core/logging.hh"
#include "tensor/kernels.hh"

namespace redeye {
namespace arch {

namespace {

/** kLanes output features, as the array stores them. */
using LaneFloats =
    float __attribute__((vector_size(kLanes * sizeof(float))));

/** The kLanes values from @p v on. */
template <class Lanes, class T>
void
loadLanes(const T *v, Lanes &x)
{
    static_assert(sizeof x == kLanes * sizeof *v);
    std::memcpy(&x, v, sizeof x);
}

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

/** Derive the float operand and per-channel sums from the codes. */
void
finishKernel(ConvKernel &k)
{
    const std::size_t taps = k.taps();
    const std::size_t positions = k.kernelH * k.kernelW;
    const unsigned mask = (1u << k.weightBits) - 1u;
    // Noise power of magnitude bit b: the tunable capacitor
    // attenuates bit b, and the kT/C0 it sampled, by 2^(bits-1-b).
    std::vector<double> bit_power(k.weightBits);
    for (unsigned b = 0; b < k.weightBits; ++b) {
        bit_power[b] =
            std::ldexp(1.0, -2 * static_cast<int>(k.weightBits - 1 - b));
    }
    k.matrix.resize(k.codes.size());
    k.bitNoise.assign(k.outC, 0.0);
    k.activeBits.assign(k.outC, 0.0);
    k.codeSq.assign(k.outC * positions, 0.0);
    k.codeSqTotal.assign(k.outC, 0.0);
    for (std::size_t oc = 0; oc < k.outC; ++oc) {
        for (std::size_t t = 0; t < taps; ++t) {
            const int code = k.codes[oc * taps + t];
            k.matrix[oc * taps + t] = static_cast<float>(code);
            // The tunable capacitor samples only the bits it has.
            const unsigned mag =
                static_cast<unsigned>(std::abs(code)) & mask;
            k.activeBits[oc] += std::popcount(mag);
            for (unsigned m = mag; m; m &= m - 1)
                k.bitNoise[oc] += bit_power[std::countr_zero(m)];
            const double sq = static_cast<double>(code) * code;
            k.codeSq[oc * positions + t % positions] += sq;
            k.codeSqTotal[oc] += sq;
        }
    }
}

} // namespace

ConvKernel
ConvKernel::lower(const nn::ConvolutionLayer &layer,
                  unsigned weight_bits)
{
    const Tensor &w = layer.weights();
    const Shape &ws = w.shape();
    ConvKernel k;
    k.outC = ws.n;
    k.inC = ws.c;
    k.kernelH = ws.h;
    k.kernelW = ws.w;
    k.weightBits = weight_bits;
    k.weightScale = std::max(1e-12, static_cast<double>(w.absMax()));
    const int w_max = (1 << (weight_bits - 1)) - 1;
    k.codes.resize(w.size());
    for (std::size_t i = 0; i < w.size(); ++i) {
        k.codes[i] = static_cast<int>(std::lround(
            w[i] / k.weightScale * static_cast<double>(w_max)));
    }
    finishKernel(k);
    return k;
}

ConvKernel
ConvKernel::withStuckBit(int bit, bool high) const
{
    ConvKernel k = *this;
    for (int &code : k.codes) {
        int mag = std::abs(code);
        if (high)
            mag |= 1 << bit;
        else
            mag &= ~(1 << bit);
        code = code < 0 ? -mag : mag;
    }
    finishKernel(k);
    return k;
}

ColumnArray::Column::Column(const ColumnArrayConfig &config,
                            const analog::ProcessParams &process,
                            Rng &rng)
    : comparator(analog::ComparatorParams{}, process),
      adc(analog::SarAdcParams{}, process, rng)
{
    adc.setResolution(config.adcBits);
}

ColumnArray::ColumnArray(ColumnArrayConfig config,
                         analog::ProcessParams process, Rng rng)
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
ColumnArray::setConvSnrDb(double snr_db)
{
    config_.convSnrDb = snr_db;
    mac_.setSnrDb(snr_db);
}

void
ColumnArray::setAdcBits(unsigned bits)
{
    fatal_if(bits < 1 || bits > 10, "ADC bits must be in [1, 10]");
    config_.adcBits = bits;
    for (auto &col : cols_)
        col.adc.setResolution(bits);
}

void
ColumnArray::armFaults(const fault::FaultModel *faults,
                       std::uint64_t frame)
{
    fatal_if(faults && faults->columns() != cols_.size(),
             "fault model covers ", faults ? faults->columns() : 0,
             " columns, array has ", cols_.size());
    faults_ = faults;
    faultFrame_ = frame;
}

void
ColumnArray::setColumnMap(std::vector<std::size_t> map)
{
    for (std::size_t p : map) {
        fatal_if(p >= cols_.size(), "column map entry ", p,
                 " out of range for ", cols_.size(), " columns");
    }
    map_ = std::move(map);
}

const fault::ColumnFaults *
ColumnArray::activeFaults(std::size_t physical) const
{
    if (!faults_)
        return nullptr;
    const fault::ColumnFaults &f = faults_->column(physical);
    return f.activeAt(faultFrame_) ? &f : nullptr;
}

std::vector<ColumnArray::Port>
ColumnArray::portsFor(std::size_t width)
{
    std::vector<Port> ports(width);
    for (std::size_t x = 0; x < width; ++x) {
        const std::size_t physical = physicalFor(x);
        ports[x] = {&cols_[physical], activeFaults(physical)};
    }
    return ports;
}

Tensor
ColumnArray::runConvolution(const Tensor &in,
                            nn::ConvolutionLayer &layer, bool rectify)
{
    (void)layer.outputShape({in.shape()}); // materialize the weights
    return runConvolution(in, layer,
                          ConvKernel::lower(layer, config_.weightBits),
                          rectify);
}

Tensor
ColumnArray::runConvolution(const Tensor &in,
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

    // Element e = oc * windows + win. The lanes settle kLanes
    // adjacent elements at a time: adjacent windows of one output
    // channel, whose draws, sums and outputs are adjacent too. The
    // arrays pad one lane group, so a group never reads past them.
    const std::size_t elements = os.c * windows;
    std::vector<float> dots(elements + kLanes);
    kernels::gemm(kernel.matrix.data(), {os.c, taps}, cols.data(),
                  {taps, windows}, dots.data());
    std::vector<double> noises(elements + kLanes);
    KeyedLanes::firstNormals(layer_key, elements, noises.data());

    // Kernels realized by columns with a stuck weight bit; a deque
    // keeps them in place as they turn up.
    struct Stuck {
        int bit;
        bool high;
        ConvKernel kernel;
        double activeBits; ///< set weight bits over all channels
    };
    std::deque<Stuck> stuck;
    auto activeBits = [&](const ConvKernel &k) {
        double bits = 0.0;
        for (std::size_t oc = 0; oc < os.c; ++oc)
            bits += k.activeBits[oc];
        return bits;
    };
    const double kernel_bits = activeBits(kernel);

    // The noise variance of element (oc, win) under kernel k, from
    // the buffer noise weights of the window's kernel positions.
    const std::size_t positions = p.kernelH * p.kernelW;
    std::vector<double> buf_weight(positions);
    auto variance = [&](const ConvKernel &k, std::size_t oc,
                        bool plain) {
        double buf_sum;
        if (plain) {
            buf_sum = k.codeSqTotal[oc] * (write_var + read_var);
        } else {
            buf_sum = 0.0;
            for (std::size_t q = 0; q < positions; ++q)
                buf_sum += k.codeSq[oc * positions + q] * buf_weight[q];
        }
        return g2n * (bit_var * k.bitNoise[oc] + buf_scale * buf_sum) +
               fixed_var;
    };

    // Every element's noise rms. A plain window's (all taps on the
    // image, none drooped) is a constant of the channel; the others
    // are summed kLanes channels at a time, from the kernel's codeSq
    // laid out position-major so that a group's channels sit side by
    // side.
    const std::size_t padded = (os.c + kLanes - 1) / kLanes * kLanes;
    std::vector<double> sigmas(elements + kLanes);
    std::vector<double> code_sq(positions * padded, 0.0);
    std::vector<double> bit_noise(padded, 0.0);
    for (std::size_t oc = 0; oc < os.c; ++oc) {
        const double plain_sigma = std::sqrt(variance(kernel, oc, true));
        std::fill_n(&sigmas[oc * windows], windows, plain_sigma);
        bit_noise[oc] = kernel.bitNoise[oc];
        for (std::size_t q = 0; q < positions; ++q)
            code_sq[q * padded + oc] = kernel.codeSq[oc * positions + q];
    }

    // Per window: its buffer noise, its realized kernel and its fault
    // hooks, as lane masks where they select.
    const std::vector<Port> ports = portsFor(os.w);
    const std::size_t span = windows + kLanes;
    std::vector<std::uint64_t> faulted(span, 0), dead(span, 0);
    std::vector<double> offset(span, 0.0);
    std::vector<const ConvKernel *> realized(windows, &kernel);
    bool any_stuck = false, any_fault = false;
    double mac_bits = 0.0; // set weight bits over all elements (exact)
    std::size_t mem_taps = 0;
    for (std::size_t oy = 0; oy < os.h; ++oy) {
        for (std::size_t ox = 0; ox < os.w; ++ox) {
            const std::size_t win = oy * os.w + ox;
            const fault::ColumnFaults *cf = ports[ox].faults;
            const ConvKernel *k = &kernel;
            if (cf) {
                any_fault = true;
                faulted[win] = ~std::uint64_t{0};
                offset[win] = cf->offsetV;
                // Railed op amp: the column always reports full
                // positive swing. Its MAC still ran and burned energy.
                dead[win] = cf->dead ? ~std::uint64_t{0} : 0;
            }
            if (cf && cf->weightStuckBit >= 0) {
                const Stuck *s = nullptr;
                for (const Stuck &t : stuck) {
                    if (t.bit == cf->weightStuckBit &&
                        t.high == cf->weightStuckHigh)
                        s = &t;
                }
                if (!s) {
                    ConvKernel lowered = kernel.withStuckBit(
                        cf->weightStuckBit, cf->weightStuckHigh);
                    const double bits = activeBits(lowered);
                    s = &stuck.emplace_back(
                        Stuck{cf->weightStuckBit, cf->weightStuckHigh,
                              std::move(lowered), bits});
                }
                k = realized[win] = &s->kernel;
                mac_bits += s->activeBits;
                any_stuck = true;
            } else {
                mac_bits += kernel_bits;
            }

            // Buffer noise weight of each kernel position: zero off
            // the image, droop-scaled write noise plus read noise on
            // it.
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
            if (k != &kernel) {
                for (std::size_t oc = 0; oc < os.c; ++oc) {
                    sigmas[oc * windows + win] =
                        std::sqrt(variance(*k, oc, plain));
                }
            } else if (!plain) {
                for (std::size_t oc0 = 0; oc0 < os.c; oc0 += kLanes) {
                    LaneReals buf_sum = {}, code_sq_q, bits;
                    for (std::size_t q = 0; q < positions; ++q) {
                        loadLanes(&code_sq[q * padded + oc0], code_sq_q);
                        buf_sum += code_sq_q * buf_weight[q];
                    }
                    loadLanes(&bit_noise[oc0], bits);
                    const LaneReals var =
                        g2n * (bit_var * bits + buf_scale * buf_sum) +
                        fixed_var;
                    const std::size_t lanes =
                        std::min<std::size_t>(kLanes, os.c - oc0);
                    for (std::size_t l = 0; l < lanes; ++l)
                        sigmas[(oc0 + l) * windows + win] =
                            std::sqrt(var[l]);
                }
            }
        }
    }

    Tensor out(Shape(1, os.c, os.h, os.w));
    float *dst = out.data();
    const LaneReals lo = LaneReals{} + (rectify ? 0.0 : -swing);
    const LaneReals hi = LaneReals{} + swing;
    for (std::size_t oc = 0; oc < os.c; ++oc) {
        for (std::size_t win0 = 0; win0 < windows; win0 += kLanes) {
            const std::size_t e0 = oc * windows + win0;
            const std::size_t lanes =
                std::min<std::size_t>(kLanes, windows - win0);
            LaneFloats dot_f;
            LaneReals sigma, noise;
            loadLanes(&dots[e0], dot_f);
            loadLanes(&sigmas[e0], sigma);
            loadLanes(&noises[e0], noise);
            LaneReals dot = __builtin_convertvector(dot_f, LaneReals);
            if (any_stuck) {
                // Windows under a stuck-weight column sum with that
                // column's kernel.
                for (std::size_t l = 0; l < lanes; ++l) {
                    const std::size_t win = win0 + l;
                    const ConvKernel &k = *realized[win];
                    if (&k == &kernel)
                        continue;
                    double d = 0.0;
                    for (std::size_t t = 0; t < taps; ++t) {
                        d += static_cast<double>(
                                 k.matrix[oc * taps + t]) *
                             cols[t * windows + win];
                    }
                    dot[l] = d;
                }
            }
            LaneReals volts =
                sys_gain * volts_per_code * dot + sigma * noise;
            if (p.bias)
                volts += layer.biases()[oc] / out_factor;
            if (any_fault) {
                LaneWords has_faults, is_dead;
                LaneReals offsets;
                loadLanes(&faulted[win0], has_faults);
                loadLanes(&dead[win0], is_dead);
                loadLanes(&offset[win0], offsets);
                volts = (LaneMask)has_faults ? volts + offsets : volts;
                volts = (LaneMask)is_dead ? hi : volts;
            }
            // Physical clipping at the signal swing; rectified layers
            // clip at zero as well (folded ReLU).
            volts = volts < lo ? lo : volts;
            volts = hi < volts ? hi : volts;
            const LaneFloats v =
                __builtin_convertvector(volts * out_factor, LaneFloats);
            if (lanes == kLanes) {
                std::memcpy(dst + e0, &v, sizeof v);
            } else {
                for (std::size_t l = 0; l < lanes; ++l)
                    dst[e0 + l] = v[l];
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
ColumnArray::runMaxPool(const Tensor &in, const nn::MaxPoolLayer &layer)
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

    // Every input in volts, once: a value is read by several windows.
    std::vector<double> volts(in.size());
    for (std::size_t i = 0; i < volts.size(); ++i)
        volts[i] = in[i] / in_scale * swing;

    // Lane l's in-bounds window values, in the scalar walk's order:
    // block[s][l] is its s-th comparison's challenger (s >= 1).
    std::vector<LaneReals> block(p.kernel * p.kernel);
    const analog::DynamicComparator &shared = cols_.front().comparator;
    Tensor out(Shape(1, os.c, os.h, os.w));
    float *dst = out.data();
    const std::size_t total = out.size();
    std::size_t oc = 0, oy = 0, ox = 0; // coordinates of the next lane
    for (std::size_t e0 = 0; e0 < total; e0 += kLanes) {
        const std::size_t lanes = std::min<std::size_t>(kLanes, total - e0);
        const LaneWords element = e0 + kLaneIndex;
        const LaneMask active = (LaneMask)(kLaneIndex < lanes);
        LaneWords count = {};
        LaneReals offset = {};
        LaneMask shifted = {};
        const fault::ColumnFaults *faults[kLanes] = {};
        analog::DynamicComparator *cmp[kLanes] = {};
        std::size_t steps = 0;
        for (std::size_t l = 0; l < lanes; ++l) {
            const Span ys = span(oy, is.h);
            const Span xs = span(ox, is.w);
            const double *plane = volts.data() + oc * is.h * is.w;
            std::size_t n = 0;
            for (std::size_t iy = ys.lo; iy < ys.hi; ++iy) {
                for (std::size_t ix = xs.lo; ix < xs.hi; ++ix)
                    block[n++][l] = plane[iy * is.w + ix];
            }
            if (n == 0)
                block[0][l] = 0.0; // an empty window reads 0
            steps = std::max(steps, n);
            count[l] = n;
            faults[l] = ports[ox].faults;
            cmp[l] = &ports[ox].column->comparator;
            if (faults[l]) {
                // Input-referred latch offset: the decision sees the
                // challenger shifted, but the routed signal itself is
                // unshifted.
                offset[l] = faults[l]->comparatorOffsetV;
                shifted[l] = -1;
            }
            if (++ox == os.w) {
                ox = 0;
                if (++oy == os.h) {
                    oy = 0;
                    ++oc;
                }
            }
        }

        // The tournament, all lanes in lockstep; a lane whose window
        // is exhausted sits the remaining steps out.
        KeyedLanes rng(layer_key, element);
        analog::LaneTally tally;
        LaneReals best = block[0];
        for (std::size_t s = 1; s < steps; ++s) {
            const LaneReals v = block[s];
            const LaneMask live =
                active & (LaneMask)(count > LaneWords{} + s);
            const LaneReals seen = shifted ? v + offset : v;
            LaneMask win;
            shared.decide(seen, best, live, rng, tally, win);
            best = win ? v : best;
        }
        for (std::size_t l = 0; l < lanes; ++l) {
            cmp[l]->accrue(tally, l);
            const double b = faults[l] && faults[l]->dead
                                 ? swing // railed column
                                 : best[l];
            dst[e0 + l] = static_cast<float>(b * in_scale / swing);
        }
    }
    return out;
}

Tensor
ColumnArray::runQuantization(const Tensor &in)
{
    // Rectified features are non-negative; map [0, max] onto the ADC
    // range [0, vref].
    return runQuantization(in, static_cast<double>(in.absMax()));
}

Tensor
ColumnArray::runQuantization(const Tensor &in, double full_scale)
{
    const Shape &is = in.shape();
    fatal_if(is.n != 1, "functional engine runs one frame at a time");
    const std::uint64_t layer_key = nextLayerKey();

    const double in_max = std::max(1e-12, full_scale);
    const std::vector<Port> ports = portsFor(is.w);
    Tensor out(is);
    const float *src = in.data();
    float *dst = out.data();
    const std::size_t total = in.size();
    std::size_t x = 0; // column position of the next lane
    for (std::size_t e0 = 0; e0 < total; e0 += kLanes) {
        const std::size_t lanes = std::min<std::size_t>(kLanes, total - e0);
        const LaneWords element = e0 + kLaneIndex;
        const LaneMask active = (LaneMask)(kLaneIndex < lanes);
        LaneReals volts = {};
        const fault::ColumnFaults *faults[kLanes] = {};
        analog::SarAdc *adc[kLanes];
        for (std::size_t l = 0; l < kLanes; ++l) {
            if (l >= lanes) {
                adc[l] = adc[0]; // idle lane: converts nothing
                continue;
            }
            faults[l] = ports[x].faults;
            adc[l] = &ports[x].column->adc;
            const double v =
                std::max(0.0, static_cast<double>(src[e0 + l]));
            volts[l] = v / in_max * adc[l]->vref();
            if (faults[l] && faults[l]->dead)
                volts[l] = adc[l]->vref(); // railed input
            if (++x == is.w)
                x = 0;
        }
        KeyedLanes rng(layer_key, element);
        LaneWords codes;
        analog::SarAdc::convert(adc, volts, active, rng, codes);
        for (std::size_t l = 0; l < lanes; ++l) {
            const fault::ColumnFaults *cf = faults[l];
            auto code = static_cast<std::uint32_t>(codes[l]);
            if (cf && cf->adcStuckBit >= 0 &&
                cf->adcStuckBit < static_cast<int>(adc[l]->resolution())) {
                // Frozen SAR bit. Only bits the programmed resolution
                // keeps in the array can stick; a stuck capacitor
                // among the cut-off bits is harmless.
                const std::uint32_t mask = 1u << cf->adcStuckBit;
                code = cf->adcStuckHigh ? (code | mask) : (code & ~mask);
            }
            dst[e0 + l] = static_cast<float>(
                adc[l]->reconstruct(code) / adc[l]->vref() * in_max);
        }
    }
    return out;
}

EnergyBreakdown
ColumnArray::energy() const
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
ColumnArray::resetEnergy()
{
    macJ_ = 0.0;
    memoryJ_ = 0.0;
    for (auto &col : cols_) {
        col.comparator.resetEnergy();
        col.adc.resetEnergy();
    }
}

std::size_t
ColumnArray::forcedDecisions() const
{
    std::size_t total = 0;
    for (const auto &col : cols_)
        total += col.comparator.forcedCount();
    return total;
}

} // namespace arch
} // namespace redeye
