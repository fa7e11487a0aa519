/**
 * @file
 * Distributional equivalence of the closed-form column engine and the
 * per-tap reference engine (reference_engine.hh).
 *
 * ColumnArray draws one Gaussian per conv window with the exact
 * variance of the per-tap noise terms, and keys every draw on the
 * output element; the reference simulates every tap from one
 * sequential Rng. The two realize different noise, so these tests
 * compare distributions on fixed inputs over many seeds, each against
 * a stated confidence bound, and compare the modelled MAC and memory
 * energy, which depend on the inputs only.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/stats.hh"
#include "fault/fault_model.hh"
#include "models/mini_googlenet.hh"
#include "nn/activation.hh"
#include "nn/network.hh"
#include "redeye/device.hh"
#include "reference_engine.hh"

namespace redeye {
namespace arch {
namespace {

constexpr std::size_t kColumns = 12;
constexpr std::size_t kSeeds = 400;

ColumnArrayConfig
config(std::size_t columns = kColumns)
{
    ColumnArrayConfig cfg;
    cfg.columns = columns;
    cfg.convSnrDb = 40.0;
    cfg.adcBits = 4;
    return cfg;
}

Tensor
randomImage(const Shape &s, std::uint64_t seed)
{
    Rng rng(seed);
    Tensor t(s);
    t.fillUniform(rng, 0.0f, 1.0f);
    return t;
}

/** A conv1-like layer: 5x5 taps, padding 2, on @p in. */
std::unique_ptr<nn::ConvolutionLayer>
makeConv(const Shape &in, std::size_t out_channels)
{
    Rng rng(1);
    auto conv = std::make_unique<nn::ConvolutionLayer>(
        "c", nn::ConvParams::square(out_channels, 5, 1, 2));
    (void)conv->outputShape({in});
    conv->initHe(rng);
    return conv;
}

/**
 * A campaign with leaky buffer cells, stuck weight bits and MAC
 * offsets (dead columns are deterministic and carry no noise).
 */
fault::FaultModel
noisyFaults()
{
    fault::FaultCampaign c;
    c.seed = 3;
    c.memoryLeakRate = 0.3;
    c.stuckWeightBitRate = 0.3;
    c.offsetColumnRate = 0.2;
    return fault::FaultModel(c, kColumns);
}

/** Per-window outputs of both engines over kSeeds seeds. */
struct WindowSamples {
    std::vector<std::vector<double>> fast; ///< [window][seed]
    std::vector<std::vector<double>> ref;
};

WindowSamples
sampleWindows(const fault::FaultModel *faults)
{
    const Tensor x = randomImage(Shape(1, 3, 6, kColumns), 2);
    auto conv = makeConv(x.shape(), 4);
    WindowSamples s;
    for (std::size_t seed = 0; seed < kSeeds; ++seed) {
        ColumnArray fast(config(), analog::ProcessParams::typical(),
                         Rng(1000 + seed));
        ReferenceColumnArray ref(config(),
                                 analog::ProcessParams::typical(),
                                 Rng(1000 + seed));
        fast.armFaults(faults);
        ref.armFaults(faults);
        const Tensor a = fast.runConvolution(x, *conv, false);
        const Tensor b = ref.runConvolution(x, *conv, false);
        s.fast.resize(a.size());
        s.ref.resize(b.size());
        for (std::size_t w = 0; w < a.size(); ++w) {
            s.fast[w].push_back(a[w]);
            s.ref[w].push_back(b[w]);
        }
    }
    return s;
}

/** Sample mean and unbiased variance. */
std::pair<double, double>
moments(const std::vector<double> &v)
{
    double m = 0.0;
    for (double x : v)
        m += x;
    m /= static_cast<double>(v.size());
    double ss = 0.0;
    for (double x : v)
        ss += (x - m) * (x - m);
    return {m, ss / static_cast<double>(v.size() - 1)};
}

/**
 * Per-window error mean and variance agree. Windows are independent
 * given the inputs, and under equivalence each window's Welch
 * statistic t is ~N(0, 1) and its log variance ratio is
 * ~N(0, 4 / (S - 1)) at S seeds. The bounds: the mean of either over
 * the windows within 4 standard errors of zero, and every window
 * within 4.5 standard deviations (a Bonferroni bound at ~1e-3 over
 * the few hundred windows).
 */
void
expectSameWindowMoments(const WindowSamples &s)
{
    const double seeds = static_cast<double>(kSeeds);
    const double log_ratio_sd = std::sqrt(4.0 / (seeds - 1.0));
    double windows = 0.0;
    double t_sum = 0.0, t_max = 0.0, r_sum = 0.0, r_max = 0.0;
    for (std::size_t w = 0; w < s.fast.size(); ++w) {
        const auto [mf, vf] = moments(s.fast[w]);
        const auto [mr, vr] = moments(s.ref[w]);
        if (vr == 0.0) {
            // Railed at the swing in every seed: both engines clip.
            EXPECT_EQ(vf, 0.0) << "window " << w;
            EXPECT_EQ(mf, mr) << "window " << w;
            continue;
        }
        windows += 1.0;
        const double t = (mf - mr) / std::sqrt((vf + vr) / seeds);
        const double r = std::log(vf / vr);
        t_sum += t;
        r_sum += r;
        t_max = std::max(t_max, std::fabs(t));
        r_max = std::max(r_max, std::fabs(r));
    }
    ASSERT_GT(windows, 100.0);
    EXPECT_LT(std::fabs(t_sum / windows), 4.0 / std::sqrt(windows));
    EXPECT_LT(t_max, 4.5);
    EXPECT_LT(std::fabs(r_sum / windows),
              4.0 * log_ratio_sd / std::sqrt(windows));
    EXPECT_LT(r_max, 4.5 * log_ratio_sd);
}

/**
 * Two-sample Kolmogorov-Smirnov on standardized residuals: each
 * window's outputs from both engines are centred and scaled by the
 * window's pooled mean and deviation, then pooled over windows.
 */
double
residualKsP(const WindowSamples &s)
{
    std::vector<double> zf, zr;
    for (std::size_t w = 0; w < s.fast.size(); ++w) {
        std::vector<double> both = s.fast[w];
        both.insert(both.end(), s.ref[w].begin(), s.ref[w].end());
        const auto [m, v] = moments(both);
        if (v == 0.0)
            continue; // railed window, checked by the moments test
        const double sd = std::sqrt(v);
        for (double x : s.fast[w])
            zf.push_back((x - m) / sd);
        for (double x : s.ref[w])
            zr.push_back((x - m) / sd);
    }
    std::sort(zf.begin(), zf.end());
    std::sort(zr.begin(), zr.end());
    const double nf = static_cast<double>(zf.size());
    const double nr = static_cast<double>(zr.size());
    double d = 0.0;
    std::size_t i = 0, j = 0;
    while (i < zf.size() && j < zr.size()) {
        const double x = std::min(zf[i], zr[j]);
        while (i < zf.size() && zf[i] <= x)
            ++i;
        while (j < zr.size() && zr[j] <= x)
            ++j;
        d = std::max(d, std::fabs(static_cast<double>(i) / nf -
                                  static_cast<double>(j) / nr));
    }
    return ksPValue(d, nf * nr / (nf + nr));
}

TEST(AnalogEquivalenceTest, WindowMomentsMatchReference)
{
    const WindowSamples s = sampleWindows(nullptr);
    expectSameWindowMoments(s);
    EXPECT_GT(residualKsP(s), 0.01);
}

/**
 * Droop from leaky buffer cells, stuck weight bits and MAC offsets
 * reshape individual windows' signal and variance; the closed form
 * must follow them.
 */
TEST(AnalogEquivalenceTest, FaultedWindowMomentsMatchReference)
{
    const fault::FaultModel faults = noisyFaults();
    bool leak = false, stuck = false;
    for (std::size_t c = 0; c < kColumns; ++c) {
        leak |= faults.column(c).extraHoldS > 0.0;
        stuck |= faults.column(c).weightStuckBit >= 0;
    }
    ASSERT_TRUE(leak && stuck)
        << "campaign realizes no leak or stuck bit";
    const WindowSamples s = sampleWindows(&faults);
    expectSameWindowMoments(s);
    EXPECT_GT(residualKsP(s), 0.01);
}

/**
 * Per-layer output SNR against the digital reference, conv (with the
 * folded ReLU), max pool and the 4-bit readout, averaged over seeds:
 * the engines agree within 0.5 dB at every layer.
 */
TEST(AnalogEquivalenceTest, PerLayerSnrWithinHalfDb)
{
    constexpr std::size_t kSnrSeeds = 10;
    const Tensor x = randomImage(Shape(1, 3, 16, 16), 5);
    auto conv = makeConv(x.shape(), 16);
    nn::MaxPoolLayer pool("p", nn::PoolParams{3, 2, 0});
    Tensor conv_ref, pool_ref;
    conv->forward({&x}, conv_ref);
    for (std::size_t i = 0; i < conv_ref.size(); ++i)
        conv_ref[i] = std::max(0.0f, conv_ref[i]);
    pool.forward({&conv_ref}, pool_ref);

    double fast_db[3] = {}, ref_db[3] = {};
    auto stage = [&](auto &array, double db[3]) {
        const Tensor c = array.runConvolution(x, *conv, true);
        const Tensor p = array.runMaxPool(c, pool);
        const Tensor q = array.runQuantization(p);
        db[0] += measureSnrDb(conv_ref.vec(), c.vec()) / kSnrSeeds;
        db[1] += measureSnrDb(pool_ref.vec(), p.vec()) / kSnrSeeds;
        db[2] += measureSnrDb(pool_ref.vec(), q.vec()) / kSnrSeeds;
    };
    for (std::size_t seed = 0; seed < kSnrSeeds; ++seed) {
        ColumnArray fast(config(16), analog::ProcessParams::typical(),
                         Rng(seed));
        ReferenceColumnArray ref(config(16),
                                 analog::ProcessParams::typical(),
                                 Rng(seed));
        stage(fast, fast_db);
        stage(ref, ref_db);
    }
    for (int l = 0; l < 3; ++l) {
        EXPECT_NEAR(fast_db[l], ref_db[l], 0.5)
            << "layer " << l << ": " << fast_db[l] << " dB vs "
            << ref_db[l] << " dB";
    }
}

/**
 * Max pooling over exact ties: every decision is pure comparator
 * noise and most hit the metastability timeout. The forced-decision
 * rates of the two engines agree within 4 standard errors of their
 * difference (two-proportion binomial test).
 */
TEST(AnalogEquivalenceTest, ForcedDecisionRateWithinBinomialCi)
{
    constexpr std::size_t kPoolSeeds = 60;
    const Tensor ties(Shape(1, 4, 16, 16), 0.5f);
    nn::MaxPoolLayer pool("p", nn::PoolParams{2, 2, 0});
    // Three decisions per 2x2 window.
    const double decisions =
        static_cast<double>(kPoolSeeds * 4 * 8 * 8 * 3);
    double fast = 0.0, ref = 0.0;
    for (std::size_t seed = 0; seed < kPoolSeeds; ++seed) {
        ColumnArray a(config(16), analog::ProcessParams::typical(),
                      Rng(seed));
        ReferenceColumnArray b(config(16),
                               analog::ProcessParams::typical(),
                               Rng(seed));
        (void)a.runMaxPool(ties, pool);
        (void)b.runMaxPool(ties, pool);
        fast += static_cast<double>(a.forcedDecisions());
        ref += static_cast<double>(b.forcedDecisions());
    }
    const double pf = fast / decisions, pr = ref / decisions;
    const double p = (pf + pr) / 2.0;
    ASSERT_GT(p, 0.05);
    ASSERT_LT(p, 0.95);
    EXPECT_LT(std::fabs(pf - pr),
              4.0 * std::sqrt(p * (1.0 - p) * 2.0 / decisions))
        << "forced rate " << pf << " vs reference " << pr;
}

void
expectEnergyEqual(const EnergyBreakdown &fast,
                  const EnergyBreakdown &ref)
{
    EXPECT_GT(ref.macJ, 0.0);
    EXPECT_GT(ref.memoryJ, 0.0);
    EXPECT_NEAR(fast.macJ, ref.macJ, 1e-9 * ref.macJ);
    EXPECT_NEAR(fast.memoryJ, ref.memoryJ, 1e-9 * ref.memoryJ);
}

/** MAC and memory energy count the same events on the same frame. */
TEST(AnalogEquivalenceTest, MacAndMemoryEnergyMatchOnDeviceFrame)
{
    Rng weights(0xbeef);
    auto net = models::buildMiniGoogLeNet(4, weights);
    const auto layers = models::miniGoogLeNetAnalogLayers(1);
    const Tensor x = randomImage(Shape(1, 3, models::kMiniInputSize,
                                       models::kMiniInputSize),
                                 7);
    ColumnArrayConfig cfg = config(models::kMiniInputSize);
    RedEyeDevice device(cfg, analog::ProcessParams::typical(), Rng(9));
    const DeviceRun run = device.run(*net, layers, x);

    ReferenceColumnArray ref(cfg, analog::ProcessParams::typical(),
                             Rng(9));
    auto &conv = static_cast<nn::ConvolutionLayer &>(net->layer("conv1"));
    auto &pool = static_cast<nn::MaxPoolLayer &>(net->layer("pool1"));
    Tensor c = ref.runConvolution(x, conv, true);
    (void)ref.runQuantization(ref.runMaxPool(c, pool));
    expectEnergyEqual(run.energy, ref.energy());
}

/** Dead columns, stuck weight bits and leaks keep the counts equal. */
TEST(AnalogEquivalenceTest, MacAndMemoryEnergyMatchUnderFaults)
{
    fault::FaultCampaign c;
    c.seed = 5;
    c.deadColumnRate = 0.2;
    c.stuckWeightBitRate = 0.4;
    c.memoryLeakRate = 0.3;
    const fault::FaultModel faults(c, kColumns);
    const Tensor x = randomImage(Shape(1, 3, 6, kColumns), 2);
    auto conv = makeConv(x.shape(), 4);
    ColumnArray fast(config(), analog::ProcessParams::typical(), Rng(1));
    ReferenceColumnArray ref(config(), analog::ProcessParams::typical(),
                             Rng(1));
    fast.armFaults(&faults);
    ref.armFaults(&faults);
    (void)fast.runConvolution(x, *conv, true);
    (void)ref.runConvolution(x, *conv, true);
    expectEnergyEqual(fast.energy(), ref.energy());
}

/**
 * The plan path and the per-call lowering path are one computation:
 * a device run equals the same ColumnArray calls made one by one.
 */
TEST(AnalogEquivalenceTest, PlanRunMatchesLayerByLayerCalls)
{
    Rng weights(0xbeef);
    auto net = models::buildMiniGoogLeNet(4, weights);
    const auto layers = models::miniGoogLeNetAnalogLayers(1);
    const Tensor x = randomImage(Shape(1, 3, models::kMiniInputSize,
                                       models::kMiniInputSize),
                                 8);
    const ColumnArrayConfig cfg = config(models::kMiniInputSize);
    StatusOr<AnalogPlan> plan =
        AnalogPlan::build(*net, layers, cfg.weightBits);
    ASSERT_TRUE(plan.ok()) << plan.status().str();
    RedEyeDevice device(cfg, analog::ProcessParams::typical(), Rng(4));
    const DeviceRun run = device.run(*plan, x);

    Rng rng(4);
    ColumnArray array(cfg, analog::ProcessParams::typical(), rng.fork());
    auto &conv = static_cast<nn::ConvolutionLayer &>(net->layer("conv1"));
    auto &pool = static_cast<nn::MaxPoolLayer &>(net->layer("pool1"));
    const Tensor q = array.runQuantization(
        array.runMaxPool(array.runConvolution(x, conv, true), pool));
    ASSERT_EQ(q.size(), run.features.size());
    for (std::size_t i = 0; i < q.size(); ++i)
        ASSERT_EQ(q[i], run.features[i]) << "element " << i;
    EXPECT_EQ(array.energy().totalJ(), run.energy.totalJ());
}

} // namespace
} // namespace arch
} // namespace redeye
