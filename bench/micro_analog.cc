/**
 * @file
 * Microbenchmarks of the analog circuit primitives, plus the Section
 * IV-A ablation: charge-sharing tunable capacitor versus the naive
 * binary-weighted MAC sampling array (the 32x energy claim), and the
 * layer-level costs of the functional engine: one keyed Gaussian, a
 * lane group of them, a layer's first draws, one keyed comparator
 * decision and SAR conversion, the pool and readout layers on
 * ReLU-sparse input, and one depth-1 MiniGoogLeNet frame through
 * RedEyeDevice.
 */

#include <algorithm>
#include <vector>

#include <benchmark/benchmark.h>

#include "analog/comparator.hh"
#include "analog/mac_unit.hh"
#include "analog/memory_cell.hh"
#include "analog/sar_adc.hh"
#include "analog/tunable_cap.hh"
#include "core/rng.hh"
#include "models/mini_googlenet.hh"
#include "nn/network.hh"
#include "nn/pool.hh"
#include "redeye/device.hh"

using namespace redeye;
using namespace redeye::analog;

namespace {

void
BM_TunableCapApply(benchmark::State &state)
{
    TunableCapacitor cap(8, ProcessParams::typical());
    Rng rng(1);
    double v = 0.3;
    for (auto _ : state) {
        v = cap.apply(0.4, 173, rng);
        benchmark::DoNotOptimize(v);
    }
}
BENCHMARK(BM_TunableCapApply);

void
BM_MacWindow(benchmark::State &state)
{
    MacUnit mac(MacParams{}, ProcessParams::typical());
    mac.setSnrDb(40.0);
    Rng rng(2);
    const auto taps = static_cast<std::size_t>(state.range(0));
    std::vector<double> x(taps, 0.1);
    std::vector<int> w(taps, 93);
    for (auto _ : state) {
        benchmark::DoNotOptimize(mac.multiplyAccumulate(x, w, rng));
    }
    state.counters["energy_pJ_per_window"] =
        mac.energyPerWindow(taps) * 1e12;
}
BENCHMARK(BM_MacWindow)->Arg(9)->Arg(147)->Arg(576);

void
BM_ComparatorDecision(benchmark::State &state)
{
    DynamicComparator cmp(ComparatorParams{},
                          ProcessParams::typical());
    Rng rng(3);
    double a = 0.4;
    for (auto _ : state) {
        const auto d = cmp.compare(a, 0.35, rng);
        benchmark::DoNotOptimize(d);
    }
}
BENCHMARK(BM_ComparatorDecision);

void
BM_SarConversion(benchmark::State &state)
{
    SarAdcParams params;
    Rng seed(4);
    SarAdc adc(params, ProcessParams::typical(), seed);
    adc.setResolution(static_cast<unsigned>(state.range(0)));
    Rng rng(5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(adc.convert(0.37, rng));
    }
    state.counters["energy_pJ_per_conv"] =
        adc.energyPerConversion() * 1e12;
}
BENCHMARK(BM_SarConversion)->Arg(4)->Arg(8)->Arg(10);

void
BM_MemoryCellWriteRead(benchmark::State &state)
{
    AnalogMemoryCell cell(MemoryCellParams{},
                          ProcessParams::typical());
    Rng rng(6);
    for (auto _ : state) {
        cell.write(0.5, rng);
        benchmark::DoNotOptimize(cell.read(rng));
    }
}
BENCHMARK(BM_MemoryCellWriteRead);

/** The Section IV-A ablation as a reported counter. */
void
BM_ChargeSharingVsNaive(benchmark::State &state)
{
    TunableCapacitor cap(8, ProcessParams::typical());
    Rng rng(7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(cap.apply(0.4, 255, rng));
    }
    state.counters["naive_over_sharing_energy"] =
        cap.naiveDesignEnergy() / cap.worstCaseEnergy();
}
BENCHMARK(BM_ChargeSharingVsNaive);

/** One keyed normal draw: a fresh element stream, as a conv window. */
void
BM_KeyedGaussian(benchmark::State &state)
{
    const std::uint64_t layer_key = keyedLayer(0x5eed, 0);
    std::uint64_t element = 0;
    for (auto _ : state) {
        KeyedRng rng(layer_key, element++);
        benchmark::DoNotOptimize(rng.normal());
    }
}
BENCHMARK(BM_KeyedGaussian);

/**
 * kLanes keyed normal draws in lockstep, one per fresh element stream,
 * as a pool or readout lane group takes its first draw. Time is per
 * lane group; compare with kLanes x BM_KeyedGaussian.
 */
void
BM_KeyedLaneNormal(benchmark::State &state)
{
    const std::uint64_t layer_key = keyedLayer(0x5eed, 0);
    LaneWords element = kLaneIndex;
    const LaneMask all = (LaneMask)(kLaneIndex < kLanes);
    LaneReals x;
    for (auto _ : state) {
        KeyedLanes rng(layer_key, element);
        rng.normal(all, x);
        benchmark::DoNotOptimize(x);
        element += kLanes;
    }
    state.counters["ns_per_draw"] = benchmark::Counter(
        static_cast<double>(state.iterations() * kLanes),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_KeyedLaneNormal);

/**
 * The first normal of every element stream of a layer, as conv1's
 * window loop takes them (32 channels x 32 x 32 windows).
 */
void
BM_KeyedFirstNormals(benchmark::State &state)
{
    std::vector<double> out(32 * 32 * 32);
    std::uint64_t layer = 0;
    for (auto _ : state) {
        KeyedLanes::firstNormals(keyedLayer(0x5eed, layer++), out.size(),
                                 out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.counters["ns_per_draw"] = benchmark::Counter(
        static_cast<double>(state.iterations() * out.size()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_KeyedFirstNormals)->Unit(benchmark::kMicrosecond);

/**
 * One max-pool comparison as the array makes it: a fresh element
 * stream, then one decision. `tie` compares equal inputs, so about
 * two thirds of decisions are forced (a coin, no logarithm); `wide`
 * compares inputs 0.3 V apart, always decided honestly.
 */
void
BM_KeyedComparatorDecision(benchmark::State &state, double delta)
{
    DynamicComparator cmp(ComparatorParams{}, ProcessParams::typical());
    const std::uint64_t layer_key = keyedLayer(0x5eed, 1);
    std::uint64_t element = 0;
    for (auto _ : state) {
        KeyedRng rng(layer_key, element++);
        benchmark::DoNotOptimize(cmp.compare(0.4 + delta, 0.4, rng));
    }
    state.counters["forced_frac"] =
        static_cast<double>(cmp.forcedCount()) /
        static_cast<double>(cmp.decisionCount());
}
BENCHMARK_CAPTURE(BM_KeyedComparatorDecision, tie, 0.0);
BENCHMARK_CAPTURE(BM_KeyedComparatorDecision, wide, 0.3);

/** One SAR conversion from a fresh element stream, as the readout. */
void
BM_KeyedSarConversion(benchmark::State &state)
{
    Rng seed(4);
    SarAdc adc(SarAdcParams{}, ProcessParams::typical(), seed);
    adc.setResolution(static_cast<unsigned>(state.range(0)));
    const std::uint64_t layer_key = keyedLayer(0x5eed, 2);
    std::uint64_t element = 0;
    for (auto _ : state) {
        KeyedRng rng(layer_key, element);
        // Inputs sweep the range so every code path is taken.
        const double v = adc.vref() * static_cast<double>(element % 97) /
                         96.0;
        ++element;
        benchmark::DoNotOptimize(adc.convert(v, rng));
    }
}
BENCHMARK(BM_KeyedSarConversion)->Arg(4);

/**
 * ReLU-sparse activations of @p shape: uniform in [-1, 1], negatives
 * zeroed, so about half the values are exact zeros and max-pool
 * windows compare zeros with zeros, as after a conv's ReLU.
 */
Tensor
reluSparse(const Shape &shape)
{
    Tensor t(shape);
    Rng rng(11);
    t.fillUniform(rng, -1.0f, 1.0f);
    for (std::size_t i = 0; i < t.size(); ++i)
        t[i] = std::max(0.0f, t[i]);
    return t;
}

/** pool1 of MiniGoogLeNet (3x3, stride 2) on a fresh array per run. */
void
BM_MaxPoolLayer(benchmark::State &state)
{
    arch::ColumnArrayConfig cfg;
    cfg.columns = models::kMiniInputSize;
    const nn::MaxPoolLayer pool("pool1", nn::PoolParams{3, 2, 0});
    const Tensor x = reluSparse(Shape(1, 32, 32, 32));
    std::uint64_t run = 0;
    std::size_t forced = 0;
    for (auto _ : state) {
        arch::ColumnArray array(cfg, ProcessParams::typical(), Rng(run++));
        benchmark::DoNotOptimize(array.runMaxPool(x, pool).data());
        forced += array.forcedDecisions();
    }
    state.counters["forced_per_run"] =
        static_cast<double>(forced) / static_cast<double>(run);
}
BENCHMARK(BM_MaxPoolLayer)->Unit(benchmark::kMicrosecond);

/** The 4-bit readout of pool1's output on a fresh array per run. */
void
BM_QuantizeLayer(benchmark::State &state)
{
    arch::ColumnArrayConfig cfg;
    cfg.columns = models::kMiniInputSize;
    cfg.adcBits = 4;
    const Tensor x = reluSparse(Shape(1, 32, 16, 16));
    std::uint64_t run = 0;
    for (auto _ : state) {
        arch::ColumnArray array(cfg, ProcessParams::typical(), Rng(run++));
        benchmark::DoNotOptimize(array.runQuantization(x).data());
    }
    state.counters["conversions"] = static_cast<double>(x.size());
}
BENCHMARK(BM_QuantizeLayer)->Unit(benchmark::kMicrosecond);

/**
 * One depth-1 MiniGoogLeNet frame (conv1 + ReLU, pool1, 4-bit
 * readout) at 40 dB, as the serving device stage runs it: the plan is
 * built once, the device per frame.
 */
void
BM_DeviceFrame(benchmark::State &state)
{
    Rng weights(1);
    auto net = models::buildMiniGoogLeNet(10, weights);
    arch::ColumnArrayConfig cfg;
    cfg.columns = models::kMiniInputSize;
    cfg.convSnrDb = 40.0;
    cfg.adcBits = 4;
    const auto plan = arch::AnalogPlan::build(
        *net, models::miniGoogLeNetAnalogLayers(1), cfg.weightBits);
    Tensor x(Shape(1, 3, models::kMiniInputSize,
                   models::kMiniInputSize));
    Rng pixels(2);
    x.fillUniform(pixels, 0.0f, 1.0f);
    std::uint64_t frame = 0;
    for (auto _ : state) {
        arch::RedEyeDevice device(cfg, ProcessParams::typical(),
                                  Rng(streamRng(3, 0, frame++).raw()));
        benchmark::DoNotOptimize(device.run(*plan, x).features.data());
    }
    // conv1: 5x5 taps over 3 input channels per output element.
    state.counters["conv1_macs"] = static_cast<double>(
        net->nodeShape("conv1").size() * 3 * 5 * 5);
}
BENCHMARK(BM_DeviceFrame)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
