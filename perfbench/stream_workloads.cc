/**
 * @file
 * Stream workloads (analog-closed, digital-open) and the frame-serial
 * drill-downs of the analog prefix and the digital network.
 *
 * Everything here drives the repo through its public API: the vision
 * stages come from stream::makeVisionStages and run on
 * stream::StreamRunner; spans are recorded by wrapping the stage
 * worker factories and the FrameSource, never inside src/.
 */

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <optional>
#include <string>

#include "analog/process.hh"
#include "bench_stats.hh"
#include "cpus.hh"
#include "core/exec.hh"
#include "core/rng.hh"
#include "fault/fault_model.hh"
#include "models/mini_googlenet.hh"
#include "nn/conv.hh"
#include "nn/pool.hh"
#include "nn/serialize.hh"
#include "noise/sensor_noise.hh"
#include "redeye/compiler.hh"
#include "redeye/device.hh"
#include "sim/pretrained.hh"
#include "stream/runner.hh"
#include "stream/vision.hh"
#include "workloads.hh"

namespace perfbench {

using namespace redeye;

struct TrainedModel {
    std::shared_ptr<nn::Network> net;
    data::Dataset val;
};

std::shared_ptr<const TrainedModel>
loadTrainedModel(const std::string &cache_dir)
{
    sim::PretrainedSetup setup = sim::pretrainedMiniGoogLeNet(
        cache_dir + "/redeye_mini_weights.bin");
    auto model = std::make_shared<TrainedModel>();
    model->net = std::move(setup.net);
    model->val = std::move(setup.val);
    return model;
}

namespace {

// ---- Workload constants (README.md explains each choice) ----

constexpr unsigned kDepth = 1;
constexpr double kSnrDb = 40.0;
constexpr unsigned kAdcBits = 4;
constexpr double kOpenLoopFps = 300.0; ///< digital-open camera rate
/** Share of a digital-open run spent open loop; the rest is closed. */
constexpr double kOpenLoopShare = 0.5;
constexpr std::size_t kAnalogQueue = 1; ///< closed-loop queue bound
/** Pipeline start-ups whose scaled median is setup_s. */
constexpr int kSetupRepeats = 40;
/**
 * Generator lateness p99 past which an open-loop run did not offer
 * the schedule it claims, so its latency and drop figures are void.
 */
constexpr double kMaxLateP99Ms = 5.0;
/**
 * Largest top-1 shortfall of the served analog predictions against
 * the noise-free digital network on the same frames. 40 dB / 4-bit
 * lies on the accuracy plateau (EXPERIMENTS.md, Fig. 9/10); over the
 * ~35 frames of a 20 s run the paired difference has a standard
 * deviation near 0.06, so 0.25 is about four of them: a broken analog
 * path fails, sampling noise does not.
 */
constexpr double kTop1Allowance = 0.25;
constexpr std::uint64_t kCensusAnalogFrames = 22;
/** Frame indices sim_mj_per_frame averages (a p50 needs 20). */
constexpr std::uint64_t kEnergyFrames = 20;
/**
 * Closed-loop digital-open stage frames on one CPU before the next,
 * and per probed block: about 0.2 s of the host tail.
 */
constexpr std::uint64_t kDigitalFramesPerCpu = 256;
/** Frames per second no closed-loop digital run reaches, for sizing. */
constexpr double kMaxDigitalFps = 5000.0;
constexpr std::uint64_t kCensusDigitalFrames = 1500;
/** Analog drill-down frames: four per CPU on a 4-CPU host. */
constexpr std::size_t kDrillAnalogFrames = 16;
constexpr std::size_t kDrillDigitalFrames = 200;
/** Served predictions re-derived frame-serially per untraced run. */
constexpr std::size_t kRefAnalogFrames = 1;
constexpr std::size_t kRefDigitalFrames = 32;

std::uint64_t
replaySeed(std::uint64_t seed)
{
    return splitmix64(seed ^ 0x7265706c6179ULL); // 'replay'
}

std::uint64_t
arrivalSeed(std::uint64_t seed)
{
    return splitmix64(seed ^ 0x617272697665ULL); // 'arrive'
}

const char *
pipelineName(Pipeline kind)
{
    return kind == Pipeline::Analog ? "analog-closed" : "digital-open";
}

stream::VisionConfig
visionConfig(Pipeline kind, const TrainedModel &model)
{
    stream::VisionConfig cfg;
    cfg.depth = kDepth;
    cfg.convSnrDb = kSnrDb;
    cfg.adcBits = kAdcBits;
    cfg.weights = model.net;
    if (kind == Pipeline::Digital) {
        // Every column dead: the degradation policy bypasses the
        // analog stage and the host serves the full digital network.
        cfg.faults = std::make_shared<fault::FaultModel>(
            fault::FaultCampaign::deadColumns(1.0),
            models::kMiniInputSize);
        cfg.degrade.enabled = true;
        cfg.degrade.probePeriod = std::uint64_t{1} << 20;
    }
    return cfg;
}

arch::ColumnArrayConfig
arrayConfig(const stream::VisionConfig &cfg)
{
    arch::ColumnArrayConfig array;
    array.columns = models::kMiniInputSize;
    array.convSnrDb = cfg.convSnrDb;
    array.weightBits = cfg.weightBits;
    array.adcBits = cfg.adcBits;
    return array;
}

std::int32_t
argmax(const Tensor &logits)
{
    const float *p = logits.data();
    return static_cast<std::int32_t>(
        std::max_element(p, p + logits.size()) - p);
}

double
msBetween(std::int64_t a_ns, std::int64_t b_ns)
{
    return static_cast<double>(b_ns - a_ns) * 1e-6;
}

/** Seed-driven replay order: frame i shows validation example slotOf(i). */
class ReplayOrder
{
  public:
    ReplayOrder(std::size_t examples, std::uint64_t seed) : order_(examples)
    {
        std::iota(order_.begin(), order_.end(), std::size_t{0});
        std::uint64_t s = replaySeed(seed);
        for (std::size_t i = order_.size(); i > 1; --i) {
            s = splitmix64(s);
            std::swap(order_[i - 1], order_[s % i]);
        }
    }

    std::size_t slotOf(std::uint64_t i) const
    {
        return order_[i % order_.size()];
    }

  private:
    std::vector<std::size_t> order_;
};

/**
 * Replays the validation set in its seeded order and stamps each
 * fill: the fill time is the frame's emission on the benchmark's
 * clock. Past the stop deadline it asks the runner to drain.
 */
class BenchSource : public stream::FrameSource
{
  public:
    BenchSource(const data::Dataset &val, std::uint64_t seed,
                std::uint64_t max_frames, Tracer *tracer)
        : val_(val), order_(val.size(), seed), tracer_(tracer),
          fillNs_(max_frames, -1), fillEndNs_(max_frames, -1),
          rootIds_(max_frames, 0)
    {
    }

    void
    stopAfter(stream::StreamRunner *runner, double seconds)
    {
        runner_ = runner;
        stopAfterNs_ = static_cast<std::int64_t>(seconds * 1e9);
    }

    std::size_t slotOf(std::uint64_t i) const { return order_.slotOf(i); }

    stream::StreamFrame
    frame(std::uint64_t index) override
    {
        stream::StreamFrame f;
        fillContent(index, f);
        return f;
    }

    void
    fill(std::uint64_t i, stream::StreamFrame &f) override
    {
        // The runner pre-warms its frame pool with fill(0) calls
        // before the first emission, so the last fill of an index is
        // the one that counts.
        const std::int64_t t0 = nowNs();
        fillContent(i, f);
        const std::int64_t t1 = nowNs();
        fillNs_[i] = t0;
        fillEndNs_[i] = t1;
        filled_ = std::max(filled_, i + 1);
        if (tracer_)
            rootIds_[i] = tracer_->reserveId();
        if (i == 0) {
            firstNs_ = t0;
            firstCpuNs_ = processCpuNs();
        }
        if (runner_ && stopAfterNs_ > 0 && t1 - firstNs_ >= stopAfterNs_)
            runner_->requestStop();
    }

    std::uint64_t filled() const { return filled_; }
    std::int64_t fillNs(std::uint64_t i) const { return fillNs_[i]; }
    std::int64_t fillEndNs(std::uint64_t i) const { return fillEndNs_[i]; }
    std::uint64_t rootId(std::uint64_t i) const { return rootIds_[i]; }
    /** Process CPU clock at the (last) fill of frame 0. */
    std::int64_t firstCpuNs() const { return firstCpuNs_; }

  private:
    void
    fillContent(std::uint64_t i, stream::StreamFrame &f) const
    {
        const std::size_t slot = slotOf(i);
        f.index = i;
        val_.images.sliceInto(slot, f.image);
        f.label = val_.labels[slot];
        f.emitS = 0.0;
        f.predicted = -1;
        f.analogEnergyJ = 0.0;
        f.systemEnergyJ = 0.0;
        f.failed = false;
        f.analogBypassed = false;
        f.failCode = StatusCode::Ok;
    }

    const data::Dataset &val_;
    ReplayOrder order_;
    Tracer *tracer_;
    std::vector<std::int64_t> fillNs_;
    std::vector<std::int64_t> fillEndNs_;
    std::vector<std::uint64_t> rootIds_;
    std::uint64_t filled_ = 0;
    std::int64_t firstNs_ = 0;
    std::int64_t firstCpuNs_ = 0;
    stream::StreamRunner *runner_ = nullptr;
    std::int64_t stopAfterNs_ = 0;
};

/**
 * CPU clock of a stage's single worker thread at the start and end of
 * each of its frames. The clock leaves out time the thread spent
 * blocked or stolen by the hypervisor (cpus.hh).
 */
struct CpuMeter {
    std::vector<std::int64_t> startNs;
    std::vector<std::int64_t> endNs;
    /** Reference kernel speed around each block, when probed. */
    std::vector<double> refRate;

    /**
     * The stage's capacity on a CPU of its own, over blocks of @p
     * block consecutive frames. A block runs from its first frame's
     * start to its last frame's end, so it also covers the runtime's
     * queue and bookkeeping work between its frames on that thread.
     * Probed, it is frames per second at the reference speed: the
     * block size over the median block CPU time scaled by the
     * reference kernel's speed around the block (scaledMedianS).
     * Otherwise it is frames per CPU second at the fast end (fastEnd)
     * of the blocks.
     */
    double
    capacityFps(std::size_t block) const
    {
        std::vector<double> times = blockTimes(block);
        if (times.empty())
            return 0.0;
        const auto frames = static_cast<double>(block);
        if (refRate.empty())
            return frames / fastEnd(times);
        times.resize(std::min(times.size(), refRate.size()));
        return frames / scaledMedianS(times, refRate, kReferenceDrawsPerS);
    }

    /** Unscaled: frames per CPU second at the fast end of the blocks. */
    double
    cpuFps(std::size_t block) const
    {
        const std::vector<double> times = blockTimes(block);
        return times.empty() ? 0.0
                             : static_cast<double>(block) / fastEnd(times);
    }

    /** CPU seconds of every whole block of @p block frames. */
    std::vector<double>
    blockTimes(std::size_t block) const
    {
        std::vector<double> times;
        for (std::size_t k = block; k <= startNs.size(); k += block) {
            times.push_back(
                static_cast<double>(endNs[k - 1] - startNs[k - block]) *
                1e-9);
        }
        return times;
    }
};

/**
 * Meter a one-worker stage's CPU clock into @p meter. With @p
 * probe_block > 0, the reference kernel (cpus.hh) is also timed on
 * the worker's CPU just before the first and just after the last
 * frame of every @p probe_block frames, outside the block, and their
 * mean speed is kept beside the block.
 */
stream::StageSpec
meterCpu(stream::StageSpec stage, CpuMeter *meter,
         std::uint64_t probe_block)
{
    auto inner = stage.makeWorker;
    stage.makeWorker = [inner, meter, probe_block](std::size_t w) {
        auto fn = inner(w);
        return [fn, meter, probe_block, before = 0.0](
                   stream::StreamFrame &f) mutable {
            const std::size_t n = meter->startNs.size();
            if (probe_block > 0 && n % probe_block == 0)
                before = referenceDrawsPerS();
            meter->startNs.push_back(threadCpuNs());
            fn(f);
            meter->endNs.push_back(threadCpuNs());
            if (probe_block > 0 && (n + 1) % probe_block == 0)
                meter->refRate.push_back(
                    (before + referenceDrawsPerS()) / 2.0);
        };
    };
    return stage;
}

/** Frames a rotated stage worker runs on one CPU before the next. */
std::uint64_t
framesPerCpu(Pipeline kind)
{
    return kind == Pipeline::Analog ? 1 : kDigitalFramesPerCpu;
}

/** One stream run as the benchmark observed it. */
struct StreamRun {
    stream::StreamReport report;
    std::vector<std::uint64_t> completed; ///< indices, ascending
    std::vector<double> latencyS;         ///< per completed index
    std::vector<double> latenessS;        ///< per offered frame
    std::vector<std::int64_t> fillNs;     ///< per offered frame
    std::vector<std::int64_t> emitNs;     ///< fill end, per offered frame
    std::vector<std::int64_t> doneNs;     ///< per index, -1 = none
    std::vector<double> analogJ;          ///< per index
    std::vector<double> systemJ;          ///< per index
    std::vector<std::int32_t> labels;     ///< per index
    double fps = 0.0;
    double wallS = 0.0; ///< first fill to last completion
    CpuMeter meters[3]; ///< per stage

    /**
     * The pipeline's capacity with a CPU per stage: the least stage
     * capacity, in blocks of the frames a stage runs on one CPU.
     */
    double
    capacityFps(Pipeline kind) const
    {
        double fps = meters[0].capacityFps(framesPerCpu(kind));
        for (const CpuMeter &m : meters)
            fps = std::min(fps, m.capacityFps(framesPerCpu(kind)));
        return fps;
    }
    std::size_t workers[3] = {1, 1, 1};
};

/** Wrap every per-frame stage worker in a span. */
std::vector<stream::StageSpec>
traceStages(std::vector<stream::StageSpec> stages, Tracer *tracer,
            const BenchSource *source)
{
    for (stream::StageSpec &s : stages) {
        auto inner = s.makeWorker;
        const std::string span = "stream." + s.name;
        s.makeWorker = [inner, tracer, source, span](std::size_t w) {
            auto fn = inner(w);
            return [fn, tracer, source, span](stream::StreamFrame &f) {
                ScopedSpan sp(tracer, span, f.index,
                              source->rootId(f.index));
                fn(f);
            };
        };
    }
    return stages;
}

/**
 * Rotate a stage's single worker over every allowed CPU, @p
 * frames_per_cpu frames on each in turn, starting @p offset CPUs on:
 * a busy thread's placement would otherwise set the run's figure
 * (cpus.hh). Stages with distinct offsets never share a CPU.
 */
stream::StageSpec
rotateOverCpus(stream::StageSpec stage, std::uint64_t frames_per_cpu,
               std::size_t offset)
{
    auto inner = stage.makeWorker;
    stage.makeWorker = [inner, frames_per_cpu, offset](std::size_t w) {
        auto fn = inner(w);
        return [fn, frames_per_cpu, offset, pinned = -1](
                   stream::StreamFrame &f) mutable {
            const std::vector<int> &cpus = allowedCpus();
            const int cpu =
                cpus[(f.index / frames_per_cpu + offset) % cpus.size()];
            if (cpu != pinned)
                pinCurrentThread(cpu);
            pinned = cpu;
            fn(f);
        };
    };
    return stage;
}

/** A camera that waits for the pipeline, or one that does not. */
enum class Loop { Closed, Open };

Loop
loopOf(Pipeline kind)
{
    return kind == Pipeline::Analog ? Loop::Closed : Loop::Open;
}

stream::RunnerConfig
runnerConfig(Pipeline kind, Loop loop, std::uint64_t seed,
             std::uint64_t frames)
{
    stream::RunnerConfig rc;
    rc.frames = frames;
    if (loop == Loop::Closed) {
        rc.policy = stream::AdmissionPolicy::Block;
        rc.arrivals = stream::ArrivalSchedule::unpaced();
        if (kind == Pipeline::Analog)
            rc.queueCapacity = kAnalogQueue;
    } else {
        rc.policy = stream::AdmissionPolicy::DropOldest;
        rc.arrivals = stream::ArrivalSchedule::poisson(
            kOpenLoopFps, arrivalSeed(seed));
    }
    return rc;
}

/**
 * Run one stream pipeline. @p seconds > 0 stops admission that long
 * after the first emission; @p frames bounds the frames offered.
 */
StreamRun
runStream(Pipeline kind, Loop loop, const TrainedModel &model,
          std::uint64_t seed, double seconds, std::uint64_t frames,
          Tracer *tracer)
{
    const stream::VisionConfig cfg = visionConfig(kind, model);
    stream::RunnerConfig rc = runnerConfig(kind, loop, seed, frames);

    StreamRun run;
    run.doneNs.assign(frames, -1);
    run.analogJ.assign(frames, 0.0);
    run.systemJ.assign(frames, 0.0);
    for (CpuMeter &m : run.meters) {
        m.startNs.reserve(frames); // no regrowth inside a metered block
        m.endNs.reserve(frames);
        m.refRate.reserve(frames);
    }
    BenchSource source(model.val, seed, frames, tracer);
    rc.feedbackTap = [&run, &source, tracer](const stream::StreamFrame &f) {
        const std::int64_t t = nowNs();
        run.doneNs[f.index] = t;
        run.analogJ[f.index] = f.analogEnergyJ;
        run.systemJ[f.index] = f.systemEnergyJ;
        if (tracer) {
            const std::uint64_t root = source.rootId(f.index);
            tracer->record("stream.source", f.index, root,
                           source.fillNs(f.index),
                           source.fillEndNs(f.index));
            tracer->record(root, "frame", f.index, 0,
                           source.fillNs(f.index), t);
        }
    };

    std::vector<stream::StageSpec> stages = makeVisionStages(cfg);
    for (std::size_t i = 0; i < 3; ++i)
        run.workers[i] = stages[i].workers;
    // Spans cover the stage's own call; the CPU meters cover the spans
    // and run inside the rotation, so a move is not metered. Busy
    // stages are rotated and probed a block at a time (CpuMeter): on
    // analog-closed only the analog stage is busy; closed-loop
    // digital-open keeps the sensor and host stages busy alike.
    if (tracer)
        stages = traceStages(std::move(stages), tracer, &source);
    for (std::size_t s = 0; s < 3; ++s) {
        const bool busy = (kind == Pipeline::Analog && s == 1) ||
                          (kind == Pipeline::Digital && loop == Loop::Closed);
        stages[s] = meterCpu(std::move(stages[s]), &run.meters[s],
                             busy ? framesPerCpu(kind) : 0);
        if (busy)
            stages[s] = rotateOverCpus(std::move(stages[s]),
                                       framesPerCpu(kind), s);
    }
    stream::StreamRunner runner(source, std::move(stages), rc);
    source.stopAfter(&runner, seconds);
    run.report = runner.run();

    const std::uint64_t offered = source.filled();
    if (offered == 0)
        return run;
    std::vector<double> gaps(offered);
    for (std::uint64_t i = 0; i < offered; ++i) {
        gaps[i] = rc.arrivals.interarrivalS(i);
        run.fillNs.push_back(source.fillNs(i));
        run.emitNs.push_back(source.fillEndNs(i));
    }
    std::vector<double> fill_s(offered);
    for (std::uint64_t i = 0; i < offered; ++i)
        fill_s[i] = static_cast<double>(run.fillNs[i] - run.fillNs[0]) * 1e-9;
    const std::vector<double> due = dueOffsets(gaps);
    const ScheduleAlignment align = alignSchedule(fill_s, due);
    if (loop == Loop::Open)
        run.latenessS = align.latenessS;

    std::int64_t first_done = -1;
    std::int64_t last_done = -1;
    for (std::uint64_t i = 0; i < frames; ++i) {
        run.labels.push_back(
            model.val.labels[source.slotOf(i)]);
        if (run.doneNs[i] < 0)
            continue;
        run.completed.push_back(i);
        const double done_s =
            static_cast<double>(run.doneNs[i] - run.fillNs[0]) * 1e-9;
        // Closed loop: emission to completion. Open loop: due time to
        // completion, so generator stalls are charged to the frame.
        run.latencyS.push_back(
            loop == Loop::Closed
                ? done_s - fill_s[i]
                : dueLatencyS(done_s, align.startS, due[i]));
        first_done = first_done < 0 ? run.doneNs[i]
                                    : std::min(first_done, run.doneNs[i]);
        last_done = std::max(last_done, run.doneNs[i]);
    }
    if (run.completed.size() >= 2 && last_done > first_done) {
        run.fps = static_cast<double>(run.completed.size() - 1) /
                  (static_cast<double>(last_done - first_done) * 1e-9);
    }
    if (last_done > 0)
        run.wallS = static_cast<double>(last_done - run.fillNs[0]) * 1e-9;
    return run;
}

/**
 * Pipeline start-up, as a closed-loop runStream starts it, up to the
 * first emission: stages made, the runner's frame pool pre-warmed, and every
 * stage worker built on its own thread (networks, weights, host tail
 * pre-warmed) and ready. Each worker's per-frame call is then swapped
 * for a no-op, so a start-up costs nothing past the first emission
 * and it can be repeated. Over kSetupRepeats start-ups: the median
 * CPU time, each scaled by the reference kernel's speed around it
 * (scaledMedianS), and the fast end (fastEnd) of the wall times.
 */
struct Setup {
    double cpuS = 0.0;  ///< CPU time of every thread of the process
    double wallS = 0.0;
};

Setup
setupSeconds(Pipeline kind, const TrainedModel &model)
{
    const stream::VisionConfig cfg = visionConfig(kind, model);
    std::vector<double> cpu, wall, rates;
    for (int r = 0; r < kSetupRepeats; ++r) {
        const double before = referenceDrawsPerS();
        const std::int64_t t0 = nowNs();
        const std::int64_t cpu0 = processCpuNs();
        std::vector<stream::StageSpec> stages = makeVisionStages(cfg);
        for (stream::StageSpec &s : stages) {
            auto inner = s.makeWorker;
            s.makeWorker = [inner](std::size_t w) {
                auto fn = inner(w);
                return [fn](stream::StreamFrame &) {};
            };
        }
        BenchSource source(model.val, 0, 1, nullptr);
        stream::StreamRunner runner(
            source, std::move(stages),
            runnerConfig(kind, Loop::Closed, 0, 1));
        (void)runner.run();
        cpu.push_back(static_cast<double>(source.firstCpuNs() - cpu0) * 1e-9);
        wall.push_back(static_cast<double>(source.fillNs(0) - t0) * 1e-9);
        rates.push_back((before + referenceDrawsPerS()) / 2.0);
    }
    return {scaledMedianS(cpu, rates, kReferenceDrawsPerS), fastEnd(wall)};
}

/**
 * Benchmark-owned replicas of the vision stages, built exactly as
 * stream/vision.cc builds its workers, for re-deriving a served frame
 * serially.
 */
struct Reference {
    stream::VisionConfig cfg;
    arch::ColumnArrayConfig array;
    std::vector<std::string> analogLayers;
    std::unique_ptr<nn::Network> full;
    std::unique_ptr<nn::Network> tail;
    noise::SensorSamplingLayer sensor;
    Tensor clean;

    Reference(Pipeline kind, const TrainedModel &model)
        : cfg(visionConfig(kind, model)), array(arrayConfig(cfg)),
          analogLayers(models::miniGoogLeNetAnalogLayers(cfg.depth)),
          sensor("stream/sensor", cfg.sensor, Rng(cfg.sensorSeed))
    {
        Rng weights(cfg.weightSeed);
        full = models::buildMiniGoogLeNet(cfg.classes, weights);
        nn::copyWeightsByName(*full, *cfg.weights);
        const Shape cut = full->nodeShape(analogLayers.back());
        Rng tail_init(cfg.weightSeed ^ 0x7a11);
        tail = models::buildMiniGoogLeNetTail(cfg.depth, cfg.classes,
                                              cut, tail_init);
        nn::copyWeightsByName(*tail, *full);
    }

    /** Sensor-sampled pixels of frame @p index (replay slot @p slot). */
    Tensor
    sense(const data::Dataset &val, std::size_t slot, std::uint64_t index)
    {
        val.images.sliceInto(slot, clean);
        sensor.setPass(index);
        std::vector<const Tensor *> ins{&clean};
        Tensor out;
        sensor.forward(ins, out);
        return out;
    }

    /** The device stage's per-frame device for @p index. */
    arch::RedEyeDevice
    device(std::uint64_t index) const
    {
        return arch::RedEyeDevice(
            array, analog::ProcessParams::typical(),
            Rng(streamRng(cfg.deviceSeed, 0, index).raw()));
    }
};

/** Share of completed frames whose prediction matches the label. */
double
top1(const StreamRun &run)
{
    std::size_t hits = 0;
    for (std::uint64_t i : run.completed)
        hits += run.report.predictions[i] == run.labels[i];
    return run.completed.empty()
               ? 0.0
               : static_cast<double>(hits) /
                     static_cast<double>(run.completed.size());
}

void
checkConservation(const StreamRun &run, const std::string &what,
                  Outcome &out)
{
    FrameCounts c;
    c.offered = run.report.framesOffered;
    c.completed = run.report.framesCompleted;
    c.dropped = run.report.framesDropped;
    c.failed = run.report.framesFailed;
    out.check(conserved(c),
              what + ": offered " + std::to_string(c.offered) +
                  " != completed + dropped + failed");
    out.check(run.completed.size() == c.completed,
              what + ": completion tap saw " +
                  std::to_string(run.completed.size()) +
                  " frames, runner reports " +
                  std::to_string(c.completed));
}

/** Conservation, and at least two completions and no failures. */
void
checkRun(const StreamRun &run, const std::string &what, Outcome &out)
{
    checkConservation(run, what, out);
    out.check(run.completed.size() >= 2,
              what + ": fewer than 2 frames completed");
    out.check(run.report.framesFailed == 0,
              what + ": " + std::to_string(run.report.framesFailed) +
                  " frames failed");
}

/**
 * The runner's determinism contract: a prediction depends only on the
 * frame index and the seed, so every index both runs completed must
 * have served the same prediction.
 */
void
checkSamePredictions(const StreamRun &a, const StreamRun &b,
                     const std::string &what, Outcome &out)
{
    std::size_t compared = 0;
    for (std::uint64_t i : b.completed) {
        if (i >= a.doneNs.size() || a.doneNs[i] < 0)
            continue;
        ++compared;
        out.check(a.report.predictions[i] == b.report.predictions[i],
                  what + ": frame " + std::to_string(i) +
                      " served different predictions");
    }
    out.check(compared > 0, what + ": no completed frame in common");
}

/**
 * Mean of @p joules over frame indices 0..kEnergyFrames-1, in mJ. A
 * fixed set of indices, so the simulated energy repeats exactly for a
 * seed however fast the host ran; every index must have completed.
 */
double
prefixMj(const StreamRun &run, const std::vector<double> &joules,
         const std::string &what, Outcome &out)
{
    bool done = run.doneNs.size() >= kEnergyFrames;
    double sum = 0.0;
    for (std::uint64_t i = 0; done && i < kEnergyFrames; ++i) {
        done = run.doneNs[i] >= 0;
        sum += joules[i];
    }
    out.check(done, what + ": frames 0.." +
                        std::to_string(kEnergyFrames - 1) +
                        " did not all complete");
    return sum * 1e3 / static_cast<double>(kEnergyFrames);
}

/** Frames a run of @p seconds can offer, with room to spare. */
std::uint64_t
frameBound(Pipeline kind, Loop loop, double seconds)
{
    const double rate = kind == Pipeline::Analog ? 50.0
                        : loop == Loop::Open     ? kOpenLoopFps * 2.0
                                                 : kMaxDigitalFps;
    return static_cast<std::uint64_t>(seconds * rate + 256.0);
}

/** Re-derive a sample of served predictions frame-serially. */
void
checkAgainstReference(Pipeline kind, Reference &ref,
                      const TrainedModel &model, std::uint64_t seed,
                      const StreamRun &run, Outcome &out)
{
    const ReplayOrder order(model.val.size(), seed);
    const std::size_t want = kind == Pipeline::Analog ? kRefAnalogFrames
                                                      : kRefDigitalFrames;
    const std::size_t step =
        std::max<std::size_t>(1, run.completed.size() / want);
    std::size_t checked = 0;
    for (std::size_t k = 0; k < run.completed.size() && checked < want;
         k += step, ++checked) {
        const std::uint64_t i = run.completed[k];
        Tensor sensed = ref.sense(model.val, order.slotOf(i), i);
        std::int32_t pred;
        if (kind == Pipeline::Analog) {
            arch::RedEyeDevice dev = ref.device(i);
            arch::DeviceRun dr = dev.run(*ref.full, ref.analogLayers, sensed);
            pred = argmax(ref.tail->forward(dr.features));
        } else {
            pred = argmax(ref.full->forward(sensed));
        }
        out.check(pred == run.report.predictions[i],
                  std::string(pipelineName(kind)) + ": frame " +
                      std::to_string(i) +
                      " served a prediction the serial reference "
                      "does not reproduce");
    }
}

void
putPercentiles(Metrics &m, const std::string &prefix,
               const std::vector<double> &samples_ms,
               std::initializer_list<double> ps,
               std::vector<std::string> &notes)
{
    for (double p : ps) {
        const std::string name =
            prefix + "_p" + std::to_string(static_cast<int>(p)) + "_ms";
        if (auto v = reportablePercentile(samples_ms, p)) {
            m[name] = {*v, "ms"};
        } else {
            notes.push_back(name + ": not reported, " +
                            std::to_string(samples_ms.size()) +
                            " samples leave fewer than " +
                            std::to_string(kMinSamplesBeyond) +
                            " beyond p" +
                            std::to_string(static_cast<int>(p)));
        }
    }
}

std::vector<double>
toMs(const std::vector<double> &seconds)
{
    std::vector<double> ms(seconds.size());
    for (std::size_t i = 0; i < seconds.size(); ++i)
        ms[i] = seconds[i] * 1e3;
    return ms;
}

/** Stream per-layer metrics of a traced run, from its spans. */
void
streamPerLayer(Pipeline kind, const StreamRun &run, const Tracer &tracer,
               Outcome &out)
{
    static const char *kStages[3] = {"sensor", "redeye", "host"};
    const std::string spanNames[3] = {"stream.sensor", "stream.redeye",
                                      "stream.host"};
    const std::size_t n = run.doneNs.size();
    // Per frame index: start and end of every stage span.
    std::vector<std::int64_t> start[3], end[3];
    for (int s = 0; s < 3; ++s) {
        start[s].assign(n, -1);
        end[s].assign(n, -1);
    }
    std::vector<double> service[3];
    for (const Span &sp : tracer.spans()) {
        for (int s = 0; s < 3; ++s) {
            if (sp.name == spanNames[s] && sp.traceId < n) {
                start[s][sp.traceId] = sp.startNs;
                end[s][sp.traceId] = sp.endNs;
                service[s].push_back(sp.ms());
            }
        }
    }
    std::vector<double> wait[3];
    for (std::uint64_t i : run.completed) {
        std::int64_t prev_end = run.emitNs[i];
        for (int s = 0; s < 3; ++s) {
            if (start[s][i] < 0 || prev_end < 0)
                break;
            wait[s].push_back(msBetween(prev_end, start[s][i]));
            prev_end = end[s][i];
        }
    }

    Metrics &m = out.perLayer;
    if (kind == Pipeline::Analog) {
        putPercentiles(m, "stream.redeye.service",
                       service[1], {50.0}, out.notes);
        for (int s = 0; s < 3; ++s) {
            double busy = 0.0;
            for (double v : service[s])
                busy += v * 1e-3;
            m[std::string("stream.") + kStages[s] + ".busy_frac"] = {
                busy / (static_cast<double>(run.workers[s]) * run.wallS),
                "ratio"};
        }
    } else {
        for (int s : {0, 2}) {
            putPercentiles(m, std::string("stream.") + kStages[s] +
                                  ".service",
                           service[s], {50.0, 90.0}, out.notes);
        }
        for (int s = 0; s < 3; ++s) {
            putPercentiles(m, std::string("stream.") + kStages[s] +
                                  ".wait",
                           wait[s], {50.0, 90.0}, out.notes);
        }
        putPercentiles(m, "stream.source.late", toMs(run.latenessS),
                       {99.0}, out.notes);
    }
}

} // namespace

void
runStreamWorkload(Pipeline kind, const TrainedModel &model,
                  const RunOptions &opt, Tracer *tracer, Outcome &out)
{
    const std::string name = pipelineName(kind);
    const stream::VisionConfig cfg = visionConfig(kind, model);
    const Loop loop = loopOf(kind);
    // digital-open serves its camera for the first share of the
    // seconds and measures capacity closed loop for the rest.
    const double own_s =
        kind == Pipeline::Analog ? opt.seconds : opt.seconds * kOpenLoopShare;
    const double capacity_s = opt.seconds - own_s;
    const std::uint64_t frames = frameBound(kind, loop, own_s);

    out.meta["threads.source"] = "1";
    out.meta["threads.sensor"] = std::to_string(cfg.sensorWorkers);
    out.meta["threads.redeye"] = std::to_string(cfg.deviceWorkers);
    out.meta["threads.host"] = std::to_string(cfg.hostWorkers);
    out.meta["threads.host_gemm"] = std::to_string(cfg.hostThreads);
    out.meta["config"] =
        kind == Pipeline::Analog
            ? "depth 1, 40 dB, 4-bit ADC, trained weights; closed loop: "
              "block admission, unpaced source, queue bound 1"
            : "depth 1, all columns dead -> bypass to full digital net; "
              "first half open loop: Poisson 300 fps, drop-oldest, queue "
              "bound 8, hostBatch 1; second half closed loop for capacity: "
              "block admission, unpaced source, queue bound 8";

    out.check(cfg.deviceWorkers == 1 && cfg.hostWorkers == 1,
              name + ": the CPU meter needs one worker per stage");
    const Setup setup = setupSeconds(kind, model);
    const StreamRun run =
        runStream(kind, loop, model, opt.seed, own_s, frames, nullptr);
    checkRun(run, name, out);
    std::optional<StreamRun> capacity;
    if (kind == Pipeline::Digital) {
        capacity = runStream(kind, Loop::Closed, model, opt.seed, capacity_s,
                             frameBound(kind, Loop::Closed, capacity_s),
                             nullptr);
        checkRun(*capacity, name + " (closed loop)", out);
        checkSamePredictions(run, *capacity, name + ": open and closed loop",
                             out);
    }
    // The closed-loop run: capacity (fps) and the simulated energy of a
    // fixed prefix of frame indices, which Block admission completes.
    const StreamRun &closed = capacity ? *capacity : run;
    if (run.completed.size() < 2 || closed.completed.size() < 2)
        return;
    Reference ref(kind, model);
    checkAgainstReference(kind, ref, model, opt.seed, run, out);

    out.attempted = run.report.framesOffered;
    out.failed = run.report.framesFailed;
    if (capacity) {
        out.attempted += capacity->report.framesOffered;
        out.failed += capacity->report.framesFailed;
    }

    Metrics &m = out.endToEnd;
    m["setup_s"] = {setup.cpuS, "s"};
    m["setup_wall_s"] = {setup.wallS, "s"};
    m["capacity_fps"] = {closed.capacityFps(kind), "1/s"};
    static const char *kStageNames[3] = {"sensor", "redeye", "host"};
    std::string by_stage = "capacity_fps by stage (unscaled CPU fast end):";
    for (int s = 0; s < 3; ++s) {
        const CpuMeter &meter = closed.meters[s];
        by_stage += std::string(s ? ", " : " ") + kStageNames[s] + " " +
                    std::to_string(meter.capacityFps(framesPerCpu(kind))) +
                    " (" + std::to_string(meter.cpuFps(framesPerCpu(kind))) +
                    ")";
    }
    out.notes.push_back(by_stage);
    m["fps"] = {closed.fps, "1/s"};
    // An open-loop run whose generator ran late offered another
    // schedule than it claims. A stolen or busy vCPU makes it late
    // (cpus.hh), not the program, so its outputs stay checked and its
    // closed-loop figures stand, but its latency and drops are void.
    bool schedule_valid = true;
    if (loop == Loop::Open) {
        const std::vector<double> late_ms = toMs(run.latenessS);
        putPercentiles(m, "source_late", late_ms, {99.0}, out.notes);
        const double late_p99 = percentile(late_ms, 99.0);
        schedule_valid = late_p99 <= kMaxLateP99Ms;
        out.meta["open_loop_schedule"] =
            schedule_valid ? "valid"
                           : "void: generator p99 lateness " +
                                 std::to_string(late_p99) + " ms > " +
                                 std::to_string(kMaxLateP99Ms) + " ms";
    }
    const std::vector<double> lat_ms = toMs(run.latencyS);
    if (schedule_valid) {
        putPercentiles(m, "latency", lat_ms,
                       kind == Pipeline::Analog
                           ? std::initializer_list<double>{50.0, 90.0}
                           : std::initializer_list<double>{50.0, 90.0, 99.0},
                       out.notes);
    } else {
        out.notes.push_back("latency and drop_frac void: " +
                            out.meta["open_loop_schedule"]);
    }
    m["latency_samples"] = {static_cast<double>(lat_ms.size()), "count"};
    m["failed_frac"] = {static_cast<double>(out.failed) /
                            static_cast<double>(out.attempted),
                        "ratio"};
    const double served_top1 = top1(run);
    m["top1"] = {served_top1, "ratio"};
    if (kind == Pipeline::Analog) {
        const double analog_mj = prefixMj(closed, closed.analogJ, name, out);
        m["analog_mj_per_frame"] = {analog_mj, "mJ"};
        m["sim_mj_per_frame"] = {analog_mj, "mJ"};

        // Accuracy floor: the noise-free digital network on the
        // clean pixels of the same completed frames.
        const ReplayOrder order(model.val.size(), opt.seed);
        std::size_t hits = 0;
        Tensor clean;
        for (std::uint64_t i : run.completed) {
            model.val.images.sliceInto(order.slotOf(i), clean);
            hits += argmax(ref.full->forward(clean)) == run.labels[i];
        }
        const double digital_top1 =
            static_cast<double>(hits) /
            static_cast<double>(run.completed.size());
        m["digital_top1"] = {digital_top1, "ratio"};
        out.check(served_top1 >= digital_top1 - kTop1Allowance,
                  name + ": top1 " + std::to_string(served_top1) +
                      " below the floor " +
                      std::to_string(digital_top1 - kTop1Allowance) +
                      " set by the noise-free digital network");
    } else {
        m["sim_mj_per_frame"] = {prefixMj(closed, closed.systemJ, name, out),
                                 "mJ"};
        m["open_fps"] = {run.fps, "1/s"};
        if (schedule_valid) {
            m["drop_frac"] = {
                static_cast<double>(run.report.framesDropped) /
                    static_cast<double>(run.report.framesOffered),
                "ratio"};
        }
    }

    if (!tracer)
        return;

    // Traced rerun of the same workload: same seed, same frames. The
    // stream per-layer figures come from the workload's own loop, and
    // are read before the closed-loop rerun adds its spans.
    const StreamRun traced =
        runStream(kind, loop, model, opt.seed, own_s, frames, tracer);
    checkRun(traced, name + " (traced)", out);
    checkSamePredictions(run, traced, name + ": traced and untraced", out);
    streamPerLayer(kind, traced, *tracer, out);
    double traced_fps = traced.capacityFps(kind);
    if (capacity) {
        const StreamRun traced_capacity =
            runStream(kind, Loop::Closed, model, opt.seed, capacity_s,
                      frameBound(kind, Loop::Closed, capacity_s), tracer);
        checkRun(traced_capacity, name + " (closed loop, traced)", out);
        checkSamePredictions(*capacity, traced_capacity,
                             name + ": traced and untraced closed loop", out);
        traced_fps = traced_capacity.capacityFps(kind);
    }
    const double fps = closed.capacityFps(kind);
    out.perLayer["trace.overhead_frac"] = {(fps - traced_fps) / fps,
                                           "ratio"};
    out.notes.push_back("tracing overhead: capacity_fps " +
                        std::to_string(fps) +
                        " untraced vs " + std::to_string(traced_fps) +
                        " traced");
}

void
censusStream(Pipeline kind, const TrainedModel &model, std::uint64_t seed,
             Tracer &tracer, Outcome &out)
{
    const std::uint64_t frames = kind == Pipeline::Analog
                                     ? kCensusAnalogFrames
                                     : kCensusDigitalFrames;
    const StreamRun run =
        runStream(kind, loopOf(kind), model, seed, 0.0, frames, &tracer);
    checkConservation(run, std::string(pipelineName(kind)) + " (census)",
                      out);
    streamPerLayer(kind, run, tracer, out);
}

void
drillAnalog(const TrainedModel &model, std::uint64_t seed, Tracer &tracer,
            Outcome &out)
{
    Reference ref(Pipeline::Analog, model);
    const ReplayOrder order(model.val.size(), seed);
    nn::Network &net = *ref.full;

    // Compiler and ProgramCache: one miss, then a hit.
    arch::RedEyeConfig rcfg;
    rcfg.adcBits = kAdcBits;
    rcfg.convSnrDb = kSnrDb;
    arch::ProgramCache cache;
    std::size_t macs = 0;
    {
        ScopedSpan sp(&tracer, "redeye.compile", 0);
        auto prog = cache.compileOrStatus(net, ref.analogLayers, rcfg);
        out.check(prog.ok(), "redeye: depth-1 prefix does not compile");
        if (prog.ok())
            macs = prog.value()->totalMacs();
    }
    {
        ScopedSpan sp(&tracer, "redeye.compile.cached", 0);
        (void)cache.compileOrStatus(net, ref.analogLayers, rcfg);
    }
    out.check(cache.hits() == 1 && cache.misses() == 1,
              "redeye: ProgramCache did not serve the second fetch");

    auto &conv = static_cast<nn::ConvolutionLayer &>(
        net.layer(ref.analogLayers[0]));
    auto &pool = static_cast<nn::MaxPoolLayer &>(
        net.layer(ref.analogLayers[2]));

    std::vector<double> sensor_ms, run_ms, conv_ms, pool_ms, adc_ms;
    std::vector<double> covered_ms;
    arch::EnergyBreakdown energy;
    double forced = 0.0;
    const std::vector<int> &cpus = allowedCpus();
    const std::size_t frames = std::max(kDrillAnalogFrames, cpus.size());
    for (std::uint64_t i = 0; i < frames; ++i) {
        // Each frame runs both ways on one CPU, in alternating order,
        // so the coverage ratio compares like with like (cpus.hh).
        ScopedPin pin(cpus[i % cpus.size()]);
        ScopedSpan frame(&tracer, "redeye.drill", i);
        Tensor sensed;
        {
            ScopedSpan sp(&tracer, "noise.sensor", i, frame.id());
            sensed = ref.sense(model.val, order.slotOf(i), i);
        }
        sensor_ms.push_back(tracer.durationsMs("noise.sensor").back());

        arch::DeviceRun whole;
        auto runDevice = [&] {
            arch::RedEyeDevice dev = ref.device(i);
            ScopedSpan sp(&tracer, "redeye.device.run", i, frame.id());
            const std::int64_t t0 = nowNs();
            whole = dev.run(net, ref.analogLayers, sensed);
            run_ms.push_back(msBetween(t0, nowNs()));
        };

        // The same frame, one ColumnArray call at a time. The device
        // hands its array rng.fork() and keeps rng for LRN/avg-pool
        // noise, which the depth-1 prefix never draws.
        Tensor features;
        arch::EnergyBreakdown e;
        std::size_t decisions = 0;
        auto runLayers = [&] {
            Rng rng(streamRng(ref.cfg.deviceSeed, 0, i).raw());
            arch::ColumnArray array(ref.array,
                                    analog::ProcessParams::typical(),
                                    rng.fork());
            ScopedSpan prefix(&tracer, "redeye.prefix", i, frame.id());
            const std::int64_t t0 = nowNs();
            Tensor a = array.runConvolution(sensed, conv, true);
            const std::int64_t t1 = nowNs();
            for (std::size_t k = 0; k < a.size(); ++k)
                a[k] = std::max(0.0f, a[k]); // conv1/relu, as the device
            const std::int64_t t2 = nowNs();
            Tensor p = array.runMaxPool(a, pool);
            const std::int64_t t3 = nowNs();
            features = array.runQuantization(p);
            const std::int64_t t4 = nowNs();
            tracer.record("redeye.conv1", i, prefix.id(), t0, t1);
            tracer.record("redeye.pool1", i, prefix.id(), t2, t3);
            tracer.record("redeye.adc", i, prefix.id(), t3, t4);
            conv_ms.push_back(msBetween(t0, t1));
            pool_ms.push_back(msBetween(t2, t3));
            adc_ms.push_back(msBetween(t3, t4));
            covered_ms.push_back(msBetween(t0, t1) + msBetween(t2, t4));
            e = array.energy();
            decisions = array.forcedDecisions();
        };
        if (i % 2 == 0) {
            runDevice();
            runLayers();
        } else {
            runLayers();
            runDevice();
        }
        energy.macJ += e.macJ;
        energy.memoryJ += e.memoryJ;
        energy.comparatorJ += e.comparatorJ;
        energy.readoutJ += e.readoutJ;
        forced += static_cast<double>(decisions);

        bool same = features.size() == whole.features.size();
        for (std::size_t k = 0; same && k < features.size(); ++k)
            same = features[k] == whole.features[k];
        out.check(same, "redeye: frame " + std::to_string(i) +
                            ": layer-by-layer ColumnArray calls differ "
                            "from RedEyeDevice::run");
    }

    const auto n = static_cast<double>(frames);
    const double run_med = median(run_ms);
    std::vector<double> ratios;
    for (std::size_t k = 0; k < run_ms.size(); ++k)
        ratios.push_back(covered_ms[k] / run_ms[k]);
    const double cover = median(ratios);
    Metrics &m = out.perLayer;
    m["noise.sensor.ms"] = {median(sensor_ms), "ms"};
    m["redeye.device.run_ms"] = {run_med, "ms"};
    m["redeye.conv1.ms"] = {median(conv_ms), "ms"};
    m["redeye.pool1.ms"] = {median(pool_ms), "ms"};
    m["redeye.adc.ms"] = {median(adc_ms), "ms"};
    m["redeye.layer_cover_frac"] = {cover, "ratio"};
    m["redeye.macs_per_frame"] = {static_cast<double>(macs), "count"};
    m["redeye.ns_per_mac"] = {run_med * 1e6 / static_cast<double>(macs),
                              "ns"};
    m["redeye.compile_ms"] = {
        tracer.durationsMs("redeye.compile").front(), "ms"};
    m["redeye.energy.mac_mj"] = {energy.macJ * 1e3 / n, "mJ"};
    m["redeye.energy.memory_mj"] = {energy.memoryJ * 1e3 / n, "mJ"};
    m["redeye.energy.comparator_mj"] = {energy.comparatorJ * 1e3 / n, "mJ"};
    m["redeye.energy.readout_mj"] = {energy.readoutJ * 1e3 / n, "mJ"};
    m["redeye.forced_decisions"] = {forced / n, "count"};
    // Each pair runs twice 0.5-0.8 s apart, and a neighbour's burst can
    // skew one of them by up to 25%. So the check fails only when the
    // median's 95% interval lies wholly outside 1 +- 5%.
    const Interval ci = medianInterval(ratios);
    out.notes.push_back("redeye.layer_cover_frac 95% interval [" +
                        std::to_string(ci.lo) + ", " +
                        std::to_string(ci.hi) + "]");
    out.check(ci.lo <= 1.05 && ci.hi >= 0.95,
              "redeye: analog layer spans cover " + std::to_string(cover) +
                  " of RedEyeDevice::run; its 95% interval [" +
                  std::to_string(ci.lo) + ", " + std::to_string(ci.hi) +
                  "] lies outside 5%");
}

void
drillDigital(const TrainedModel &model, std::uint64_t seed, Tracer &tracer,
             Outcome &out)
{
    Reference ref(Pipeline::Digital, model);
    const ReplayOrder order(model.val.size(), seed);
    nn::Network &net = *ref.full;

    // Sensor-sampled inputs first, so the timed loop is forwards only.
    std::vector<Tensor> inputs;
    for (std::uint64_t i = 0; i < kDrillDigitalFrames; ++i)
        inputs.push_back(ref.sense(model.val, order.slotOf(i), i));

    ExecContext ctx;
    std::uint64_t frame = 0;
    std::uint64_t parent = 0;
    std::map<std::string, double> layer_ms;
    ctx.setLayerTimer([&](const std::string &layer, double seconds) {
        const std::int64_t t1 = nowNs();
        const auto t0 = t1 - static_cast<std::int64_t>(seconds * 1e9);
        tracer.record("nn." + layer, frame, parent, t0, t1);
        layer_ms[layer] += seconds * 1e3;
    });
    net.forward(inputs[0], ctx); // warm activation plans
    layer_ms.clear();

    std::vector<double> forward_ms;
    for (frame = 0; frame < kDrillDigitalFrames; ++frame) {
        ScopedSpan sp(&tracer, "nn.forward", frame);
        parent = sp.id();
        const std::int64_t t0 = nowNs();
        net.forward(inputs[frame], ctx);
        forward_ms.push_back(msBetween(t0, nowNs()));
    }
    const double forward_total =
        std::accumulate(forward_ms.begin(), forward_ms.end(), 0.0);
    const auto n = static_cast<double>(kDrillDigitalFrames);

    // Coverage: the share of Network::forward its layer spans cover,
    // i.e. one minus the forward spans' self time.
    const std::vector<Span> spans = tracer.spans();
    const auto self = selfTimesNs(spans);
    double self_ms = 0.0;
    double spanned_ms = 0.0;
    for (const Span &sp : spans) {
        if (sp.name == "nn.forward") {
            self_ms += static_cast<double>(self.at(sp.id)) * 1e-6;
            spanned_ms += sp.ms();
        }
    }

    Metrics &m = out.perLayer;
    m["nn.forward_ms"] = {median(forward_ms), "ms"};
    m["nn.gflops"] = {2.0 * static_cast<double>(net.totalMacs()) * n /
                          (forward_total * 1e-3) * 1e-9,
                      "GFLOP/s"};
    const double cover = 1.0 - self_ms / spanned_ms;
    m["nn.layer_cover_frac"] = {cover, "ratio"};
    // The six heaviest layers by time on a 4-vCPU Xeon VM: the max
    // pools outweigh the GEMM-backed convolutions.
    for (const char *layer : {"pool1", "inception_b/pool", "conv1", "conv2",
                              "pool2", "inception_b/3x3"}) {
        std::string key = std::string("nn.") + layer + ".ms";
        std::replace(key.begin(), key.end(), '/', '.');
        m[key] = {layer_ms[layer] / n, "ms"};
        out.check(layer_ms.count(layer) > 0,
                  std::string("nn: no layer named ") + layer);
    }
    out.check(std::abs(cover - 1.0) <= 0.05,
              "nn: layer spans cover " + std::to_string(cover) +
                  " of Network::forward, outside 5%");
}

} // namespace perfbench
