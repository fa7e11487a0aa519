/**
 * @file
 * The benchmark's workloads and the per-layer census of its traced
 * run. See README.md for why each workload exists and what each
 * metric means.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hh"

namespace perfbench {

/** One reported number and its unit. */
struct Metric {
    double value = 0.0;
    std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/** Command-line knobs of one benchmark invocation. */
struct RunOptions {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string cacheDir = "."; ///< trained-weight cache
    std::string outDir = ".";   ///< trace and result files
};

/** Everything one invocation measured and checked. */
struct Outcome {
    Metrics endToEnd; ///< untraced run, by the names in README.md
    Metrics perLayer; ///< traced run (only with --trace 1)
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> violations; ///< correctness failures
    std::map<std::string, std::string> meta;
    std::vector<std::string> notes; ///< human-readable report lines

    /** Record a correctness check; a false @p ok is a violation. */
    void check(bool ok, const std::string &what);
};

/** Trained MiniGoogLeNet plus its held-out validation set. */
struct TrainedModel;

/** Load (or train once and cache) the trained model. */
std::shared_ptr<const TrainedModel> loadTrainedModel(
    const std::string &cache_dir);

/** The two stream pipelines. */
enum class Pipeline { Analog, Digital };

/**
 * Run a stream workload (analog-closed or digital-open) for
 * opt.seconds untraced, filling end-to-end metrics and checks. With
 * opt.trace it also runs the same workload traced and fills the
 * stream per-layer metrics of @p kind and the tracing overhead.
 */
void runStreamWorkload(Pipeline kind, const TrainedModel &model,
                       const RunOptions &opt, Tracer *tracer,
                       Outcome &out);

/**
 * Short frame-limited traced run of a stream pipeline that is not
 * the invocation's own workload: fills the stream per-layer metrics
 * of @p kind so every traced run reports the full census.
 */
void censusStream(Pipeline kind, const TrainedModel &model,
                  std::uint64_t seed, Tracer &tracer, Outcome &out);

/**
 * Frame-serial drill-down of the analog prefix (sensor sampling,
 * RedEyeDevice::run, then ColumnArray conv/pool/ADC called one by
 * one) and of the compiler and ProgramCache.
 */
void drillAnalog(const TrainedModel &model, std::uint64_t seed,
                 Tracer &tracer, Outcome &out);

/** Digital network drill-down through ExecContext's layer timer. */
void drillDigital(const TrainedModel &model, std::uint64_t seed,
                  Tracer &tracer, Outcome &out);

/**
 * The fleet-chaos workload: repeated FleetEngine construction and
 * run() for opt.seconds, untraced; with a @p tracer it then runs
 * again traced and fills the fleet per-layer metrics.
 */
void runFleetWorkload(const RunOptions &opt, Tracer *tracer,
                      Outcome &out);

/** One traced fleet-chaos iteration, for another workload's census. */
void censusFleet(std::uint64_t seed, Tracer &tracer, Outcome &out);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
