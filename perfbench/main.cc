/**
 * @file
 * perfbench_redeye: one benchmark invocation.
 *
 *   perfbench_redeye --workload analog-closed|digital-open|fleet-chaos
 *                    --seed N --seconds S --trace 0|1
 *                    [--cache-dir DIR] [--out-dir DIR] [--commit SHA]
 *   perfbench_redeye --prepare [--cache-dir DIR]
 *
 * Prints a human-readable report, writes the full result (run
 * metadata, every metric, every violation) to
 * OUT/result-<workload>-<seed>-t<trace>.json and, with --trace 1, the
 * spans to OUT/trace-<workload>-<seed>.json. The last stdout line is
 * the full result as one JSON object; run.py reduces it to the
 * metrics BENCHMARK.json declares. Exit status 0 means every
 * correctness check passed.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "cpus.hh"
#include "workloads.hh"

using namespace perfbench;

void
perfbench::Outcome::check(bool ok, const std::string &what)
{
    if (!ok)
        violations.push_back(what);
}

namespace {

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c == '\n' ? ' ' : c);
    }
    return out + "\"";
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
metricsJson(const Metrics &m)
{
    std::ostringstream os;
    os << "{";
    const char *sep = "";
    for (const auto &[name, metric] : m) {
        os << sep << quote(name) << ":{\"value\":" << number(metric.value)
           << ",\"unit\":" << quote(metric.unit) << "}";
        sep = ",";
    }
    os << "}";
    return os.str();
}

std::string
resultJson(const RunOptions &opt, const Outcome &out)
{
    std::ostringstream os;
    os << "{\"workload\":" << quote(opt.workload)
       << ",\"seed\":" << opt.seed << ",\"seconds\":" << number(opt.seconds)
       << ",\"trace\":" << (opt.trace ? 1 : 0)
       << ",\"correct\":" << (out.violations.empty() ? "true" : "false")
       << ",\"attempted\":" << out.attempted
       << ",\"failed\":" << out.failed << ",\"violations\":[";
    const char *sep = "";
    for (const std::string &v : out.violations) {
        os << sep << quote(v);
        sep = ",";
    }
    os << "],\"meta\":{";
    sep = "";
    for (const auto &[k, v] : out.meta) {
        os << sep << quote(k) << ":" << quote(v);
        sep = ",";
    }
    os << "},\"end_to_end\":" << metricsJson(out.endToEnd)
       << ",\"per_layer\":" << metricsJson(out.perLayer) << "}";
    return os.str();
}

void
printMetrics(const char *title, const Metrics &m)
{
    std::cout << title << "\n";
    for (const auto &[name, metric] : m) {
        std::cout << "  " << name << " = " << number(metric.value) << " "
                  << metric.unit << "\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opt;
    std::string commit = "unknown";
    bool prepare = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--prepare") {
            prepare = true;
            continue;
        }
        if (i + 1 >= argc) {
            std::cerr << "flag " << arg << " needs a value\n";
            return 2;
        }
        const std::string value = argv[++i];
        if (arg == "--workload")
            opt.workload = value;
        else if (arg == "--seed")
            opt.seed = std::stoull(value);
        else if (arg == "--seconds")
            opt.seconds = std::stod(value);
        else if (arg == "--trace")
            opt.trace = value == "1";
        else if (arg == "--cache-dir")
            opt.cacheDir = value;
        else if (arg == "--out-dir")
            opt.outDir = value;
        else if (arg == "--commit")
            commit = value;
        else {
            std::cerr << "unknown flag " << arg << "\n";
            return 2;
        }
    }
    if (prepare) {
        // Train once and cache the weights, outside any timed run.
        loadTrainedModel(opt.cacheDir);
        return 0;
    }
    const bool analog = opt.workload == "analog-closed";
    const bool digital = opt.workload == "digital-open";
    const bool fleet = opt.workload == "fleet-chaos";
    if (!analog && !digital && !fleet) {
        std::cerr << "unknown workload '" << opt.workload
                  << "' (analog-closed | digital-open | fleet-chaos)\n";
        return 2;
    }

    // Record the CPU mask before any thread narrows its own (cpus.hh).
    (void)allowedCpus();

    Outcome out;
    out.meta["commit"] = commit;
    out.meta["nproc"] = std::to_string(std::thread::hardware_concurrency());
    out.meta["build_type"] = PERFBENCH_BUILD_TYPE;
    out.meta["cxx_flags"] = PERFBENCH_CXX_FLAGS;
    out.meta["compiler"] = PERFBENCH_COMPILER;
    out.meta["seed"] = std::to_string(opt.seed);
    out.meta["seconds"] = number(opt.seconds);

    // One-time weight training is cached before anything is timed.
    std::shared_ptr<const TrainedModel> model;
    if (!fleet || opt.trace)
        model = loadTrainedModel(opt.cacheDir);

    std::vector<std::pair<std::string, std::unique_ptr<Tracer>>> tracers;
    auto newTracer = [&](const std::string &label) -> Tracer & {
        tracers.emplace_back(label, std::make_unique<Tracer>());
        return *tracers.back().second;
    };
    Tracer *own = opt.trace ? &newTracer(opt.workload) : nullptr;

    if (fleet)
        runFleetWorkload(opt, own, out);
    else
        runStreamWorkload(analog ? Pipeline::Analog : Pipeline::Digital,
                          *model, opt, own, out);
    out.endToEnd["peak_rss_mb"] = {peakRssMb(), "MB"};

    if (opt.trace) {
        // Census: every per-layer metric on its own workload, so each
        // traced run reports the same set whatever its workload.
        if (!analog)
            censusStream(Pipeline::Analog, *model, opt.seed,
                         newTracer("census analog-closed"), out);
        if (!digital)
            censusStream(Pipeline::Digital, *model, opt.seed,
                         newTracer("census digital-open"), out);
        if (!fleet)
            censusFleet(opt.seed, newTracer("census fleet-chaos"), out);
        drillAnalog(*model, opt.seed, newTracer("drill redeye"), out);
        drillDigital(*model, opt.seed, newTracer("drill nn"), out);

        std::vector<std::pair<std::string, const Tracer *>> procs;
        std::size_t spans = 0;
        for (const auto &[label, tracer] : tracers) {
            procs.emplace_back(label, tracer.get());
            spans += tracer->spans().size();
        }
        const std::string path = opt.outDir + "/trace-" + opt.workload +
                                 "-" + std::to_string(opt.seed) + ".json";
        out.check(writeChromeTrace(path, procs),
                  "cannot write trace " + path);
        out.perLayer["trace.spans"] = {static_cast<double>(spans),
                                       "count"};
        out.notes.push_back("trace: " + std::to_string(spans) +
                            " spans written to " + path);
    }

    std::cout << "workload " << opt.workload << ", seed " << opt.seed
              << ", " << opt.seconds << " s"
              << (opt.trace ? ", traced" : "") << "\n";
    for (const auto &[k, v] : out.meta)
        std::cout << "  meta " << k << ": " << v << "\n";
    printMetrics("end-to-end (untraced run):", out.endToEnd);
    if (opt.trace)
        printMetrics("per-layer (traced run and census):", out.perLayer);
    for (const std::string &n : out.notes)
        std::cout << "  note: " << n << "\n";
    for (const std::string &v : out.violations)
        std::cout << "  VIOLATION: " << v << "\n";

    const std::string result = resultJson(opt, out);
    const std::string result_path =
        opt.outDir + "/result-" + opt.workload + "-" +
        std::to_string(opt.seed) + "-t" + (opt.trace ? "1" : "0") + ".json";
    std::ofstream(result_path) << result << "\n";
    std::cout << result << std::endl;
    return out.violations.empty() ? 0 : 1;
}
