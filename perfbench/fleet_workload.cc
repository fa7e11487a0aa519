/**
 * @file
 * fleet-chaos: the virtual-time fleet simulator under a scripted
 * kill/recover schedule with the auto-tuner on.
 *
 * The workload constructs and runs FleetEngine repeatedly for the
 * measured seconds, over kFleets fleets whose engine seeds derive
 * from the run's seed. Every repetition of a fleet must produce the
 * same simulated report (the engine is a pure function of its
 * config), so host-time metrics are read over repetitions (medians
 * of CPU times scaled to the reference speed for the gated ones,
 * medians of wall times for the per-layer ones) while the
 * virtual-time and energy results repeat exactly. The simulated
 * metrics are fleet 0's.
 */

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

#include "bench_stats.hh"
#include "core/rng.hh"
#include "cpus.hh"
#include "fleet/engine.hh"
#include "workloads.hh"

namespace perfbench {

using namespace redeye;

namespace {

// Fleet size: bench/fleet_chaos scaled up 4x in clients, devices and
// hosts (same per-device load), so one run() takes 0.7-1.2 s of host
// time on one thread and a run fits four rotations over four CPUs
// (cpus.hh).
constexpr std::size_t kScale = 4;
constexpr std::size_t kClients = 96 * kScale;
constexpr std::size_t kDevices = 16 * kScale;
constexpr std::size_t kHosts = 16 * kScale;
constexpr std::uint64_t kFramesPerClient = 48;
constexpr double kClientRateHz = 2.0;
constexpr double kKillFrac = 0.3;
constexpr double kKillAtS = 4.2;
constexpr double kRecoverAtS = 12.0;
constexpr double kDeadFrac = 0.9;
/**
 * Fleets a run simulates, each from its own engine seed derived from
 * the run's seed. A seed sets the chaos outcome, and with it the
 * retries and hedges a run() simulates: one fleet's cost per frame
 * moves by up to 20% between seeds, four fleets' by half that.
 */
constexpr std::size_t kFleets = 4;
/** Rotations a run makes at least: each fleet on every CPU once. */
constexpr std::size_t kMinRotations = kFleets;
/** FleetEngine constructions per CPU; their scaled median is setup_s. */
constexpr int kCtorRepeats = 10;

std::uint64_t
fleetSeed(std::uint64_t seed)
{
    return splitmix64(seed ^ 0x666c656574ULL); // 'fleet'
}

/** The config of fleet @p fleet (< kFleets) of a run seeded @p seed. */
fleet::FleetConfig
chaosConfig(std::uint64_t seed, std::size_t fleet)
{
    fleet::FleetConfig cfg;
    cfg.sessions = kClients;
    cfg.framesPerSession = kFramesPerClient;
    cfg.sessionRateHz = kClientRateHz;
    cfg.seed = splitmix64(fleetSeed(seed) + fleet);
    cfg.pool.devices = kDevices;
    cfg.pool.hostWorkers = kHosts;
    cfg.queueCapacity = 256 * kScale;
    cfg.ft.enabled = true;
    cfg.ft.probePeriodS = 0.5;
    cfg.windowS = 2.0;

    const auto kills = static_cast<std::size_t>(
        kKillFrac * static_cast<double>(kDevices));
    for (std::size_t i = 0; i < kills; ++i) {
        fleet::ChaosEvent kill;
        kill.timeS = kKillAtS;
        kill.device = i;
        kill.kind = fleet::ChaosEvent::Kind::Kill;
        kill.deadFraction = kDeadFrac;
        cfg.chaos.push_back(kill);
    }
    for (std::size_t i = 0; i < kills; i += 2) {
        fleet::ChaosEvent recover;
        recover.timeS = kRecoverAtS;
        recover.device = i;
        recover.kind = fleet::ChaosEvent::Kind::Recover;
        cfg.chaos.push_back(recover);
    }

    // Day -> night: the tuner re-keys sessions as the scene darkens.
    cfg.tune.enabled = true;
    cfg.tune.windowS = 1.0;
    cfg.tune.windowFrames = 4;
    cfg.scenes.push_back({0.0, {2.0, 0.0}, "day"});
    cfg.scenes.push_back({10.0, {14.0, 0.0}, "night"});
    return cfg;
}

/** Every simulated number the workload reports, as text. */
std::string
digest(const fleet::FleetReport &r)
{
    std::ostringstream os;
    os.precision(17);
    os << r.makespanS << ' ' << r.offered << ' ' << r.admitted << ' '
       << r.dropped << ' ' << r.shed << ' ' << r.completed << ' '
       << r.deviceUtilization << ' ' << r.hostUtilization << ' '
       << r.retries << ' ' << r.hedges << ' ' << r.hedgeWins << ' '
       << r.quarantines << ' ' << r.shedDeadline << ' '
       << r.shedUnavailable << ' ' << r.shedResource << ' '
       << r.shedBrownout << ' ' << r.tuneSteps << ' ' << r.retunes
       << ' ' << r.opModelCount << ' ' << r.programCacheHits << ' '
       << r.programCacheMisses << ' ' << r.planCacheHits << ' '
       << r.planCacheMisses;
    for (const fleet::ClassReport &c : r.classes) {
        os << ' ' << c.completed << ' ' << c.shed << ' ' << c.dropped
           << ' ' << c.sloViolations << ' ' << c.p50S << ' ' << c.p99S
           << ' ' << c.meanSystemJ;
    }
    return os.str();
}

struct FleetRuns {
    std::vector<double> ctorS;
    std::vector<double> runS;
    std::uint64_t completed = 0; ///< summed over repetitions
    double runTotalS = 0.0;
    std::vector<std::size_t> fleetOf; ///< fleet of each repetition
    std::vector<double> runCpuS; ///< run()'s thread CPU time (cpus.hh)
    /** Reference kernel speed around each run() (cpus.hh). */
    std::vector<double> refRate;
    /** Each fleet's report, from its first repetition. */
    std::vector<fleet::FleetReport> reports;

    /** Fleet 0's report: the one the simulated metrics come from. */
    const fleet::FleetReport &report() const { return reports.front(); }

    /** Completed simulated frames per host second of run(). */
    double simFps() const
    {
        return static_cast<double>(completed) / runTotalS;
    }

    /**
     * Completed simulated frames per second of run() at the reference
     * speed, over all fleets: their frames over the sum of their
     * median run() CPU times, each scaled by the reference kernel's
     * speed around it (scaledMedianS).
     */
    double capacityFps() const
    {
        return fleetFps([](const std::vector<double> &cpu_s,
                           const std::vector<double> &rates) {
            return scaledMedianS(cpu_s, rates, kReferenceDrawsPerS);
        });
    }

    /** Unscaled: the same over the fast ends of the CPU times. */
    double cpuFps() const
    {
        return fleetFps([](const std::vector<double> &cpu_s,
                           const std::vector<double> &) {
            return fastEnd(cpu_s);
        });
    }

    /** All fleets' frames over the sum of @p time of each fleet's runs. */
    template <typename Time>
    double fleetFps(Time time) const
    {
        double frames = 0.0;
        double seconds = 0.0;
        for (std::size_t f = 0; f < reports.size(); ++f) {
            std::vector<double> cpu_s, rates;
            for (std::size_t k = 0; k < fleetOf.size(); ++k) {
                if (fleetOf[k] == f) {
                    cpu_s.push_back(runCpuS[k]);
                    rates.push_back(refRate[k]);
                }
            }
            frames += static_cast<double>(reports[f].completed);
            seconds += time(cpu_s, rates);
        }
        return frames / seconds;
    }
};

/**
 * Construct and run the engine repeatedly. The thread is pinned to
 * each allowed CPU in turn (cpus.hh); rotation r runs fleet r mod
 * kFleets on every CPU. Whole rounds of kFleets rotations run until
 * about @p seconds have passed, at least @p min_rotations rotations;
 * @p min_rotations == 0 runs fleet 0 exactly once, unpinned.
 */
FleetRuns
repeatFleet(std::uint64_t seed, double seconds, std::size_t min_rotations,
            Tracer *tracer, const std::string &label, Outcome &out)
{
    FleetRuns runs;
    std::vector<fleet::FleetConfig> cfgs;
    for (std::size_t f = 0; f < kFleets; ++f)
        cfgs.push_back(chaosConfig(seed, f));
    std::vector<std::string> first(kFleets);
    const std::vector<int> &cpus = allowedCpus();
    const std::size_t once = min_rotations == 0 ? 1 : 0;
    std::size_t total = once ? 1 : min_rotations * cpus.size();
    const std::int64_t start = nowNs();
    for (std::size_t it = 0; it < total; ++it) {
        const std::size_t f = (it / cpus.size()) % kFleets;
        std::optional<ScopedPin> pin;
        if (!once)
            pin.emplace(cpus[it % cpus.size()]);
        const double before = referenceDrawsPerS();
        const std::int64_t t0 = nowNs();
        fleet::FleetEngine engine(cfgs[f]);
        const std::int64_t t1 = nowNs();
        const std::int64_t cpu1 = threadCpuNs();
        const fleet::FleetReport r = engine.run();
        const std::int64_t t2 = nowNs();
        runs.runCpuS.push_back(static_cast<double>(threadCpuNs() - cpu1) *
                               1e-9);
        runs.refRate.push_back((before + referenceDrawsPerS()) / 2.0);
        runs.fleetOf.push_back(f);
        if (tracer) {
            const std::uint64_t root = tracer->reserveId();
            tracer->record("fleet.ctor", it, root, t0, t1);
            tracer->record("fleet.run", it, root, t1, t2);
            tracer->record(root, "fleet.iteration", it, 0, t0, t2);
        }
        runs.ctorS.push_back(static_cast<double>(t1 - t0) * 1e-9);
        runs.runS.push_back(static_cast<double>(t2 - t1) * 1e-9);
        runs.completed += r.completed;
        runs.runTotalS += runs.runS.back();
        if (!once && it + 1 == cpus.size() * kFleets) {
            // One round of fleets done: size the run to about
            // `seconds`, in whole rounds.
            const double round_s =
                static_cast<double>(nowNs() - start) * 1e-9;
            const auto rounds = static_cast<std::size_t>(
                std::lround(seconds / round_s));
            total = std::max(min_rotations,
                             std::max<std::size_t>(rounds, 1) * kFleets) *
                    cpus.size();
        }

        out.check(r.offered == r.admitted + r.dropped,
                  label + ": offered != admitted + dropped");
        out.check(r.admitted == r.completed + r.shed,
                  label + ": an admitted request reached no terminal "
                          "status (admitted != completed + shed)");
        out.check(r.shed == r.shedDeadline + r.shedUnavailable +
                                r.shedResource + r.shedBrownout,
                  label + ": shed causes do not cover the shed total");
        const std::string d = digest(r);
        if (first[f].empty()) {
            first[f] = d;
            runs.reports.push_back(r);
        } else {
            out.check(d == first[f],
                      label + ": repetition " + std::to_string(it) +
                          " of fleet " + std::to_string(f) +
                          " simulated a different report from the same "
                          "seed");
        }
    }
    return runs;
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den)
               : 0.0;
}

void
fleetPerLayer(const FleetRuns &runs, Outcome &out)
{
    const fleet::FleetReport &r = runs.report();
    Metrics &m = out.perLayer;
    m["fleet.ctor_s"] = {median(runs.ctorS), "s"};
    m["fleet.run_s"] = {median(runs.runS), "s"};
    m["fleet.device_util"] = {r.deviceUtilization, "ratio"};
    m["fleet.host_util"] = {r.hostUtilization, "ratio"};
    m["fleet.retries"] = {static_cast<double>(r.retries), "count"};
    m["fleet.hedges"] = {static_cast<double>(r.hedges), "count"};
    m["fleet.hedge_win_frac"] = {ratio(r.hedgeWins, r.hedges), "ratio"};
    m["fleet.quarantines"] = {static_cast<double>(r.quarantines),
                              "count"};
    m["fleet.shed.deadline"] = {static_cast<double>(r.shedDeadline),
                                "count"};
    m["fleet.shed.unavailable"] = {
        static_cast<double>(r.shedUnavailable), "count"};
    m["fleet.shed.resource"] = {static_cast<double>(r.shedResource),
                                "count"};
    m["fleet.shed.brownout"] = {static_cast<double>(r.shedBrownout),
                                "count"};
    m["cache.program.hit_frac"] = {
        ratio(r.programCacheHits, r.programCacheHits + r.programCacheMisses),
        "ratio"};
    m["cache.plan.hit_frac"] = {
        ratio(r.planCacheHits, r.planCacheHits + r.planCacheMisses),
        "ratio"};
    m["tune.steps"] = {static_cast<double>(r.tuneSteps), "count"};
    m["tune.retunes"] = {static_cast<double>(r.retunes), "count"};
    m["tune.op_models"] = {static_cast<double>(r.opModelCount), "count"};
}

} // namespace

void
censusFleet(std::uint64_t seed, Tracer &tracer, Outcome &out)
{
    fleetPerLayer(
        repeatFleet(seed, 0.0, 0, &tracer, "fleet-chaos (census)", out),
        out);
}

void
runFleetWorkload(const RunOptions &opt, Tracer *tracer, Outcome &out)
{
    const fleet::FleetConfig cfg = chaosConfig(opt.seed, 0);

    out.meta["threads.fleet"] = "1";
    std::ostringstream config;
    config << kClients << " clients, " << kDevices << " devices, "
           << kHosts << " hosts, " << kFramesPerClient
           << " frames/client at " << kClientRateHz
           << " Hz; fault tolerance on; kill " << kKillFrac * 100.0
           << "% at " << kKillAtS << " s, recover half at " << kRecoverAtS
           << " s; tuner on, day -> night at 10 s; no content pass; "
           << kFleets << " fleets, engine seeds derived from the seed";
    out.meta["config"] = config.str();

    // Construction alone (class models built, programs compiled),
    // repeated on every CPU, in CPU time scaled to the reference
    // speed (cpus.hh).
    const ProbedTimes ctor = timesAcrossCpus(
        [&cfg] {
            const std::int64_t t0 = threadCpuNs();
            const fleet::FleetEngine engine(cfg);
            return static_cast<double>(threadCpuNs() - t0) * 1e-9;
        },
        kCtorRepeats);
    const double setup_s =
        scaledMedianS(ctor.seconds, ctor.refRate, kReferenceDrawsPerS);
    const FleetRuns runs =
        repeatFleet(opt.seed, opt.seconds, kMinRotations, nullptr,
                    "fleet-chaos", out);
    const fleet::FleetReport &r = runs.report();
    const std::size_t interactive =
        fleet::classIndex(fleet::TrafficClass::Interactive);
    const fleet::ClassReport &ci = r.classes[interactive];

    for (const fleet::FleetReport &fr : runs.reports) {
        out.attempted += fr.offered;
        out.failed +=
            fr.admitted - std::min(fr.admitted, fr.completed + fr.shed);
    }

    Metrics &m = out.endToEnd;
    m["setup_s"] = {setup_s, "s"};
    m["capacity_fps"] = {runs.capacityFps(), "1/s"};
    m["sim_fps"] = {runs.simFps(), "1/s"};
    m["latency_p50_ms"] = {ci.p50S * 1e3, "ms"};
    m["vlat_p99_ms"] = {ci.p99S * 1e3, "ms"};
    m["sim_mj_per_frame"] = {ci.meanSystemJ * 1e3, "mJ"};
    m["latency_samples"] = {static_cast<double>(ci.completed), "count"};
    // INTERACTIVE frames meeting their SLO over all INTERACTIVE frames
    // offered: a shed or dropped frame counts as a miss.
    m["slo_attain"] = {
        ratio(ci.completed - ci.sloViolations, ci.offered), "ratio"};
    m["drop_frac"] = {ratio(r.dropped + r.shed, r.offered), "ratio"};
    m["failed_frac"] = {ratio(out.failed, out.attempted), "ratio"};
    m["repeats"] = {static_cast<double>(runs.runS.size()), "count"};
    out.notes.push_back("capacity_fps unscaled (CPU fast end): " +
                        std::to_string(runs.cpuFps()));
    out.check(ci.completed >= 1000,
              "fleet-chaos: fewer than 1000 INTERACTIVE completions "
              "leave p99 without 10 samples beyond it");

    if (!tracer)
        return;
    const FleetRuns traced =
        repeatFleet(opt.seed, opt.seconds, kMinRotations, tracer,
                    "fleet-chaos (traced)", out);
    out.check(digest(traced.report()) == digest(r),
              "fleet-chaos: traced run simulated a different report");
    fleetPerLayer(traced, out);
    out.perLayer["trace.overhead_frac"] = {
        (runs.capacityFps() - traced.capacityFps()) / runs.capacityFps(),
        "ratio"};
}

} // namespace perfbench
