/**
 * @file
 * CPU placement and CPU time for timing on a shared host.
 *
 * On a virtual machine whose vCPUs share physical cores with other
 * tenants, one vCPU can run the same single-threaded code 30-50%
 * slower than another for minutes at a time, so a single-threaded
 * measurement reports wherever the scheduler happened to place it.
 * Where one thread carries a workload's work, the benchmark pins that
 * thread to every allowed CPU in turn and balances the work over them,
 * so a run measures the host rather than one placement.
 *
 * The hypervisor also steals time from busy vCPUs, 10-40% of it for
 * minutes when neighbours are busy. The kernel leaves stolen time out
 * of a thread's CPU clock, so the benchmark's gated speed figures are
 * read from the CPU clocks of the threads that do the work.
 *
 * A CPU clock still runs while a neighbour on the same physical core
 * (or a lower clock speed) slows the thread down. Where a workload's
 * unit of work lasts too long for its fast end to catch a quiet
 * moment, the benchmark times a fixed reference kernel on the same
 * CPU beside each unit and scales the unit's CPU time to the
 * kernel's nominal speed (scaledSeconds in bench_stats.hh).
 */

#ifndef PERFBENCH_CPUS_HH
#define PERFBENCH_CPUS_HH

#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

/** The calling thread's CPU clock, in nanoseconds. */
std::int64_t threadCpuNs();

/** The process's CPU clock (all threads), in nanoseconds. */
std::int64_t processCpuNs();

/**
 * Nominal speed of the reference kernel, in draws per CPU second:
 * about its speed on an uncontended vCPU of the 4-vCPU Xeon the
 * benchmark was tuned on.
 */
inline constexpr double kReferenceDrawsPerS = 40e6;

/**
 * Time the reference kernel on the calling thread's CPU clock: a
 * fixed count of std::normal_distribution draws from a freshly seeded
 * std::mt19937_64, so every call does the same work. It owes nothing
 * to the RedEye sources, so a change to them never moves it. Returns
 * draws per CPU second; a call takes about 10 ms.
 */
double referenceDrawsPerS();

/** CPUs the process may run on, ascending (never empty). */
const std::vector<int> &allowedCpus();

/** Pin the calling thread to @p cpu (no-op if the kernel refuses). */
void pinCurrentThread(int cpu);

/** Pins the calling thread for its lifetime, then restores the mask. */
class ScopedPin
{
  public:
    explicit ScopedPin(int cpu);
    ~ScopedPin();

    ScopedPin(const ScopedPin &) = delete;
    ScopedPin &operator=(const ScopedPin &) = delete;
};

/** Timings, each with the reference kernel's speed around it. */
struct ProbedTimes {
    std::vector<double> seconds;
    std::vector<double> refRate;
};

/**
 * Time @p once (which returns seconds) @p reps times pinned to each
 * allowed CPU, timing the reference kernel just before and after each
 * call; returns every timing with the mean kernel speed around it.
 */
ProbedTimes timesAcrossCpus(const std::function<double()> &once, int reps);

} // namespace perfbench

#endif // PERFBENCH_CPUS_HH
