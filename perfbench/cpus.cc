#include "cpus.hh"

#include <random>

#include <sched.h>
#include <time.h>

namespace perfbench {

namespace {

/** The mask the process started with: every CPU ScopedPin restores. */
const cpu_set_t &
startMask()
{
    static const cpu_set_t mask = [] {
        cpu_set_t m;
        CPU_ZERO(&m);
        if (sched_getaffinity(0, sizeof m, &m) != 0)
            CPU_SET(0, &m);
        return m;
    }();
    return mask;
}

thread_local volatile double referenceSink = 0.0; // per thread: no race

std::int64_t
clockNs(clockid_t clock)
{
    timespec ts;
    clock_gettime(clock, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

} // namespace

std::int64_t
threadCpuNs()
{
    return clockNs(CLOCK_THREAD_CPUTIME_ID);
}

std::int64_t
processCpuNs()
{
    return clockNs(CLOCK_PROCESS_CPUTIME_ID);
}

double
referenceDrawsPerS()
{
    constexpr int kDraws = 1 << 18;
    std::mt19937_64 engine(0x7265666572ULL); // 'refer'
    double sum = 0.0;
    const std::int64_t t0 = threadCpuNs();
    for (int i = 0; i < kDraws; ++i)
        sum += std::normal_distribution<double>(0.0, 1.0)(engine);
    const std::int64_t t1 = threadCpuNs();
    referenceSink = sum; // keeps the draws from being optimised away
    return kDraws / (static_cast<double>(t1 - t0) * 1e-9);
}

const std::vector<int> &
allowedCpus()
{
    static const std::vector<int> cpus = [] {
        std::vector<int> out;
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &startMask()))
                out.push_back(c);
        }
        if (out.empty())
            out.push_back(0);
        return out;
    }();
    return cpus;
}

void
pinCurrentThread(int cpu)
{
    cpu_set_t m;
    CPU_ZERO(&m);
    CPU_SET(cpu, &m);
    (void)sched_setaffinity(0, sizeof m, &m);
}

ScopedPin::ScopedPin(int cpu)
{
    (void)allowedCpus(); // capture the start mask before narrowing it
    pinCurrentThread(cpu);
}

ScopedPin::~ScopedPin()
{
    (void)sched_setaffinity(0, sizeof(cpu_set_t), &startMask());
}

ProbedTimes
timesAcrossCpus(const std::function<double()> &once, int reps)
{
    ProbedTimes out;
    for (int cpu : allowedCpus()) {
        ScopedPin pin(cpu);
        for (int r = 0; r < reps; ++r) {
            const double before = referenceDrawsPerS();
            out.seconds.push_back(once());
            out.refRate.push_back((before + referenceDrawsPerS()) / 2.0);
        }
    }
    return out;
}

} // namespace perfbench
