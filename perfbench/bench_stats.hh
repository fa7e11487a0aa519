/**
 * @file
 * The benchmark's own arithmetic: percentiles under the
 * ten-samples-beyond rule, the fast end of repeated timings, CPU
 * times scaled to a reference speed, open-loop due-time alignment,
 * and frame conservation. Header-only and free of RedEye types so
 * the tests in arith_test.cc exercise exactly what the workloads
 * report.
 */

#ifndef PERFBENCH_BENCH_STATS_HH
#define PERFBENCH_BENCH_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/** Samples a percentile must leave above it before it is reported. */
inline constexpr std::size_t kMinSamplesBeyond = 10;

/** 1-based nearest rank of percentile @p p (0 < p <= 100) of n. */
inline std::size_t
nearestRank(std::size_t n, double p)
{
    const double r = std::ceil(p / 100.0 * static_cast<double>(n));
    return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

/** Samples ranked strictly above percentile @p p of @p n samples. */
inline std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n == 0 ? 0 : n - nearestRank(n, p);
}

/** Nearest-rank percentile @p p of @p samples (must be non-empty). */
inline double
percentile(std::vector<double> samples, double p)
{
    const std::size_t k = nearestRank(samples.size(), p) - 1;
    std::nth_element(samples.begin(), samples.begin() + k,
                     samples.end());
    return samples[k];
}

/**
 * Percentile @p p of @p samples, or nothing when fewer than
 * kMinSamplesBeyond samples rank above it: a tail percentile is only
 * reported when the run observed enough of the tail.
 */
inline std::optional<double>
reportablePercentile(const std::vector<double> &samples, double p)
{
    if (samples.empty() ||
        samplesBeyond(samples.size(), p) < kMinSamplesBeyond)
        return std::nullopt;
    return percentile(samples, p);
}

/** Median of @p samples (nearest rank; must be non-empty). */
inline double
median(const std::vector<double> &samples)
{
    return percentile(samples, 50.0);
}

/**
 * Fast end of repeated timings of the same work: their 10th
 * percentile. A busy neighbour only ever slows a repetition down, so
 * the fast end reads the code's own speed while the mean and median
 * read the neighbours too. Must be non-empty.
 */
inline double
fastEnd(const std::vector<double> &times)
{
    return percentile(times, 10.0);
}

/**
 * CPU time @p cpu_s of work that ran while a fixed reference kernel ran
 * at @p rate on the same CPU, scaled to what it takes where the kernel
 * runs at @p nominal_rate. A vCPU whose core is shared with a busy
 * neighbour slows the work and the kernel alike, so the scaled time
 * reads the code's own cost.
 */
inline double
scaledSeconds(double cpu_s, double rate, double nominal_rate)
{
    return cpu_s * rate / nominal_rate;
}

/**
 * Median of CPU times @p cpu_s, each scaled to the reference speed by
 * the kernel speed @p rates measured beside it (same length,
 * non-empty).
 */
inline double
scaledMedianS(const std::vector<double> &cpu_s,
              const std::vector<double> &rates, double nominal_rate)
{
    std::vector<double> scaled(cpu_s.size());
    for (std::size_t i = 0; i < cpu_s.size(); ++i)
        scaled[i] = scaledSeconds(cpu_s[i], rates[i], nominal_rate);
    return median(scaled);
}

/** A closed interval [lo, hi]. */
struct Interval {
    double lo = 0.0;
    double hi = 0.0;
};

/**
 * Approximate 95% confidence interval of the median of @p samples
 * (the box-plot notch: median +- 1.58 IQR / sqrt(n)). Must be
 * non-empty.
 */
inline Interval
medianInterval(const std::vector<double> &samples)
{
    const double m = median(samples);
    const double iqr =
        percentile(samples, 75.0) - percentile(samples, 25.0);
    const double half =
        1.58 * iqr / std::sqrt(static_cast<double>(samples.size()));
    return {m - half, m + half};
}

/** Due offsets of an arrival schedule: running sums of the gaps. */
inline std::vector<double>
dueOffsets(const std::vector<double> &gaps)
{
    std::vector<double> due(gaps.size());
    double t = 0.0;
    for (std::size_t i = 0; i < gaps.size(); ++i) {
        t += gaps[i];
        due[i] = t;
    }
    return due;
}

/**
 * An open-loop generator sleeps until start + due[i] and then fills
 * frame i, so it can run late but never early: every fill[i] - due[i]
 * bounds the unobserved schedule start from above. The tightest bound
 * is the start estimate; lateness is measured against it, so the
 * least-late frame reads 0.
 */
struct ScheduleAlignment {
    double startS = 0.0;
    std::vector<double> latenessS; ///< fill - (start + due), >= 0
};

/** Align observed fill times with due offsets (same length, > 0). */
inline ScheduleAlignment
alignSchedule(const std::vector<double> &fill_s,
              const std::vector<double> &due_s)
{
    ScheduleAlignment a;
    a.startS = fill_s[0] - due_s[0];
    for (std::size_t i = 1; i < fill_s.size(); ++i)
        a.startS = std::min(a.startS, fill_s[i] - due_s[i]);
    a.latenessS.resize(fill_s.size());
    for (std::size_t i = 0; i < fill_s.size(); ++i)
        a.latenessS[i] = fill_s[i] - (a.startS + due_s[i]);
    return a;
}

/**
 * Latency of a frame from its due time: a stall that delays the
 * generator is charged to every frame it delays, not hidden by a
 * late emission stamp.
 */
inline double
dueLatencyS(double done_s, double start_s, double due_s)
{
    return done_s - (start_s + due_s);
}

/** Frame accounting of one stream run. */
struct FrameCounts {
    std::uint64_t offered = 0;
    std::uint64_t completed = 0;
    std::uint64_t dropped = 0;
    std::uint64_t failed = 0;
};

/** Every offered frame completed, was dropped or failed: once. */
inline bool
conserved(const FrameCounts &c)
{
    return c.offered == c.completed + c.dropped + c.failed;
}

} // namespace perfbench

#endif // PERFBENCH_BENCH_STATS_HH
