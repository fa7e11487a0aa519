/**
 * @file
 * Tests of the benchmark's own arithmetic: the percentile rule, the
 * fast end of repeated timings, times scaled to a reference speed,
 * due time latency and generator lateness on a synthetic schedule,
 * span self time with nested children, and frame conservation.
 */

#include <gtest/gtest.h>

#include "bench_stats.hh"
#include "trace.hh"

namespace perfbench {
namespace {

std::vector<double>
oneTo(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = n; i >= 1; --i) // descending: order must not matter
        v.push_back(static_cast<double>(i));
    return v;
}

TEST(PercentileRule, NearestRankValues)
{
    EXPECT_EQ(percentile(oneTo(100), 50.0), 50.0);
    EXPECT_EQ(percentile(oneTo(100), 90.0), 90.0);
    EXPECT_EQ(percentile(oneTo(100), 99.0), 99.0);
    EXPECT_EQ(percentile(oneTo(7), 50.0), 4.0);
    EXPECT_EQ(percentile({3.0}, 99.0), 3.0);
    EXPECT_EQ(median(oneTo(20)), 10.0);
}

TEST(PercentileRule, TenSamplesBeyondAtTheBoundary)
{
    // p50 needs 20 samples, p90 needs 100, p99 needs 1000.
    EXPECT_EQ(samplesBeyond(20, 50.0), 10u);
    EXPECT_TRUE(reportablePercentile(oneTo(20), 50.0).has_value());
    EXPECT_FALSE(reportablePercentile(oneTo(19), 50.0).has_value());
    EXPECT_TRUE(reportablePercentile(oneTo(100), 90.0).has_value());
    EXPECT_FALSE(reportablePercentile(oneTo(99), 90.0).has_value());
    EXPECT_TRUE(reportablePercentile(oneTo(1000), 99.0).has_value());
    EXPECT_FALSE(reportablePercentile(oneTo(999), 99.0).has_value());
    EXPECT_FALSE(reportablePercentile({}, 50.0).has_value());
}

TEST(PercentileRule, MedianIntervalIsTheBoxPlotNotch)
{
    // 1..16: median 8, quartiles 4 and 12 -> 8 +- 1.58 * 8 / 4.
    const Interval ci = medianInterval(oneTo(16));
    EXPECT_DOUBLE_EQ(ci.lo, 8.0 - 3.16);
    EXPECT_DOUBLE_EQ(ci.hi, 8.0 + 3.16);
    const Interval flat = medianInterval({2.0, 2.0, 2.0});
    EXPECT_EQ(flat.lo, 2.0);
    EXPECT_EQ(flat.hi, 2.0);
}

TEST(FastEnd, SlowedRepetitionsDoNotMoveIt)
{
    // 40 timings of 1..40 ms: the fast end is the 4th fastest.
    std::vector<double> times = oneTo(40);
    EXPECT_EQ(fastEnd(times), 4.0);
    EXPECT_EQ(median(times), 20.0);
    // A neighbour triples all but the ten fastest: the median moves,
    // the fast end does not.
    for (double &t : times) {
        if (t > 10.0)
            t *= 3.0;
    }
    EXPECT_EQ(fastEnd(times), 4.0);
    EXPECT_EQ(median(times), 60.0);
    EXPECT_EQ(fastEnd({7.0}), 7.0);
}

TEST(ScaledTime, ContendedFramesReadTheirOwnCost)
{
    // Five frames of the same work: 0.5 s on a free core, where the
    // kernel runs at 40 M/s; 0.75 s where a neighbour slows both by a
    // third.
    const std::vector<double> cpu_s = {0.5, 0.75, 0.75, 0.5, 0.75};
    const std::vector<double> rates = {40e6, 26.6e6, 26.6e6, 40e6,
                                       26.6e6};
    EXPECT_DOUBLE_EQ(scaledSeconds(0.5, 40e6, 40e6), 0.5);
    EXPECT_NEAR(scaledSeconds(0.75, 26.6e6, 40e6), 0.49875, 1e-12);
    // Unscaled, the median frame is a contended one.
    EXPECT_DOUBLE_EQ(median(cpu_s), 0.75);
    EXPECT_NEAR(scaledMedianS(cpu_s, rates, 40e6), 0.49875, 1e-12);
    // Expressed at half the nominal speed, every time doubles.
    EXPECT_NEAR(scaledMedianS(cpu_s, rates, 20e6), 0.9975, 1e-12);
}

TEST(OpenLoop, DueTimeLatencyAndLatenessFromSyntheticSchedule)
{
    // Gaps 10 ms; the generator starts at t = 5 s, runs on time for
    // frames 0-1, then stalls 30 ms before frame 2 and catches up.
    const std::vector<double> gaps{0.010, 0.010, 0.010, 0.010};
    const std::vector<double> due = dueOffsets(gaps);
    ASSERT_EQ(due.size(), 4u);
    EXPECT_DOUBLE_EQ(due[0], 0.010);
    EXPECT_DOUBLE_EQ(due[3], 0.040);

    const std::vector<double> fill{5.010, 5.020, 5.060, 5.061};
    const ScheduleAlignment a = alignSchedule(fill, due);
    EXPECT_NEAR(a.startS, 5.0, 1e-12);
    EXPECT_NEAR(a.latenessS[0], 0.0, 1e-12);
    EXPECT_NEAR(a.latenessS[1], 0.0, 1e-12);
    EXPECT_NEAR(a.latenessS[2], 0.030, 1e-12);
    EXPECT_NEAR(a.latenessS[3], 0.021, 1e-12);

    // Frame 2 completes 2 ms after its late emission: 32 ms from due,
    // not the 2 ms an emission-stamped latency would report.
    EXPECT_NEAR(dueLatencyS(5.062, a.startS, due[2]), 0.032, 1e-12);
}

TEST(OpenLoop, StartEstimateNeverMakesAFrameEarly)
{
    const std::vector<double> due{0.5, 1.0, 1.5};
    const std::vector<double> fill{2.6, 3.0, 3.7}; // all late by >= 0.1
    const ScheduleAlignment a = alignSchedule(fill, due);
    for (double late : a.latenessS)
        EXPECT_GE(late, 0.0);
    EXPECT_NEAR(*std::min_element(a.latenessS.begin(), a.latenessS.end()),
                0.0, 1e-12);
}

Span
span(std::uint64_t id, std::uint64_t parent, std::int64_t a, std::int64_t b)
{
    Span s;
    s.name = std::to_string(id);
    s.id = id;
    s.parent = parent;
    s.startNs = a;
    s.endNs = b;
    return s;
}

TEST(SelfTime, NestedOverlappingAndClippedChildren)
{
    // root [0, 100): children [10, 30) and [20, 50) overlap (cover
    // 40), child [90, 120) is clipped to 10 -> root self = 50.
    // Child 2 has its own child [25, 35) -> child 2 self = 20.
    const std::vector<Span> spans{
        span(1, 0, 0, 100),  span(2, 1, 10, 30), span(3, 1, 20, 50),
        span(4, 1, 90, 120), span(5, 3, 25, 35),
    };
    const auto self = selfTimesNs(spans);
    EXPECT_EQ(self.at(1), 50);
    EXPECT_EQ(self.at(2), 20);
    EXPECT_EQ(self.at(3), 20);
    EXPECT_EQ(self.at(4), 30);
    EXPECT_EQ(self.at(5), 10);
}

TEST(SelfTime, TracerRecordsParentsBeforeOrAfterChildren)
{
    Tracer t;
    const std::uint64_t root = t.reserveId();
    t.record("child", 7, root, 10, 40);
    t.record(root, "root", 7, 0, 0, 100);
    const auto spans = t.spans();
    ASSERT_EQ(spans.size(), 2u);
    const auto self = selfTimesNs(spans);
    EXPECT_EQ(self.at(root), 70);
    EXPECT_DOUBLE_EQ(t.durationsMs("child").front(), 30e-6);
}

TEST(Conservation, EveryOfferedFrameAccountedOnce)
{
    EXPECT_TRUE(conserved({100, 90, 8, 2}));
    EXPECT_TRUE(conserved({0, 0, 0, 0}));
    EXPECT_FALSE(conserved({100, 90, 8, 1})); // a frame went missing
    EXPECT_FALSE(conserved({100, 91, 8, 2})); // a frame counted twice
}

} // namespace
} // namespace perfbench
