/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * Spans are recorded from the benchmark's own code around calls into
 * each layer's public functions (nothing inside src/ is
 * instrumented). A span carries a name, wall start and end, the id of
 * the span that caused it, and a trace id — the frame index — shared
 * by every span of one frame. Spans stay in memory until the run ends
 * and are then written as Chrome trace-event JSON, which opens in
 * Perfetto or chrome://tracing.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

/** Steady-clock nanoseconds (the clock every span uses). */
std::int64_t nowNs();

/** One recorded span. Id 0 means "no parent". */
struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t traceId = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::uint32_t tid = 0; ///< small per-thread number, for display

    double
    ms() const
    {
        return static_cast<double>(endNs - startNs) * 1e-6;
    }
};

/** Thread-safe span sink. */
class Tracer
{
  public:
    /** @param reserve Spans to pre-size for (avoids regrowth). */
    explicit Tracer(std::size_t reserve = 1 << 16);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** A fresh span id, for a parent recorded after its children. */
    std::uint64_t reserveId() { return nextId_.fetch_add(1); }

    /** Record a finished span under a reserved @p id. */
    void record(std::uint64_t id, std::string name,
                std::uint64_t trace_id, std::uint64_t parent,
                std::int64_t start_ns, std::int64_t end_ns);

    /** Record a finished span under a fresh id; returns the id. */
    std::uint64_t
    record(std::string name, std::uint64_t trace_id,
           std::uint64_t parent, std::int64_t start_ns,
           std::int64_t end_ns)
    {
        const std::uint64_t id = reserveId();
        record(id, std::move(name), trace_id, parent, start_ns, end_ns);
        return id;
    }

    /** Snapshot of every span recorded so far. */
    std::vector<Span> spans() const;

    /** Durations in ms of every span named @p name. */
    std::vector<double> durationsMs(const std::string &name) const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_; ///< guarded by mutex_
    std::atomic<std::uint64_t> nextId_{1};
};

/**
 * Write the spans of every tracer as Chrome trace-event JSON: one
 * process per (label, tracer) pair, "X" events with times in
 * microseconds since the earliest span. Returns false when the file
 * cannot be written.
 */
bool writeChromeTrace(
    const std::string &path,
    const std::vector<std::pair<std::string, const Tracer *>> &processes);

/** Span id -> self time in ns: duration minus what children cover. */
std::unordered_map<std::uint64_t, std::int64_t>
selfTimesNs(const std::vector<Span> &spans);

/** Records a span around its own lifetime. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, std::string name, std::uint64_t trace_id,
               std::uint64_t parent = 0)
        : tracer_(tracer), name_(std::move(name)), trace_(trace_id),
          parent_(parent), id_(tracer ? tracer->reserveId() : 0),
          start_(nowNs())
    {
    }

    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->record(id_, std::move(name_), trace_, parent_,
                            start_, nowNs());
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Id children pass as their parent. */
    std::uint64_t id() const { return id_; }

  private:
    Tracer *tracer_;
    std::string name_;
    std::uint64_t trace_;
    std::uint64_t parent_;
    std::uint64_t id_;
    std::int64_t start_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
