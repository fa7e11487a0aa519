#include "trace.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <limits>

namespace perfbench {

namespace {

std::uint32_t
threadNumber()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t mine = next.fetch_add(1);
    return mine;
}

/** Minimal JSON string escaping (span names are plain identifiers). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

} // namespace

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Tracer::Tracer(std::size_t reserve)
{
    spans_.reserve(reserve);
}

void
Tracer::record(std::uint64_t id, std::string name,
               std::uint64_t trace_id, std::uint64_t parent,
               std::int64_t start_ns, std::int64_t end_ns)
{
    Span s;
    s.name = std::move(name);
    s.id = id;
    s.parent = parent;
    s.traceId = trace_id;
    s.startNs = start_ns;
    s.endNs = end_ns;
    s.tid = threadNumber();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(s));
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::vector<double>
Tracer::durationsMs(const std::string &name) const
{
    std::vector<double> out;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Span &s : spans_) {
        if (s.name == name)
            out.push_back(s.ms());
    }
    return out;
}

bool
writeChromeTrace(
    const std::string &path,
    const std::vector<std::pair<std::string, const Tracer *>> &processes)
{
    std::vector<std::vector<Span>> all;
    std::int64_t t0 = std::numeric_limits<std::int64_t>::max();
    for (const auto &[label, tracer] : processes) {
        all.push_back(tracer->spans());
        for (const Span &s : all.back())
            t0 = std::min(t0, s.startNs);
    }

    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    const char *sep = "\n";
    for (std::size_t p = 0; p < processes.size(); ++p) {
        os << sep << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":"
           << p + 1 << ",\"args\":{\"name\":\""
           << jsonEscape(processes[p].first) << "\"}}";
        sep = ",\n";
        for (const Span &s : all[p]) {
            os << sep << "{\"name\":\"" << jsonEscape(s.name)
               << "\",\"ph\":\"X\",\"pid\":" << p + 1
               << ",\"tid\":" << s.tid << ",\"ts\":"
               << static_cast<double>(s.startNs - t0) * 1e-3
               << ",\"dur\":"
               << static_cast<double>(s.endNs - s.startNs) * 1e-3
               << ",\"args\":{\"id\":" << s.id << ",\"parent\":"
               << s.parent << ",\"trace_id\":" << s.traceId << "}}";
        }
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

std::unordered_map<std::uint64_t, std::int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint64_t, std::vector<const Span *>> kids;
    for (const Span &s : spans) {
        if (s.parent)
            kids[s.parent].push_back(&s);
    }
    std::unordered_map<std::uint64_t, std::int64_t> self;
    for (const Span &s : spans) {
        // Union of the children's intervals, clipped to the parent.
        std::vector<std::pair<std::int64_t, std::int64_t>> iv;
        auto it = kids.find(s.id);
        if (it != kids.end()) {
            for (const Span *c : it->second) {
                const std::int64_t a = std::max(c->startNs, s.startNs);
                const std::int64_t b = std::min(c->endNs, s.endNs);
                if (a < b)
                    iv.emplace_back(a, b);
            }
        }
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t lo = 0;
        std::int64_t hi = -1;
        for (const auto &[a, b] : iv) {
            if (hi < lo || a > hi) {
                if (hi >= lo)
                    covered += hi - lo;
                lo = a;
                hi = b;
            } else {
                hi = std::max(hi, b);
            }
        }
        if (hi >= lo)
            covered += hi - lo;
        self[s.id] = (s.endNs - s.startNs) - covered;
    }
    return self;
}

} // namespace perfbench
