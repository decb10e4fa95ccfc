#include "harness/bench_core.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <string>

#include <time.h>

#include "common/checksum.hh"
#include "common/logging.hh"
#include "report/json.hh"

namespace perfbench
{

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

namespace
{

double
cpuClockSeconds(clockid_t clock)
{
    timespec ts{};
    if (::clock_gettime(clock, &ts) != 0)
        return -1;
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) / 1e9;
}

} // namespace

double
threadCpuSeconds()
{
    return cpuClockSeconds(CLOCK_THREAD_CPUTIME_ID);
}

double
processCpuSeconds(int pid)
{
    clockid_t clock;
    if (::clock_getcpuclockid(pid, &clock) != 0)
        return -1;
    return cpuClockSeconds(clock);
}

bool
validName(std::string_view name)
{
    if (name.empty() || name.size() > 64)
        return false;
    auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name[0]))
        return false;
    for (char c : name) {
        if (!alnum(c) && c != '_' && c != '.' && c != '-')
            return false;
    }
    return true;
}

std::optional<double>
tailPercentile(std::vector<double> samples, double q, size_t min_tail)
{
    if (samples.empty() || q <= 0.0 || q >= 1.0)
        return std::nullopt;
    size_t n = samples.size();
    // Nearest rank: the smallest sample with at least q*n samples at
    // or below it. Integer arithmetic in per-mille avoids the float
    // rounding of q*n at exact multiples (0.99 * 1000).
    uint64_t permille = static_cast<uint64_t>(q * 1000.0 + 0.5);
    uint64_t rank = (permille * n + 999) / 1000;  // ceil(q*n), 1-based
    if (rank == 0)
        rank = 1;
    size_t idx = static_cast<size_t>(rank - 1);
    if (n - 1 - idx < min_tail)
        return std::nullopt;
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<ptrdiff_t>(idx),
                     samples.end());
    return samples[idx];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

void
MetricSet::add(const std::string &name, double value,
               const std::string &unit)
{
    if (!validName(name))
        vpprof_panic("perfbench: invalid metric name '", name, "'");
    if (find(name))
        vpprof_panic("perfbench: metric '", name, "' reported twice");
    items_.push_back({name, value, unit});
}

const Metric *
MetricSet::find(std::string_view name) const
{
    for (const Metric &m : items_) {
        if (m.name == name)
            return &m;
    }
    return nullptr;
}

void
Tally::fail(const std::string &why)
{
    ++attempted_;
    ++failed_;
    if (reasons_.size() < 8)
        reasons_.push_back(why);
}

double
Tally::failedFrac() const
{
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
}

std::string
formatNumber(double v)
{
    return vpprof::report::formatJsonNumber(v);
}

void
printMetricLines(const MetricSet &metrics, std::ostream &os)
{
    for (const Metric &m : metrics.items())
        os << m.name << ' ' << formatNumber(m.value) << ' ' << m.unit
           << '\n';
}

std::string
resultJsonLine(bool correct, uint64_t attempted, uint64_t failed,
               const MetricSet &metrics)
{
    using vpprof::report::quoteJsonString;
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : metrics.items()) {
        if (!first)
            os << ", ";
        first = false;
        os << quoteJsonString(m.name)
           << ": {\"value\": " << formatNumber(m.value)
           << ", \"unit\": " << quoteJsonString(m.unit) << '}';
    }
    os << "}}";
    return os.str();
}

namespace
{

/** The calling thread's open spans (indices), innermost last. */
thread_local std::vector<int64_t> t_openSpans;

uint32_t
threadTag()
{
    static std::atomic<uint32_t> next{1};
    thread_local uint32_t tag = next.fetch_add(1);
    return tag;
}

} // namespace

int64_t
Tracer::begin(std::string name, uint64_t group)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = std::move(name);
    span.parent = t_openSpans.empty() ? -1 : t_openSpans.back();
    span.group = group;
    span.thread = threadTag();
    span.startNs = nowNs();
    int64_t index;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        index = static_cast<int64_t>(spans_.size());
        spans_.push_back(std::move(span));
    }
    t_openSpans.push_back(index);
    return index;
}

void
Tracer::end(int64_t index)
{
    if (index < 0)
        return;
    uint64_t now = nowNs();
    if (!t_openSpans.empty() && t_openSpans.back() == index)
        t_openSpans.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(index)].endNs = now;
}

void
Tracer::add(std::string name, uint64_t start_ns, uint64_t end_ns,
            uint64_t group)
{
    if (!enabled_)
        return;
    Span span;
    span.name = std::move(name);
    span.parent = t_openSpans.empty() ? -1 : t_openSpans.back();
    span.group = group;
    span.thread = threadTag();
    span.startNs = start_ns;
    span.endNs = end_ns;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

std::vector<Tracer::Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

size_t
Tracer::count(std::string_view name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<size_t>(
        std::count_if(spans_.begin(), spans_.end(),
                      [&](const Span &s) { return s.name == name; }));
}

std::vector<uint64_t>
Tracer::selfTimesNs(const std::vector<Span> &all)
{
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
        all.size());
    for (const Span &s : all) {
        if (s.parent >= 0)
            children[static_cast<size_t>(s.parent)].push_back(
                {s.startNs, s.endNs});
    }
    std::vector<uint64_t> self(all.size(), 0);
    for (size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        uint64_t dur = s.endNs > s.startNs ? s.endNs - s.startNs : 0;
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        // Length of the union of the children's intervals, clipped
        // to the parent's own interval.
        uint64_t covered = 0, runStart = 0, runEnd = 0;
        bool open = false;
        for (auto [b, e] : kids) {
            b = std::max(b, s.startNs);
            e = std::min(e, s.endNs);
            if (e <= b)
                continue;
            if (open && b <= runEnd) {
                runEnd = std::max(runEnd, e);
            } else {
                if (open)
                    covered += runEnd - runStart;
                runStart = b;
                runEnd = e;
                open = true;
            }
        }
        if (open)
            covered += runEnd - runStart;
        self[i] = dur > covered ? dur - covered : 0;
    }
    return self;
}

double
Tracer::selfSeconds(std::string_view name, size_t first) const
{
    std::vector<Span> all = spans();
    std::vector<uint64_t> self = selfTimesNs(all);
    uint64_t sum = 0;
    for (size_t i = first; i < all.size(); ++i) {
        if (all[i].name == name)
            sum += self[i];
    }
    return static_cast<double>(sum) / 1e9;
}

void
Tracer::writeChromeJson(std::ostream &os) const
{
    using vpprof::report::quoteJsonString;
    std::vector<Span> all = spans();
    uint64_t origin = ~0ull;
    for (const Span &s : all)
        origin = std::min(origin, s.startNs);
    os << "{\"traceEvents\": [";
    for (size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        if (i)
            os << ",";
        os << "\n{\"name\": " << quoteJsonString(s.name)
           << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
           << ", \"ts\": "
           << formatNumber(static_cast<double>(s.startNs - origin) / 1e3)
           << ", \"dur\": "
           << formatNumber(static_cast<double>(s.endNs - s.startNs) /
                           1e3)
           << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
           << ", \"group\": " << s.group << "}}";
    }
    os << "\n]}\n";
}

double
peakRssMb(int pid)
{
    std::string path = pid == 0
        ? std::string("/proc/self/status")
        : "/proc/" + std::to_string(pid) + "/status";
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = 0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

void
resetPeakRss()
{
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
}

uint64_t
fileDigest(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return 0;
    uint64_t sum = vpprof::kFnv1a64Seed;
    std::vector<char> buf(1 << 16);
    while (in) {
        in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
        std::streamsize got = in.gcount();
        if (got > 0)
            sum = vpprof::fnv1a64(buf.data(), static_cast<size_t>(got),
                                  sum);
    }
    return sum;
}

} // namespace perfbench
