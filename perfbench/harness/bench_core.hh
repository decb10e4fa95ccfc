/**
 * @file
 * The benchmark's shared machinery: seeded randomness, the percentile
 * rule, metric naming and output, output-check tallies, and the span
 * tracer used by traced runs.
 *
 * Nothing here knows about a particular workload; offline_sweep.cc,
 * daemon_load.cc and layer_probes.cc build on it.
 */

#ifndef PERFBENCH_HARNESS_BENCH_CORE_HH
#define PERFBENCH_HARNESS_BENCH_CORE_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Monotonic nanoseconds (steady_clock). */
uint64_t nowNs();

/** Seconds elapsed since `t0`. */
double secondsSince(Clock::time_point t0);

/** CPU time the calling thread has used, in seconds. */
double threadCpuSeconds();

/**
 * CPU time process `pid` has used so far, all its threads together, in
 * seconds; -1 when its clock cannot be read. Time the hypervisor ran
 * another guest (steal) or the scheduler ran another process does not
 * count.
 */
double processCpuSeconds(int pid);

/** True for a metric or workload name: [A-Za-z0-9_.-]+, <= 64 chars,
 *  starting with a letter or digit. */
bool validName(std::string_view name);

/**
 * The q-quantile (0 < q < 1) of `samples` by nearest rank, but only
 * when at least `min_tail` samples lie strictly beyond it; nullopt
 * otherwise. With the default tail of 10, p99 needs 1000 samples.
 */
std::optional<double> tailPercentile(std::vector<double> samples,
                                     double q, size_t min_tail = 10);

/** Median (mean of the middle pair for an even count); 0 when empty. */
double median(std::vector<double> values);

double mean(const std::vector<double> &values);

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Ordered, name-checked metric list for one run. */
class MetricSet
{
  public:
    /** Adds a metric; aborts on an invalid or repeated name. */
    void add(const std::string &name, double value,
             const std::string &unit);

    const std::vector<Metric> &items() const { return items_; }
    const Metric *find(std::string_view name) const;

  private:
    std::vector<Metric> items_;
};

/**
 * Attempted / failed operation counts for one run. Every operation the
 * benchmark checks lands here; the first few failure reasons are kept
 * for the diagnostic printed on stderr.
 */
class Tally
{
  public:
    void pass() { ++attempted_; }
    void fail(const std::string &why);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    double failedFrac() const;
    const std::vector<std::string> &reasons() const { return reasons_; }

  private:
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<std::string> reasons_;
};

/** One `name value unit` line per metric. */
void printMetricLines(const MetricSet &metrics, std::ostream &os);

/**
 * The run's final line: {"correct": ..., "attempted": N, "failed": N,
 * "metrics": {"name": {"value": V, "unit": "U"}, ...}}. Values are
 * printed with every significant digit.
 */
std::string resultJsonLine(bool correct, uint64_t attempted,
                           uint64_t failed, const MetricSet &metrics);

/** Shortest round-trip decimal form of a double. */
std::string formatNumber(double v);

/**
 * In-memory span recorder for traced runs. A span has a name, start,
 * end, parent span and a group id (the request or sweep cell it
 * belongs to). Parents come from a per-thread stack, so nesting
 * follows scopes. Disabled tracers record nothing and cost one branch.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        uint64_t startNs = 0;
        uint64_t endNs = 0;
        int64_t parent = -1;  ///< index into spans(); -1 for a root
        uint64_t group = 0;   ///< request id or cell id
        uint32_t thread = 0;
    };

    explicit Tracer(bool enabled = false) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Opens a span; returns its index (or -1 when disabled). */
    int64_t begin(std::string name, uint64_t group);

    /** Closes the span `begin` returned. */
    void end(int64_t index);

    /** Records an already measured interval as a child of the
     *  calling thread's open span. */
    void add(std::string name, uint64_t start_ns, uint64_t end_ns,
             uint64_t group);

    std::vector<Span> spans() const;

    /** Number of recorded spans named `name`. */
    size_t count(std::string_view name) const;

    /**
     * Self time per span of `spans`: its duration minus the part of it
     * that its child spans cover (children's intervals are merged
     * first, so overlapping children are not double-subtracted).
     */
    static std::vector<uint64_t> selfTimesNs(const std::vector<Span> &spans);

    /** Summed self time of the spans named `name` among those recorded
     *  from index `first` on, in seconds. */
    double selfSeconds(std::string_view name, size_t first = 0) const;

    /** Chrome trace_event JSON (Perfetto-loadable). */
    void writeChromeJson(std::ostream &os) const;

  private:
    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span over a scope. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, std::string name, uint64_t group = 0)
        : tracer_(tracer), index_(tracer.begin(std::move(name), group))
    {
    }
    ~ScopedSpan() { tracer_.end(index_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &tracer_;
    int64_t index_;
};

/** What one benchmark run was asked to do. */
struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Scratch directory for caches, sockets and span files. */
    std::string workDir;
    /** The vpprofd binary the daemon workloads spawn. */
    std::string vpprofd;
    /** Digest of the benchmark binary: keys the stored references. */
    std::string binaryDigest;
};

/** What one run measured and checked. */
struct RunReport
{
    MetricSet metrics;
    Tally tally;
};

/** Peak resident set (VmHWM) of process `pid` (0 = self), in MiB;
 *  0 when /proc is unreadable. */
double peakRssMb(int pid = 0);

/** Resets this process's VmHWM to its current RSS (Linux >= 4.0). */
void resetPeakRss();

/** FNV-1a over a file's bytes; 0 when unreadable. */
uint64_t fileDigest(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_BENCH_CORE_HH
