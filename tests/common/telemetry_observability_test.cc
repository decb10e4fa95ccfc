/**
 * @file
 * Tests of the observability-plane telemetry primitives (DESIGN.md
 * §14): instant-event names surviving the strict JSON round trip
 * (escaping of quotes, control bytes and UTF-8), the Prometheus text
 * serializer (naming grammar, counter/gauge/histogram shapes,
 * cumulative le buckets), and the registry's snapshot-under-load
 * guarantee — concurrent snapshots racing shard owners always read
 * monotonically non-decreasing counters, never torn values.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "common/telemetry/prometheus.hh"
#include "common/telemetry/telemetry.hh"
#include "report/json.hh"

namespace vpprof
{
namespace telemetry
{
namespace
{

TEST(JsonEscaping, ControlBytesAndUtf8SurviveStrictParsing)
{
    // Every telemetry writer escapes through writeJsonEscaped; the
    // report parser is strict RFC 8259 — the pair must round-trip any
    // byte string with printable UTF-8 preserved byte-for-byte.
    const std::string nasty =
        "quote\" backslash\\ newline\n tab\t bell\x07 nul-adjacent\x01 "
        "utf8 \xce\xbb\xe2\x86\x92 done";
    std::ostringstream os;
    os << "{\"name\": \"";
    writeJsonEscaped(os, nasty);
    os << "\"}";
    std::string error;
    auto doc = report::parseJson(os.str(), &error);
    ASSERT_TRUE(doc) << error << " in " << os.str();
    EXPECT_EQ(doc->stringOr("name", ""), nasty);
}

#if VPPROF_TELEMETRY_ENABLED

TEST(JsonEscaping, InstantEventNamesRoundTripThroughTraceJson)
{
    // Dynamic instant-event names (job lifecycle markers carry
    // workload strings) must survive writeJson -> strict parse even
    // when hostile: the trace file is only useful if Perfetto's JSON
    // parser accepts it.
    const std::string name = "job.received \"w\"\n\x02\xce\xbb";
    const uint64_t trace_id = 424242;
    SpanTracer &tracer = SpanTracer::instance();
    tracer.recordInstant(name, nowNs(), trace_id);

    std::ostringstream os;
    tracer.writeJson(os);
    std::string error;
    auto doc = report::parseJson(os.str(), &error);
    ASSERT_TRUE(doc) << error;
    const report::JsonValue *events = doc->get("traceEvents");
    ASSERT_TRUE(events && events->isArray());
    bool found = false;
    for (const report::JsonValue &event : events->asArray()) {
        const report::JsonValue *args = event.get("args");
        if (!args ||
            static_cast<uint64_t>(args->numberOr("trace_id", 0)) !=
                trace_id)
            continue;
        EXPECT_EQ(event.stringOr("name", ""), name);
        EXPECT_EQ(event.stringOr("ph", ""), "i");
        found = true;
    }
    EXPECT_TRUE(found) << "instant event not present in trace JSON";
}

#endif // VPPROF_TELEMETRY_ENABLED

TEST(Prometheus, NameSanitization)
{
    EXPECT_EQ(prometheusName("trace.vm_runs"), "vpprof_trace_vm_runs");
    EXPECT_EQ(prometheusName("daemon.queue_wait.us"),
              "vpprof_daemon_queue_wait_us");
    // Illegal characters collapse to underscores; the result must
    // match [a-zA-Z_:][a-zA-Z0-9_:]*.
    std::string weird = prometheusName("a-b c{}\"d");
    EXPECT_EQ(weird, "vpprof_a_b_c___d");
}

TEST(Prometheus, CounterGaugeAndHistogramShapes)
{
    // The serializer is pure over MetricsSnapshot — drive it with a
    // hand-built snapshot so the assertions are exact.
    MetricsSnapshot snap;
    snap.counters["daemon.requests"] = 42;
    snap.gauges["daemon.clients"] = -3;
    HistogramSnapshot hist;
    hist.count = 3;
    hist.sum = 7;                   // 1 + 2 + 4
    hist.buckets = {1, 1, 1};       // <=1, (1,2], (2,4]
    snap.histograms["job.us"] = hist;

    std::string text = prometheusText(snap);
    EXPECT_NE(text.find("# TYPE vpprof_daemon_requests_total counter"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("vpprof_daemon_requests_total 42"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE vpprof_daemon_clients gauge"),
              std::string::npos);
    EXPECT_NE(text.find("vpprof_daemon_clients -3"), std::string::npos);
    // Gauges must NOT get the counter suffix.
    EXPECT_EQ(text.find("vpprof_daemon_clients_total"),
              std::string::npos);
    // Histogram: cumulative le buckets over powers of two, +Inf,
    // _sum and _count.
    EXPECT_NE(text.find("# TYPE vpprof_job_us histogram"),
              std::string::npos);
    EXPECT_NE(text.find("vpprof_job_us_bucket{le=\"1\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("vpprof_job_us_bucket{le=\"2\"} 2"),
              std::string::npos);
    EXPECT_NE(text.find("vpprof_job_us_bucket{le=\"4\"} 3"),
              std::string::npos);
    EXPECT_NE(text.find("vpprof_job_us_bucket{le=\"+Inf\"} 3"),
              std::string::npos);
    EXPECT_NE(text.find("vpprof_job_us_sum 7"), std::string::npos);
    EXPECT_NE(text.find("vpprof_job_us_count 3"), std::string::npos);
}

TEST(Prometheus, EmptySnapshotIsHeaderOnly)
{
    // The degraded (VPPROF_TELEMETRY=OFF) daemon serves an empty
    // snapshot; the exposition must still be well-formed: comment
    // lines only, no series.
    std::string text = prometheusText(MetricsSnapshot{});
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (!line.empty()) {
            EXPECT_EQ(line[0], '#') << line;
        }
    }
}

#if VPPROF_TELEMETRY_ENABLED

TEST(TelemetryRegistry, SnapshotUnderLoadIsMonotonic)
{
    // Owner threads hammer their shards while a reader snapshots
    // concurrently: every successive read of a counter must be
    // non-decreasing (counters are monotone; a racing snapshot may be
    // one event stale but never torn), and the final merge must be
    // exact.
    constexpr int kThreads = 4;
    constexpr uint64_t kPerThread = 50'000;
    const char *kName = "test.obs.snapshot_under_load";
    Counter counter(kName);

    std::atomic<bool> start{false};
    std::atomic<int> done{0};
    std::vector<std::thread> owners;
    for (int t = 0; t < kThreads; ++t) {
        owners.emplace_back([&] {
            while (!start.load(std::memory_order_acquire)) {
            }
            for (uint64_t i = 0; i < kPerThread; ++i)
                counter.add();
            done.fetch_add(1, std::memory_order_release);
        });
    }

    uint64_t prev = 0;
    uint64_t snapshots = 0;
    start.store(true, std::memory_order_release);
    while (done.load(std::memory_order_acquire) < kThreads) {
        MetricsSnapshot snap = snapshotMetrics();
        auto it = snap.counters.find(kName);
        uint64_t now = it == snap.counters.end() ? 0 : it->second;
        ASSERT_GE(now, prev) << "snapshot went backwards";
        ASSERT_LE(now, kThreads * kPerThread) << "snapshot overshot";
        prev = now;
        ++snapshots;
    }
    for (auto &t : owners)
        t.join();

    MetricsSnapshot final_snap = snapshotMetrics();
    EXPECT_EQ(final_snap.counters.at(kName), kThreads * kPerThread);
    // The reader must have genuinely raced the owners, not observed
    // one quiescent state.
    EXPECT_GE(snapshots, 2u);
}

#endif // VPPROF_TELEMETRY_ENABLED

} // namespace
} // namespace telemetry
} // namespace vpprof
