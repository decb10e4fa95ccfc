/**
 * @file
 * The daemon's observability plane over a real socket (DESIGN.md §14):
 * trace-id echo and minting, journal ordering, the subscribe round
 * trip (ack spec, event stream, deterministic sampling), the
 * slow-subscriber shed contract, SLO burn accounting, the metrics
 * command in both formats, and the acceptance-criteria property that
 * one request's span tree is reconstructible from the Perfetto trace
 * by trace id alone.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/telemetry/telemetry.hh"
#include "daemon/client.hh"
#include "daemon/observe.hh"
#include "daemon/server.hh"
#include "report/json.hh"

namespace vpprof
{
namespace daemon
{
namespace
{

/** Short unique socket paths (sun_path is ~108 bytes). */
std::string
freshSocketPath()
{
    static int counter = 0;
    std::ostringstream os;
    os << "/tmp/vpd_o" << ::getpid() << "_" << counter++ << ".sock";
    return os.str();
}

class DaemonObservabilityTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        stopServer();
    }

    DaemonConfig
    baseConfig()
    {
        DaemonConfig cfg;
        cfg.socketPath = freshSocketPath();
        cfg.session.jobs = 2;
        return cfg;
    }

    void
    startServer(const DaemonConfig &cfg)
    {
        server_ = std::make_unique<DaemonServer>(cfg);
        std::string error;
        ASSERT_TRUE(server_->start(&error)) << error;
        serverThread_ = std::thread([this] { runRc_ = server_->run(); });
    }

    int
    stopServer()
    {
        if (!server_)
            return runRc_;
        server_->requestShutdown();
        if (serverThread_.joinable())
            serverThread_.join();
        server_.reset();
        return runRc_;
    }

    DaemonClient
    connectedClient()
    {
        DaemonClient client;
        std::string error;
        EXPECT_TRUE(client.connect(server_->config().socketPath, &error))
            << error;
        return client;
    }

    static CallResult
    rawCall(DaemonClient &client, const Request &req)
    {
        return client.call(requestLine(req), req.id, 30'000);
    }

    std::unique_ptr<DaemonServer> server_;
    std::thread serverThread_;
    int runRc_ = -1;
};

TEST_F(DaemonObservabilityTest, ClientTraceIdIsEchoed)
{
    startServer(baseConfig());
    DaemonClient client = connectedClient();

    Request req;
    req.id = 1;
    req.cmd = Command::Profile;
    req.workload = "compress";
    req.traceId = 77;
    CallResult r = rawCall(client, req);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_DOUBLE_EQ(r.response.numberOr("trace_id", 0), 77.0);
}

TEST_F(DaemonObservabilityTest, MintedTraceIdsAreDistinct)
{
    if (!telemetry::kEnabled)
        GTEST_SKIP() << "trace ids degrade to 0 with telemetry off";
    startServer(baseConfig());
    DaemonClient client = connectedClient();

    CallResult a = client.call(1, Command::Ping, "", 0, 0, false,
                               5000);
    CallResult b = client.call(2, Command::Ping, "", 0, 0, false,
                               5000);
    ASSERT_TRUE(a.ok && b.ok);
    double ta = a.response.numberOr("trace_id", 0);
    double tb = b.response.numberOr("trace_id", 0);
    EXPECT_GT(ta, 0.0);
    EXPECT_GT(tb, 0.0);
    EXPECT_NE(ta, tb);
}

TEST_F(DaemonObservabilityTest, JournalNarratesJobLifecycleInOrder)
{
    if (!telemetry::kEnabled)
        GTEST_SKIP() << "journal is degraded with telemetry off";
    startServer(baseConfig());
    DaemonClient client = connectedClient();

    Request job;
    job.id = 5;
    job.cmd = Command::Profile;
    job.workload = "compress";
    job.traceId = 99;
    ASSERT_TRUE(rawCall(client, job).ok);

    Request jq;
    jq.id = 6;
    jq.cmd = Command::Journal;
    CallResult r = rawCall(client, jq);
    ASSERT_TRUE(r.ok) << r.error;
    const report::JsonValue *result = r.response.get("result");
    ASSERT_TRUE(result);
    EXPECT_GE(result->numberOr("total", 0), 4.0);
    const report::JsonValue *events = result->get("events");
    ASSERT_TRUE(events && events->isArray());

    // The job's narrative, in seq order, joined on trace_id.
    std::vector<std::string> kinds;
    double prev_seq = 0;
    for (const report::JsonValue &event : events->asArray()) {
        double seq = event.numberOr("seq", 0);
        EXPECT_GT(seq, prev_seq) << "journal out of order";
        prev_seq = seq;
        if (event.numberOr("trace_id", 0) == 99.0)
            kinds.push_back(event.stringOr("kind", ""));
    }
    ASSERT_EQ(kinds.size(), 4u);
    EXPECT_EQ(kinds[0], "received");
    EXPECT_EQ(kinds[1], "admitted");
    EXPECT_EQ(kinds[2], "started");
    EXPECT_EQ(kinds[3], "completed");

    // limit returns the NEWEST events, oldest first.
    jq.id = 7;
    jq.limit = 2;
    CallResult limited = rawCall(client, jq);
    ASSERT_TRUE(limited.ok);
    const report::JsonValue *lim_events =
        limited.response.get("result")->get("events");
    ASSERT_TRUE(lim_events && lim_events->isArray());
    ASSERT_EQ(lim_events->asArray().size(), 2u);
    EXPECT_EQ(lim_events->asArray()[0].stringOr("kind", ""), "started");
    EXPECT_EQ(lim_events->asArray()[1].stringOr("kind", ""),
              "completed");
}

TEST_F(DaemonObservabilityTest, SubscribeStreamsLifecycleEvents)
{
    if (!telemetry::kEnabled)
        GTEST_SKIP() << "subscriptions are degraded with telemetry off";
    startServer(baseConfig());
    DaemonClient subscriber = connectedClient();

    Request sub;
    sub.id = 1;
    sub.cmd = Command::Subscribe;
    sub.subEvents = "lifecycle";
    CallResult ack = rawCall(subscriber, sub);
    ASSERT_TRUE(ack.ok) << ack.error;
    const report::JsonValue *ack_result = ack.response.get("result");
    ASSERT_TRUE(ack_result);
    ASSERT_TRUE(ack_result->get("subscribed"));
    EXPECT_TRUE(ack_result->get("subscribed")->asBool());
    EXPECT_EQ(ack_result->stringOr("events", ""), "lifecycle");

    DaemonClient driver = connectedClient();
    Request job;
    job.id = 2;
    job.cmd = Command::Profile;
    job.workload = "compress";
    job.traceId = 1234;
    ASSERT_TRUE(rawCall(driver, job).ok);

    // The full narrative arrives as id-less event lines.
    std::vector<std::string> kinds;
    while (kinds.size() < 4) {
        auto line = subscriber.readLine(10'000);
        ASSERT_TRUE(line) << "stream went quiet after "
                          << kinds.size() << " events";
        std::string error;
        auto doc = report::parseJson(*line, &error);
        ASSERT_TRUE(doc) << error << " in " << *line;
        EXPECT_EQ(doc->stringOr("event", ""), "telemetry");
        EXPECT_DOUBLE_EQ(doc->numberOr("trace_id", 0), 1234.0);
        kinds.push_back(doc->stringOr("kind", ""));
    }
    EXPECT_EQ(kinds[0], "received");
    EXPECT_EQ(kinds[1], "admitted");
    EXPECT_EQ(kinds[2], "started");
    EXPECT_EQ(kinds[3], "completed");
}

TEST_F(DaemonObservabilityTest, SampleRateDownsamplesDeterministically)
{
    if (!telemetry::kEnabled)
        GTEST_SKIP() << "subscriptions are degraded with telemetry off";
    startServer(baseConfig());
    DaemonClient subscriber = connectedClient();

    Request sub;
    sub.id = 1;
    sub.cmd = Command::Subscribe;
    sub.subEvents = "lifecycle";
    sub.sampleRate = 0.25;  // deliver exactly every 4th event
    ASSERT_TRUE(rawCall(subscriber, sub).ok);

    DaemonClient driver = connectedClient();
    for (uint64_t i = 0; i < 3; ++i) {
        Request job;
        job.id = 10 + i;
        job.cmd = Command::Profile;
        job.workload = i % 2 ? "li" : "compress";
        ASSERT_TRUE(rawCall(driver, job).ok);
    }

    // 3 jobs x 4 lifecycle events = 12 matching events -> exactly 3
    // delivered (the accumulator crosses 1 on every 4th).
    size_t received = 0;
    while (subscriber.readLine(1000))
        ++received;
    EXPECT_EQ(received, 3u);
}

TEST_F(DaemonObservabilityTest, SlowSubscriberShedsInsteadOfBlocking)
{
    if (!telemetry::kEnabled)
        GTEST_SKIP() << "subscriptions are degraded with telemetry off";
    DaemonConfig cfg = baseConfig();
    cfg.subscriberRingCap = 2;
    cfg.maxClientOutBufBytes = 512;
    cfg.idleTimeoutMs = 0;  // the stalled subscriber must survive
    startServer(cfg);

    DaemonClient stalled = connectedClient();
    Request sub;
    sub.id = 1;
    sub.cmd = Command::Subscribe;
    sub.subEvents = "lifecycle";
    ASSERT_TRUE(rawCall(stalled, sub).ok);
    // From here on the subscriber never reads: its tiny ring, its
    // bounded backlog and the kernel socket buffer must fill, then
    // the daemon sheds the oldest events.

    DaemonClient driver = connectedClient();
    uint64_t jobs = 0;
    while (server_->statsSnapshot().eventsDropped == 0 && jobs < 2048) {
        Request job;
        job.id = 100 + jobs;
        job.cmd = Command::Profile;
        job.workload = jobs % 2 ? "li" : "compress";
        CallResult r = rawCall(driver, job);
        ASSERT_TRUE(r.ok) << "job " << jobs
                          << " unanswered while shedding: " << r.error;
        ++jobs;
    }
    EXPECT_GT(server_->statsSnapshot().eventsDropped, 0u)
        << "never shed after " << jobs << " jobs";
}

TEST_F(DaemonObservabilityTest, MetricsCommandServesBothFormats)
{
    startServer(baseConfig());
    DaemonClient client = connectedClient();

    Request req;
    req.id = 1;
    req.cmd = Command::Metrics;
    CallResult json = rawCall(client, req);
    ASSERT_TRUE(json.ok) << json.error;
    const report::JsonValue *result = json.response.get("result");
    ASSERT_TRUE(result);
    ASSERT_TRUE(result->get("telemetry_enabled"));
    if (telemetry::kEnabled) {
        EXPECT_TRUE(result->get("metrics") &&
                    result->get("metrics")->get("counters"));
    }

    req.id = 2;
    req.format = "prometheus";
    CallResult prom = rawCall(client, req);
    ASSERT_TRUE(prom.ok) << prom.error;
    std::string text =
        prom.response.get("result")->stringOr("text", "");
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text[0], '#') << "exposition must open with a comment";
    if (telemetry::kEnabled) {
        EXPECT_NE(text.find("vpprof_daemon_requests_total"),
                  std::string::npos)
            << text;
    }
}

#if VPPROF_TELEMETRY_ENABLED

TEST_F(DaemonObservabilityTest, SpanTreeReconstructsFromPerfettoTrace)
{
    // The acceptance-criteria property: pick a request's trace id,
    // parse the merged Perfetto trace, and its span tree — lifecycle
    // instants AND the executor span — comes back by filtering
    // args.trace_id alone.
    telemetry::SpanTracer::instance().enable();
    startServer(baseConfig());
    DaemonClient client = connectedClient();

    Request job;
    job.id = 1;
    job.cmd = Command::Profile;
    job.workload = "compress";
    job.traceId = 4242;
    ASSERT_TRUE(rawCall(client, job).ok);
    client.close();
    stopServer();
    telemetry::SpanTracer::instance().disable();

    std::ostringstream os;
    telemetry::SpanTracer::instance().writeJson(os);
    std::string error;
    auto doc = report::parseJson(os.str(), &error);
    ASSERT_TRUE(doc) << error;
    const report::JsonValue *events = doc->get("traceEvents");
    ASSERT_TRUE(events && events->isArray());

    std::vector<std::string> instants;
    bool executor_span = false;
    for (const report::JsonValue &event : events->asArray()) {
        const report::JsonValue *args = event.get("args");
        if (!args || args->numberOr("trace_id", 0) != 4242.0)
            continue;
        std::string ph = event.stringOr("ph", "");
        std::string name = event.stringOr("name", "");
        if (ph == "i")
            instants.push_back(name);
        else if (ph == "X" && name == "daemon.job")
            executor_span = true;
    }
    ASSERT_GE(instants.size(), 4u);
    EXPECT_EQ(instants[0], "job.received");
    EXPECT_EQ(instants[1], "job.admitted");
    EXPECT_EQ(instants[2], "job.started");
    EXPECT_EQ(instants[3], "job.completed");
    EXPECT_TRUE(executor_span)
        << "executor span not attributed to the job's trace id";
}

#endif // VPPROF_TELEMETRY_ENABLED

// ---- pure observe.hh units (no sockets) --------------------------

TEST(EventFilter, ParsesSpecsCanonically)
{
    std::string error;
    auto all = parseEventFilter("all", &error);
    ASSERT_TRUE(all) << error;
    EXPECT_TRUE(all->lifecycle && all->spans && all->metrics);

    auto dflt = parseEventFilter("", &error);
    ASSERT_TRUE(dflt);
    EXPECT_TRUE(dflt->lifecycle);
    EXPECT_FALSE(dflt->spans || dflt->metrics);
    EXPECT_EQ(dflt->spec(), "lifecycle");

    auto pair = parseEventFilter("spans,lifecycle", &error);
    ASSERT_TRUE(pair);
    EXPECT_EQ(pair->spec(), "lifecycle,spans");

    EXPECT_FALSE(parseEventFilter("lifecycle,bogus", &error));
    EXPECT_NE(error.find("bogus"), std::string::npos);
}

TEST(SloSpec, ParsesAndRejects)
{
    std::string error;
    auto slo = parseSloSpec("p99_ms=50,error_rate=0.01", &error);
    ASSERT_TRUE(slo) << error;
    EXPECT_DOUBLE_EQ(slo->p99Ms, 50.0);
    EXPECT_DOUBLE_EQ(slo->errorRate, 0.01);
    EXPECT_TRUE(slo->configured());

    EXPECT_FALSE(parseSloSpec("p50_ms=50", &error));
    EXPECT_FALSE(parseSloSpec("error_rate=2", &error));
    EXPECT_FALSE(parseSloSpec("p99_ms=", &error));
}

TEST(SloTracker, TightObjectivesBurnGenerousStayQuiet)
{
    SloConfig tight;
    tight.p99Ms = 0.0001;
    tight.errorRate = 0;
    SloTracker tracker;
    tracker.configure(tight, 64);
    EXPECT_EQ(tracker.minSamples(), 8u);
    for (int i = 0; i < 10; ++i)
        tracker.observe(1.0, i != 9);  // one deliberate failure
    EXPECT_EQ(tracker.observed(), 10u);
    // Evaluation starts once the window holds minSamples: every
    // observation past that with p99 over budget burns.
    EXPECT_GE(tracker.latencyBurns(), 1u);
    EXPECT_GE(tracker.errorBurns(), 1u);

    SloTracker generous;
    SloConfig loose;
    loose.p99Ms = 600'000;
    loose.errorRate = 1.0;
    generous.configure(loose, 64);
    for (int i = 0; i < 10; ++i)
        generous.observe(1.0, i != 9);
    EXPECT_EQ(generous.latencyBurns(), 0u);
    EXPECT_EQ(generous.errorBurns(), 0u);
}

TEST(SloTracker, WindowSlidesOldSamplesOut)
{
    SloConfig cfg;
    cfg.errorRate = 0.5;
    SloTracker tracker;
    tracker.configure(cfg, 8);
    // Fill the window with failures (rate 1.0 > 0.5: burns), then
    // push 8 successes: the failures age out and burning stops.
    for (int i = 0; i < 8; ++i)
        tracker.observe(1.0, false);
    uint64_t burned = tracker.errorBurns();
    EXPECT_GE(burned, 1u);
    for (int i = 0; i < 8; ++i)
        tracker.observe(1.0, true);
    uint64_t after_recovery = tracker.errorBurns();
    tracker.observe(1.0, true);
    EXPECT_EQ(tracker.errorBurns(), after_recovery)
        << "an all-ok window must not burn";
    EXPECT_DOUBLE_EQ(tracker.windowErrorRate(), 0.0);
}

TEST(JobEventJson, RoundTripsThroughStrictParser)
{
    JobEvent event;
    event.seq = 12;
    event.tsNs = 3456;
    event.kind = JobEventKind::Failed;
    event.requestId = 9;
    event.traceId = 42;
    event.clientSerial = 3;
    event.cmd = Command::Evaluate;
    event.workload = "weird \"name\"\nwith\tcontrol\x01bytes";
    event.detail = "error: \\ backslash";
    event.queued = 5;

    std::string line = jobEventJson(event);
    std::string error;
    auto doc = report::parseJson(line, &error);
    ASSERT_TRUE(doc) << error << " in " << line;
    EXPECT_EQ(doc->stringOr("event", ""), "telemetry");
    EXPECT_EQ(doc->stringOr("kind", ""), "failed");
    EXPECT_DOUBLE_EQ(doc->numberOr("seq", 0), 12.0);
    EXPECT_DOUBLE_EQ(doc->numberOr("trace_id", 0), 42.0);
    EXPECT_EQ(doc->stringOr("workload", ""), event.workload);
    EXPECT_EQ(doc->stringOr("detail", ""), event.detail);
    EXPECT_DOUBLE_EQ(doc->numberOr("queued", 0), 5.0);
    // The `event` member is what call()'s matcher keys on to skip
    // interleaved telemetry; the request id rides along for joining.
    EXPECT_DOUBLE_EQ(doc->numberOr("id", 0), 9.0);
}

TEST(EventJournal, BoundedRingAgesOutOldest)
{
    EventJournal journal(3);
    for (uint64_t i = 1; i <= 5; ++i) {
        JobEvent e;
        e.seq = i;
        journal.push(std::move(e));
    }
    EXPECT_EQ(journal.totalPushed(), 5u);
    EXPECT_EQ(journal.size(), 3u);
    std::string rendered = journal.renderJsonArray(0);
    std::string error;
    auto doc = report::parseJson(rendered, &error);
    ASSERT_TRUE(doc) << error;
    ASSERT_TRUE(doc->isArray());
    ASSERT_EQ(doc->asArray().size(), 3u);
    EXPECT_DOUBLE_EQ(doc->asArray()[0].numberOr("seq", 0), 3.0);
    EXPECT_DOUBLE_EQ(doc->asArray()[2].numberOr("seq", 0), 5.0);
}

// ---- protocol additions ------------------------------------------

TEST(ObservabilityProtocol, ParsesSubscriptionFields)
{
    std::string error;
    auto req = parseRequest(
        R"({"id": 1, "cmd": "subscribe", "events": "lifecycle,spans",)"
        R"( "sample_rate": 0.5, "trace_id": 9})",
        &error);
    ASSERT_TRUE(req) << error;
    EXPECT_EQ(req->cmd, Command::Subscribe);
    EXPECT_EQ(req->subEvents, "lifecycle,spans");
    EXPECT_DOUBLE_EQ(req->sampleRate, 0.5);
    EXPECT_EQ(req->traceId, 9u);

    auto metrics = parseRequest(
        R"({"id": 2, "cmd": "metrics", "format": "prometheus"})",
        &error);
    ASSERT_TRUE(metrics) << error;
    EXPECT_EQ(metrics->format, "prometheus");

    auto journal = parseRequest(
        R"({"id": 3, "cmd": "journal", "limit": 16})", &error);
    ASSERT_TRUE(journal) << error;
    EXPECT_EQ(journal->limit, 16u);
}

TEST(ObservabilityProtocol, RejectsBadObservabilityFields)
{
    std::string error;
    EXPECT_FALSE(parseRequest(
        R"({"id": 1, "cmd": "subscribe", "sample_rate": 0})", &error));
    EXPECT_FALSE(parseRequest(
        R"({"id": 1, "cmd": "subscribe", "sample_rate": 1.5})",
        &error));
    EXPECT_FALSE(parseRequest(
        R"({"id": 1, "cmd": "subscribe", "sample_rate": -0.5})",
        &error));
    EXPECT_FALSE(
        parseRequest(R"({"id": 1, "cmd": "ping", "trace_id": -3})",
                     &error));
}

TEST(ObservabilityProtocol, ResponsesCarryTraceId)
{
    std::string line =
        okResponseLine(7, Command::Ping, "\"pong\": true", 55);
    std::string error;
    auto doc = report::parseJson(line, &error);
    ASSERT_TRUE(doc) << error;
    EXPECT_DOUBLE_EQ(doc->numberOr("trace_id", 0), 55.0);
    EXPECT_DOUBLE_EQ(doc->numberOr("id", 0), 7.0);
}

} // namespace
} // namespace daemon
} // namespace vpprof
