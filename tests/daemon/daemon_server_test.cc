/**
 * @file
 * DaemonServer behavior over a real Unix-domain socket: protocol round
 * trips, admission control (overloaded / quota / draining rejections
 * are explicit and structured), graceful drain (run() returns 0 with
 * every admitted job answered and telemetry outputs flushed), idle
 * timeouts, and the serving-path results being bit-identical to the
 * CLI-batch pipelines over the same Session methods.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "common/telemetry/telemetry.hh"
#include "core/experiment.hh"
#include "core/session.hh"
#include "daemon/client.hh"
#include "daemon/dispatch.hh"
#include "daemon/server.hh"
#include "predictors/profile_classifier.hh"
#include "predictors/saturating_classifier.hh"

namespace vpprof
{
namespace daemon
{
namespace
{

namespace fs = std::filesystem;

/** Short unique socket paths (sun_path is ~108 bytes). */
std::string
freshSocketPath()
{
    static int counter = 0;
    std::ostringstream os;
    os << "/tmp/vpd_t" << ::getpid() << "_" << counter++ << ".sock";
    return os.str();
}

class DaemonServerTest : public ::testing::Test
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

    /** Drain the server (idempotent) and return run()'s exit code. */
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

    std::unique_ptr<DaemonServer> server_;
    std::thread serverThread_;
    int runRc_ = -1;
};

TEST_F(DaemonServerTest, PingAndStatsRoundTrip)
{
    startServer(baseConfig());
    DaemonClient client = connectedClient();

    CallResult ping = client.call(1, Command::Ping, "", 0, 0, false,
                                  5000);
    ASSERT_TRUE(ping.ok) << ping.error;
    EXPECT_EQ(ping.response.stringOr("cmd", ""), "ping");

    CallResult stats = client.call(2, Command::Stats, "", 0, 0, false,
                                   5000);
    ASSERT_TRUE(stats.ok) << stats.error;
    const report::JsonValue *result = stats.response.get("result");
    ASSERT_TRUE(result);
    const report::JsonValue *daemon_block = result->get("daemon");
    ASSERT_TRUE(daemon_block);
    // This connection is live and both requests were inline commands.
    EXPECT_GE(daemon_block->numberOr("connections", -1), 1.0);
    EXPECT_GE(daemon_block->numberOr("immediate", -1), 2.0);
    EXPECT_DOUBLE_EQ(daemon_block->numberOr("clients", -1), 1.0);
    // The trace block is the shared TraceRepoStats serializer.
    const report::JsonValue *trace_block = result->get("trace");
    ASSERT_TRUE(trace_block);
    EXPECT_DOUBLE_EQ(trace_block->numberOr("vm_runs", -1), 0.0);
}

TEST_F(DaemonServerTest, BadRequestsAreStructuredRejections)
{
    startServer(baseConfig());
    DaemonClient client = connectedClient();

    ASSERT_TRUE(client.sendLine("this is not json"));
    auto line = client.readLine(5000);
    ASSERT_TRUE(line) << client.lastError();
    auto doc = report::parseJson(*line);
    ASSERT_TRUE(doc);
    EXPECT_EQ(doc->stringOr("code", ""), "bad_request");

    // A malformed command with a recoverable id echoes that id.
    ASSERT_TRUE(client.sendLine(R"({"id": 55, "cmd": "launch"})"));
    line = client.readLine(5000);
    ASSERT_TRUE(line) << client.lastError();
    doc = report::parseJson(*line);
    ASSERT_TRUE(doc);
    EXPECT_DOUBLE_EQ(doc->numberOr("id", -1), 55.0);
    EXPECT_EQ(doc->stringOr("code", ""), "bad_request");

    // Unknown workload and out-of-range input are job-level failures.
    CallResult unknown = client.call(3, Command::Profile, "nope", 0, 0,
                                     false, 5000);
    EXPECT_FALSE(unknown.ok);
    EXPECT_EQ(unknown.code, "unknown_workload");
    CallResult bad_input = client.call(4, Command::Profile, "compress",
                                       99, 0, false, 5000);
    EXPECT_FALSE(bad_input.ok);
    EXPECT_EQ(bad_input.code, "bad_input");

    // The connection survived all four rejections.
    CallResult ping = client.call(5, Command::Ping, "", 0, 0, false,
                                  5000);
    EXPECT_TRUE(ping.ok) << ping.error;
}

TEST_F(DaemonServerTest, EvaluateMatchesDirectSessionBitForBit)
{
    DaemonConfig cfg = baseConfig();
    startServer(cfg);
    DaemonClient client = connectedClient();

    CallResult r = client.call(1, Command::Evaluate, "compress", 0,
                               70.0, false, 120'000);
    ASSERT_TRUE(r.ok) << r.error;
    const report::JsonValue *result = r.response.get("result");
    ASSERT_TRUE(result);

    // The CLI-batch reference: the same pipeline cmdClassify runs, on
    // a fresh Session (fresh caches, no shared state with the daemon).
    WorkloadSuite suite;
    const Workload *w = suite.find("compress");
    ASSERT_TRUE(w);
    Session session;
    InserterConfig icfg;
    icfg.accuracyThresholdPercent = 70.0;
    Program annotated =
        session.annotatedProgram(*w, trainingInputsFor(*w, 0), icfg);
    SaturatingClassifier fsm;
    ClassificationAccuracy fsm_acc =
        session.evaluateClassification(*w, 0, w->program(), fsm);
    ProfileClassifier prof;
    ClassificationAccuracy prof_acc =
        session.evaluateClassification(*w, 0, annotated, prof);

    // formatJsonNumber round-trips doubles exactly, so the parsed
    // response must equal the in-process doubles BIT for bit.
    EXPECT_EQ(result->numberOr("fsm_misp_pct", -1),
              fsm_acc.mispredictionAccuracy());
    EXPECT_EQ(result->numberOr("fsm_corr_pct", -1),
              fsm_acc.correctAccuracy());
    EXPECT_EQ(result->numberOr("prof_misp_pct", -1),
              prof_acc.mispredictionAccuracy());
    EXPECT_EQ(result->numberOr("prof_corr_pct", -1),
              prof_acc.correctAccuracy());
}

TEST_F(DaemonServerTest, ProfileDigestMatchesDirectSession)
{
    startServer(baseConfig());
    DaemonClient client = connectedClient();

    CallResult r = client.call(1, Command::Profile, "compress", 1, 0,
                               false, 120'000);
    ASSERT_TRUE(r.ok) << r.error;
    const report::JsonValue *result = r.response.get("result");
    ASSERT_TRUE(result);

    Session session;
    WorkloadSuite suite;
    const ProfileImage &image =
        session.collectProfile(*suite.find("compress"), 1);
    EXPECT_EQ(result->numberOr("digest", -1),
              static_cast<double>(profileDigest(image) >> 11));
    EXPECT_EQ(result->numberOr("profiled_pcs", -1),
              static_cast<double>(image.size()));
}

TEST_F(DaemonServerTest, VerifyRunsTheWorkload)
{
    startServer(baseConfig());
    DaemonClient client = connectedClient();
    CallResult r = client.call(1, Command::Verify, "compress", 0, 0,
                               false, 120'000);
    ASSERT_TRUE(r.ok) << r.error;
    const report::JsonValue *result = r.response.get("result");
    ASSERT_TRUE(result);
    ASSERT_TRUE(result->get("matches"));
    EXPECT_TRUE(result->get("matches")->asBool());
    EXPECT_GT(result->numberOr("instructions", 0), 0.0);
}

/**
 * Read response lines until every id in `want` has its final answer
 * (ok or error; events don't count). Returns them by id.
 */
std::map<uint64_t, report::JsonValue>
collectResponses(DaemonClient &client, const std::set<uint64_t> &want,
                 int timeout_ms)
{
    std::map<uint64_t, report::JsonValue> responses;
    while (responses.size() < want.size()) {
        auto line = client.readLine(timeout_ms);
        if (!line)
            break;  // timeout/EOF: return what we have
        auto doc = report::parseJson(*line);
        if (!doc || doc->get("event"))
            continue;
        uint64_t id = static_cast<uint64_t>(doc->numberOr("id", 0));
        if (want.count(id))
            responses.emplace(id, std::move(*doc));
    }
    return responses;
}

TEST_F(DaemonServerTest, OverloadRejectionIsExplicit)
{
    DaemonConfig cfg = baseConfig();
    cfg.maxQueue = 1;  // one admitted job total
    startServer(cfg);
    DaemonClient client = connectedClient();

    // Both requests arrive in ONE write: the event loop admits the
    // first (a cold profile job: the executor holds it for far longer
    // than the loop needs to parse the second line) and must reject
    // the second explicitly as `overloaded` — never silence.
    std::string burst =
        R"({"id": 1, "cmd": "profile", "workload": "compress"})"
        "\n"
        R"({"id": 2, "cmd": "profile", "workload": "compress"})";
    ASSERT_TRUE(client.sendLine(burst));

    auto responses = collectResponses(client, {1, 2}, 120'000);
    ASSERT_EQ(responses.size(), 2u) << client.lastError();
    ASSERT_TRUE(responses.at(1).get("ok"));
    EXPECT_TRUE(responses.at(1).get("ok")->asBool());
    EXPECT_EQ(responses.at(2).stringOr("code", ""), "overloaded");

    DaemonStatsSnapshot st = server_->statsSnapshot();
    EXPECT_EQ(st.rejectedOverloaded, 1u);
    EXPECT_EQ(st.jobsAdmitted, 1u);
    EXPECT_EQ(st.jobsCompleted, 1u);
}

TEST_F(DaemonServerTest, PerClientQuotaIsEnforced)
{
    DaemonConfig cfg = baseConfig();
    cfg.maxQueue = 64;
    cfg.maxInflightPerClient = 1;
    startServer(cfg);
    DaemonClient client = connectedClient();

    std::string burst =
        R"({"id": 1, "cmd": "profile", "workload": "compress"})"
        "\n"
        R"({"id": 2, "cmd": "profile", "workload": "compress"})";
    ASSERT_TRUE(client.sendLine(burst));

    auto responses = collectResponses(client, {1, 2}, 120'000);
    ASSERT_EQ(responses.size(), 2u) << client.lastError();
    ASSERT_TRUE(responses.at(1).get("ok"));
    EXPECT_TRUE(responses.at(1).get("ok")->asBool());
    EXPECT_EQ(responses.at(2).stringOr("code", ""), "quota");
    EXPECT_EQ(server_->statsSnapshot().rejectedQuota, 1u);

    // The quota freed up once job 1 answered: job 3 is admitted.
    CallResult r3 = client.call(3, Command::Profile, "compress", 0, 0,
                                false, 120'000);
    EXPECT_TRUE(r3.ok) << r3.error;
}

TEST_F(DaemonServerTest, DrainingRejectsNewJobsButAnswersAdmitted)
{
    startServer(baseConfig());
    DaemonClient client = connectedClient();

    // One write: admit a job, begin the drain, then try another job.
    // The admitted job must complete; the post-shutdown job must be
    // rejected `draining`; the shutdown command itself is acked.
    std::string burst =
        R"({"id": 1, "cmd": "profile", "workload": "compress"})"
        "\n"
        R"({"id": 2, "cmd": "shutdown"})"
        "\n"
        R"({"id": 3, "cmd": "profile", "workload": "compress"})";
    ASSERT_TRUE(client.sendLine(burst));

    auto responses = collectResponses(client, {1, 2, 3}, 120'000);
    ASSERT_EQ(responses.size(), 3u) << client.lastError();
    ASSERT_TRUE(responses.at(1).get("ok"));
    EXPECT_TRUE(responses.at(1).get("ok")->asBool());
    EXPECT_TRUE(responses.at(2).get("ok")->asBool());
    EXPECT_EQ(responses.at(3).stringOr("code", ""), "draining");

    // The daemon drains and run() returns 0 (the only clean exit).
    EXPECT_EQ(stopServer(), 0);
}

TEST_F(DaemonServerTest, ShutdownRefusesNewConnections)
{
    DaemonConfig cfg = baseConfig();
    startServer(cfg);
    DaemonClient client = connectedClient();
    CallResult r = client.call(1, Command::Shutdown, "", 0, 0, false,
                               5000);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(stopServer(), 0);

    // The socket file is unlinked: connecting again must fail fast.
    DaemonClient late;
    std::string error;
    EXPECT_FALSE(late.connect(cfg.socketPath, &error));
}

TEST_F(DaemonServerTest, SigtermStyleShutdownFlushesTelemetry)
{
    // requestShutdown() is exactly what the vpprofd SIGTERM handler
    // calls; after run() returns, the configured --metrics-out file
    // must exist and contain the daemon.* counters (satellite: flush
    // on signal-initiated drain, not only at exit()).
    std::string metrics_path =
        ::testing::TempDir() + "/vpd_metrics_flush.json";
    fs::remove(metrics_path);
    telemetry::configureOutputs("", metrics_path);

    startServer(baseConfig());
    DaemonClient client = connectedClient();
    CallResult ping = client.call(1, Command::Ping, "", 0, 0, false,
                                  5000);
    ASSERT_TRUE(ping.ok) << ping.error;

    server_->requestShutdown();  // the signal handler's exact call
    EXPECT_EQ(stopServer(), 0);

    std::ifstream in(metrics_path);
    ASSERT_TRUE(in.good()) << "metrics file not written on drain";
    std::stringstream content;
    content << in.rdbuf();
    auto doc = report::parseJson(content.str());
    ASSERT_TRUE(doc) << "metrics file is not valid JSON";
    // With telemetry compiled out the registry is a no-op, so the
    // flushed snapshot is legitimately empty — the drain contract is
    // only that the file gets written.
    if (telemetry::kEnabled) {
        EXPECT_NE(content.str().find("daemon.connections"),
                  std::string::npos);
    }
    fs::remove(metrics_path);
}

TEST_F(DaemonServerTest, IdleConnectionsAreClosed)
{
    DaemonConfig cfg = baseConfig();
    cfg.idleTimeoutMs = 50;
    startServer(cfg);
    DaemonClient client = connectedClient();

    // No request, no job in flight: the daemon must close us. EOF
    // arrives as a failed read with "disconnected".
    auto line = client.readLine(5000);
    EXPECT_FALSE(line);
    EXPECT_EQ(client.lastError(), "disconnected");
    EXPECT_GE(server_->statsSnapshot().idleCloses, 1u);
}

TEST_F(DaemonServerTest, ProgressEventsStreamForSubscribedJobs)
{
    startServer(baseConfig());
    DaemonClient client = connectedClient();

    CallResult r = client.call(1, Command::Profile, "compress", 0, 0,
                               true, 120'000);
    ASSERT_TRUE(r.ok) << r.error;
    // At minimum the immediate `accepted` event; a cold profile job
    // usually also yields >= 1 periodic `progress` event.
    ASSERT_FALSE(r.events.empty());
    auto accepted = report::parseJson(r.events.front());
    ASSERT_TRUE(accepted);
    EXPECT_EQ(accepted->stringOr("event", ""), "accepted");
}

TEST_F(DaemonServerTest, OversizedRequestLineIsRejected)
{
    DaemonConfig cfg = baseConfig();
    cfg.maxLineBytes = 128;
    startServer(cfg);
    DaemonClient client = connectedClient();

    std::string huge(4096, 'x');  // no newline: pure buffer pressure
    ASSERT_TRUE(client.sendLine(huge));
    auto line = client.readLine(5000);
    // The daemon answers bad_request (readable before the close) and
    // then drops the connection.
    ASSERT_TRUE(line) << client.lastError();
    auto doc = report::parseJson(*line);
    ASSERT_TRUE(doc);
    EXPECT_EQ(doc->stringOr("code", ""), "bad_request");
    EXPECT_FALSE(client.readLine(5000));
}

TEST_F(DaemonServerTest, ManyClientsShareOneTraceRepository)
{
    startServer(baseConfig());

    // Four clients ask for the same (workload, input) profile; the
    // trace-once Session must interpret the VM exactly once.
    constexpr int kClients = 4;
    std::vector<std::thread> threads;
    std::vector<double> digests(kClients, -1);
    std::string socket = server_->config().socketPath;
    for (int i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i] {
            DaemonClient client;
            std::string error;
            if (!client.connect(socket, &error))
                return;
            CallResult r = client.call(1, Command::Profile, "compress",
                                       0, 0, false, 120'000);
            if (r.ok && r.response.get("result"))
                digests[i] =
                    r.response.get("result")->numberOr("digest", -2);
        });
    }
    for (auto &t : threads)
        t.join();
    for (int i = 0; i < kClients; ++i) {
        EXPECT_GE(digests[i], 0.0) << "client " << i << " failed";
        EXPECT_EQ(digests[i], digests[0]);
    }
    // The trace-once invariant under concurrent serving: one VM run
    // for input 0 (collectProfile replays the one cached trace).
    EXPECT_EQ(server_->session().traces().vmRuns(), 1u);
}

} // namespace
} // namespace daemon
} // namespace vpprof
