/**
 * @file
 * Tests of the benchmark's own logic: seeded inputs, the percentile
 * rule, the CPU clocks, metric and workload names, and the output
 * checks that turn a wrong answer into a counted failure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <regex>
#include <sstream>

#include <sys/wait.h>
#include <unistd.h>

#include "daemon/protocol.hh"
#include "harness/bench_core.hh"
#include "harness/daemon_load.hh"
#include "harness/offline_sweep.hh"

using namespace perfbench;
using vpprof::daemon::Command;
using vpprof::daemon::Request;

namespace
{

std::vector<std::string>
lines(const std::vector<Request> &reqs)
{
    std::vector<std::string> out;
    for (const Request &req : reqs)
        out.push_back(vpprof::daemon::requestLine(req));
    return out;
}

std::vector<Key>
someKeys()
{
    return {{"compress", 0}, {"li", 1}, {"go", 2}, {"gcc", 3}};
}

} // namespace

TEST(Seeding, SameSeedSameRequestSequence)
{
    auto keys = someKeys();
    EXPECT_EQ(lines(mixSequence(7, 1, 200, keys)),
              lines(mixSequence(7, 1, 200, keys)));
}

TEST(Seeding, DifferentSeedOrStreamDifferentSequence)
{
    auto keys = someKeys();
    auto base = lines(mixSequence(7, 1, 200, keys));
    EXPECT_NE(base, lines(mixSequence(8, 1, 200, keys)));
    EXPECT_NE(base, lines(mixSequence(7, 2, 200, keys)));
}

TEST(Seeding, MixHoldsTheDeclaredProportions)
{
    auto reqs = mixSequence(3, 0, 800, someKeys());
    size_t verify = 0, evaluate = 0, profile = 0, control = 0;
    for (const Request &req : reqs) {
        switch (req.cmd) {
          case Command::Verify: ++verify; break;
          case Command::Evaluate: ++evaluate; break;
          case Command::Profile: ++profile; break;
          default: ++control; break;
        }
        EXPECT_EQ(req.id, &req - reqs.data() + 1);
    }
    EXPECT_EQ(verify, 300u);
    EXPECT_EQ(evaluate, 300u);
    EXPECT_EQ(profile, 100u);
    EXPECT_EQ(control, 100u);
}

TEST(Seeding, SameSeedSameArrivalSchedule)
{
    EXPECT_EQ(arrivalSchedule(5, 15.0, 30.0),
              arrivalSchedule(5, 15.0, 30.0));
    EXPECT_NE(arrivalSchedule(5, 15.0, 30.0),
              arrivalSchedule(6, 15.0, 30.0));
}

TEST(Seeding, ArrivalScheduleHasTheRequestedRate)
{
    auto due = arrivalSchedule(11, 20.0, 500.0);
    EXPECT_NEAR(static_cast<double>(due.size()) / 500.0, 20.0, 1.0);
    for (size_t i = 1; i < due.size(); ++i)
        EXPECT_LT(due[i - 1], due[i]);
    EXPECT_LT(due.back(), 500.0);
}

TEST(Seeding, CellOrderIsASeededPermutation)
{
    auto a = seededOrder(45, 9);
    EXPECT_EQ(a, seededOrder(45, 9));
    EXPECT_NE(a, seededOrder(45, 10));
    std::vector<size_t> sorted = a;
    std::sort(sorted.begin(), sorted.end());
    for (size_t i = 0; i < sorted.size(); ++i)
        EXPECT_EQ(sorted[i], i);
}

TEST(Percentile, P99NeedsTenSamplesBeyondIt)
{
    std::vector<double> samples;
    for (int i = 1; i <= 999; ++i)
        samples.push_back(i);
    EXPECT_FALSE(tailPercentile(samples, 0.99).has_value());
    samples.push_back(1000);
    auto p99 = tailPercentile(samples, 0.99);
    ASSERT_TRUE(p99.has_value());
    EXPECT_EQ(*p99, 990.0);  // exactly ten samples (991..1000) beyond
}

TEST(Percentile, LowerPercentilesNeedFewerSamples)
{
    std::vector<double> samples;
    for (int i = 1; i <= 45; ++i)
        samples.push_back(i);
    EXPECT_FALSE(tailPercentile(samples, 0.95).has_value());
    auto p75 = tailPercentile(samples, 0.75);
    ASSERT_TRUE(p75.has_value());
    EXPECT_EQ(*p75, 34.0);  // 11 samples beyond
    EXPECT_FALSE(tailPercentile({}, 0.5).has_value());
}

TEST(Percentile, MedianOfEvenAndOddCounts)
{
    EXPECT_EQ(median({3, 1, 2}), 2.0);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(Clocks, CpuTimeCountsWorkAndNeedsALiveProcess)
{
    double thread0 = threadCpuSeconds();
    double process0 = processCpuSeconds(::getpid());
    ASSERT_GE(thread0, 0);
    ASSERT_GE(process0, 0);
    volatile uint64_t x = 1;
    for (int i = 0; i < 20'000'000; ++i)
        x = x * 6364136223846793005ull + 1442695040888963407ull;
    EXPECT_GT(threadCpuSeconds(), thread0);
    EXPECT_GT(processCpuSeconds(::getpid()), process0);

    pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0)
        ::_exit(0);
    ::waitpid(child, nullptr, 0);
    EXPECT_EQ(processCpuSeconds(child), -1);  // reaped: no clock
}

TEST(Names, EveryBenchmarkNameIsValid)
{
    // Every workload and metric name BENCHMARK.json declares.
    std::vector<std::string> names;
    std::ifstream in(PERFBENCH_BENCHMARK_JSON);
    ASSERT_TRUE(in) << "cannot read " << PERFBENCH_BENCHMARK_JSON;
    std::stringstream text;
    text << in.rdbuf();
    std::regex nameField("\"name\": \"([^\"]*)\"");
    std::string body = text.str();
    for (std::sregex_iterator it(body.begin(), body.end(), nameField), end;
         it != end; ++it)
        names.push_back((*it)[1]);
    EXPECT_GT(names.size(), 10u);
    for (const char *workload : {"offline_sweep", "daemon_closed"})
        EXPECT_NE(std::find(names.begin(), names.end(), workload),
                  names.end())
            << workload;
    std::regex allowed("[A-Za-z0-9_.-]+");
    for (const std::string &name : names) {
        EXPECT_TRUE(std::regex_match(name, allowed)) << name;
        EXPECT_TRUE(validName(name)) << name;
    }
    EXPECT_FALSE(validName("bad name"));
    EXPECT_FALSE(validName("_leading"));
    EXPECT_FALSE(validName(""));
}

TEST(Names, MetricSetRejectsBadOrRepeatedNames)
{
    MetricSet m;
    m.add("p50_ms", 1.5, "ms");
    EXPECT_DEATH(m.add("p50_ms", 2.0, "ms"), "reported twice");
    EXPECT_DEATH(m.add("p50 ms", 2.0, "ms"), "invalid metric name");
}

TEST(Output, ResultLineCarriesEveryMetric)
{
    MetricSet m;
    m.add("setup_s", 0.8127, "s");
    m.add("p50_ms", 1.2034, "ms");
    EXPECT_EQ(resultJsonLine(true, 1000, 0, m),
              "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "
              "\"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": "
              "\"s\"}, \"p50_ms\": {\"value\": 1.2034, \"unit\": "
              "\"ms\"}}}");
}

TEST(Checks, CorruptedResponseRaisesFailedFrac)
{
    Request req;
    req.id = 4;
    req.cmd = Command::Evaluate;
    req.workload = "li";
    req.input = 1;
    req.threshold = 70;
    ReferenceTable refs;
    std::string fields = "\"threshold\": 70, \"fsm_misp_pct\": 98.5";
    refs[jobKey(req)] = fields;
    std::string good =
        vpprof::daemon::okResponseLine(req.id, req.cmd, fields, 9);
    Tally tally;
    for (const std::string &line :
         {good, std::string(good).replace(good.find("98.5"), 4, "98.6"),
          vpprof::daemon::errorResponseLine(
              req.id, vpprof::daemon::ErrorCode::Overloaded, "busy", 9),
          std::string("{\"id\": 4")}) {
        std::string why = checkResponse(req, line, refs);
        if (why.empty())
            tally.pass();
        else
            tally.fail(why);
    }
    EXPECT_EQ(tally.attempted(), 4u);
    EXPECT_EQ(tally.failed(), 3u);
    EXPECT_DOUBLE_EQ(tally.failedFrac(), 0.75);
}

TEST(Checks, VerifyMustMatchItsChecksum)
{
    Request req;
    req.id = 2;
    req.cmd = Command::Verify;
    req.workload = "go";
    req.input = 0;
    ReferenceTable refs;
    std::string wrong = "\"instructions\": 5, \"matches\": false";
    refs[jobKey(req)] = wrong;
    EXPECT_FALSE(
        checkResponse(req,
                      vpprof::daemon::okResponseLine(2, req.cmd, wrong, 1),
                      refs)
            .empty());
}

TEST(Checks, UnreachableDaemonRaisesFailedFrac)
{
    // No daemon listens here: every load client is refused, and each
    // refusal is a failure rather than load that silently went missing.
    const std::string socket = "perfbench-no-daemon.sock";
    Tracer tracer(false);
    for (bool open_loop : {false, true}) {
        Window w;
        if (open_loop)
            openLoop(socket, 3, someKeys(), 0.2, kOpenRatePerS, tracer, w);
        else
            closedLoop(socket, 3, someKeys(), 0.2, tracer, w);
        Tally tally;
        checkWindow(w, {}, tally);
        EXPECT_TRUE(w.samples.empty()) << "open_loop=" << open_loop;
        EXPECT_EQ(tally.failed(), kClients) << "open_loop=" << open_loop;
        EXPECT_DOUBLE_EQ(tally.failedFrac(), 1.0);
    }
}

TEST(Checks, CorruptedCellResultRaisesFailedFrac)
{
    vpprof::WorkloadSuite suite;
    Cell cell = allCells(suite).front();
    CellResult want = {1, 2, 3, 4};
    CellResult corrupted = want;
    corrupted[2] ^= 1;
    Tally tally;
    checkCell(want, want, cell, tally);
    checkCell(corrupted, want, cell, tally);
    checkCell({1, 2, 3}, want, cell, tally);
    EXPECT_EQ(tally.attempted(), 3u);
    EXPECT_EQ(tally.failed(), 2u);
    ASSERT_FALSE(tally.reasons().empty());
    EXPECT_NE(tally.reasons()[0].find("counter 2"), std::string::npos);
}

TEST(Tracer, SelfTimeSubtractsTheChildrenCover)
{
    // Parent [0, 100) with overlapping children [10, 40) and [30, 50)
    // (covering 40) and a grandchild inside the second; a child that
    // spills past its parent is clipped to the parent's interval.
    std::vector<Tracer::Span> spans(5);
    spans[0] = {"parent", 0, 100, -1, 1, 1};
    spans[1] = {"a", 10, 40, 0, 1, 1};
    spans[2] = {"b", 30, 50, 0, 1, 1};
    spans[3] = {"c", 35, 45, 2, 1, 1};
    spans[4] = {"late", 90, 120, 0, 1, 1};
    std::vector<uint64_t> self = Tracer::selfTimesNs(spans);
    EXPECT_EQ(self[0], 50u);  // 100 - (40 covered + 10 of "late")
    EXPECT_EQ(self[1], 30u);
    EXPECT_EQ(self[2], 10u);
    EXPECT_EQ(self[3], 10u);
    EXPECT_EQ(self[4], 30u);
}

TEST(Tracer, NestedScopesRecordParents)
{
    Tracer tracer(true);
    {
        ScopedSpan parent(tracer, "parent", 1);
        ScopedSpan child(tracer, "child", 1);
        tracer.add("leaf", nowNs(), nowNs(), 1);
    }
    std::vector<Tracer::Span> spans = tracer.spans();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].parent, -1);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_EQ(spans[2].parent, 1);
    EXPECT_EQ(tracer.count("child"), 1u);
}

TEST(Tracer, DisabledTracerRecordsNothing)
{
    Tracer tracer(false);
    {
        ScopedSpan span(tracer, "x", 1);
        tracer.add("y", 1, 2, 1);
    }
    EXPECT_TRUE(tracer.spans().empty());
}
