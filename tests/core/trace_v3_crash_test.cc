/**
 * @file
 * v3 extension of the crash-consistency matrix: the columnar format's
 * failure modes — block-checksum corruption, torn tail blocks, and
 * cross-generation (v2 -> v3) adoption — must degrade exactly like the
 * v2 scenarios do: bit-identical replays, structured counters, no
 * aborts, evidence preserved in `<file>.bad`.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "common/checksum.hh"
#include "common/failpoint.hh"
#include "core/session.hh"
#include "predictors/profile_classifier.hh"

namespace vpprof
{
namespace
{

namespace fs = std::filesystem;

const Workload &
li()
{
    static WorkloadSuite suite;
    return *suite.find("li");
}

uint64_t
replayDigest(Session &session, const Workload &w, size_t input)
{
    uint64_t sum = kFnv1a64Seed;
    CallbackTraceSink sink([&](const TraceRecord &rec) {
        sum = fnv1a64(&rec.seq, sizeof(rec.seq), sum);
        sum = fnv1a64(&rec.pc, sizeof(rec.pc), sum);
        sum = fnv1a64(&rec.value, sizeof(rec.value), sum);
        uint8_t flags = (rec.writesReg ? 1 : 0) | (rec.isMem ? 2 : 0);
        sum = fnv1a64(&flags, 1, sum);
        sum = fnv1a64(&rec.memAddr, sizeof(rec.memAddr), sum);
    });
    session.runTrace(w, input, &sink);
    return sum;
}

uint64_t
referenceDigest()
{
    static uint64_t digest = [] {
        Session clean;
        return replayDigest(clean, li(), 0);
    }();
    return digest;
}

class TraceV3Crash : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        FailpointRegistry::instance().reset();
        ::unsetenv("VPPROF_TRACE_FORMAT");
        dir_ = ::testing::TempDir() + "/vpprof_v3crash_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name();
        fs::remove_all(dir_);
    }

    void
    TearDown() override
    {
        FailpointRegistry::instance().reset();
        ::unsetenv("VPPROF_TRACE_FORMAT");
        fs::remove_all(dir_);
    }

    SessionConfig
    cacheConfig(uint64_t budget = 96'000'000)
    {
        SessionConfig cfg;
        cfg.traceCacheDir = dir_;
        cfg.residentRecordBudget = budget;
        return cfg;
    }

    std::string
    cacheFile() const
    {
        return dir_ + "/li.in0.trace";
    }

    std::string
    slurp(const std::string &path) const
    {
        std::ifstream in(path, std::ios::binary);
        return std::string((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    }

    void
    spit(const std::string &path, const std::string &bytes) const
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }

    std::string dir_;
};

TEST_F(TraceV3Crash, BlockChecksumCorruptionQuarantinesToBad)
{
    // Capture a v3 cache file, flip one payload bit mid-block: the
    // next session must quarantine it to `<file>.bad` (per-block
    // checksum, no file-level trailer in v3) and regenerate.
    {
        Session warmup(cacheConfig());
        ASSERT_EQ(replayDigest(warmup, li(), 0), referenceDigest());
    }
    std::string bytes = slurp(cacheFile());
    ASSERT_GT(bytes.size(), 100u);
    ASSERT_EQ(bytes[7], '3') << "capture must default to v3";
    bytes[bytes.size() / 2] =
        static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
    spit(cacheFile(), bytes);

    Session session(cacheConfig());
    EXPECT_EQ(replayDigest(session, li(), 0), referenceDigest());
    TraceRepoStats st = session.traces().stats();
    EXPECT_EQ(st.corruptQuarantined, 1u);
    EXPECT_EQ(st.regenerations, 1u);
    EXPECT_EQ(st.vmRuns, 1u);
    EXPECT_EQ(st.diskLoads, 0u);
    EXPECT_TRUE(fs::exists(cacheFile() + ".bad"));
    // The regenerated commit is healthy: a fresh session adopts it.
    Session adopt(cacheConfig());
    EXPECT_EQ(replayDigest(adopt, li(), 0), referenceDigest());
    EXPECT_EQ(adopt.traces().stats().diskLoads, 1u);
}

TEST_F(TraceV3Crash, TornTailBlockRecoversThroughTheLadder)
{
    // Budget 0 keeps the trace on disk. After a successful replay the
    // file is torn mid-block underneath the session — the next replay
    // must climb the ladder (reopen fails with TruncatedFile, the
    // retry fails the same way, the VM regenerates) and still deliver
    // a bit-identical stream. The ladder quarantines the torn file and
    // re-captures it from the regeneration.
    Session session(cacheConfig(0));
    ASSERT_EQ(replayDigest(session, li(), 0), referenceDigest());
    ASSERT_EQ(session.traces().stats().spilledTraces, 1u);

    std::string bytes = slurp(cacheFile());
    ASSERT_GT(bytes.size(), 100u);
    ASSERT_EQ(bytes[7], '3');
    spit(cacheFile(), bytes.substr(0, bytes.size() - 23));

    EXPECT_EQ(replayDigest(session, li(), 0), referenceDigest());
    TraceRepoStats st = session.traces().stats();
    EXPECT_EQ(st.readRetries, 1u);
    EXPECT_EQ(st.regenerations, 1u);
    EXPECT_EQ(st.vmRuns, 1u)
        << "the regeneration does not count as a trace-producing run";
    EXPECT_EQ(st.corruptQuarantined, 1u);
    EXPECT_TRUE(fs::exists(cacheFile() + ".bad"));

    // The next replay reads the re-captured file.
    EXPECT_EQ(replayDigest(session, li(), 0), referenceDigest());
    EXPECT_EQ(session.traces().stats().regenerations, 1u);

    // A FRESH session adopts the re-captured file as healthy.
    Session probe(cacheConfig(0));
    EXPECT_EQ(replayDigest(probe, li(), 0), referenceDigest());
    EXPECT_EQ(probe.traces().stats().corruptQuarantined, 0u);
    EXPECT_EQ(probe.traces().stats().diskLoads, 1u);
    EXPECT_EQ(probe.traces().stats().regenerations, 0u);
}

TEST_F(TraceV3Crash, V2CacheAdoptedByV3SessionUnderFaults)
{
    // The migration scenario as a matrix row: a v2-pinned process
    // captured the cache; a v3-default process adopts it, and a
    // mid-replay fault on the adopted v2 file still recovers through
    // the ladder.
    ::setenv("VPPROF_TRACE_FORMAT", "2", 1);
    {
        Session capture(cacheConfig());
        ASSERT_EQ(replayDigest(capture, li(), 0), referenceDigest());
    }
    ASSERT_EQ(slurp(cacheFile())[7], '2');
    ::unsetenv("VPPROF_TRACE_FORMAT");

    // Transparent adoption, resident transcode: no VM run.
    {
        Session adopt(cacheConfig());
        EXPECT_EQ(replayDigest(adopt, li(), 0), referenceDigest());
        TraceRepoStats st = adopt.traces().stats();
        EXPECT_EQ(st.vmRuns, 0u);
        EXPECT_EQ(st.diskLoads, 1u);
        EXPECT_EQ(st.corruptQuarantined, 0u);
    }

    // Same adoption with budget 0 (the v2 file serves replays
    // directly) under an injected transient read fault.
    FailpointRegistry::instance().arm("trace_io.read",
                                      {FailpointAction::Short, 50});
    Session faulty(cacheConfig(0));
    EXPECT_EQ(replayDigest(faulty, li(), 0), referenceDigest());
    TraceRepoStats st = faulty.traces().stats();
    EXPECT_EQ(st.vmRuns, 0u);
    EXPECT_EQ(st.readRetries, 1u);
    EXPECT_EQ(st.regenerations, 0u);
}

/**
 * Rewrite li's cache file in `format` with one producer's pc moved
 * past the end of the program. The writer checksums what it writes,
 * so only the pc bound can tell the file is foreign.
 */
void
plantOutOfRangePc(const std::string &path, TraceFormat format)
{
    Session clean;
    TraceFileWriter writer(path, format);
    uint64_t producers = 0;
    CallbackTraceSink sink([&](const TraceRecord &rec) {
        TraceRecord out = rec;
        if (rec.writesReg && ++producers == 5000)
            out.pc = li().program().size() + 7;
        writer.record(out);
    });
    clean.runTrace(li(), 0, &sink);
    ASSERT_EQ(writer.close(), TraceIoStatus::Ok);
}

/** Profile, finite-table and ILP results of li.in0 in `session`. */
struct CellResults
{
    ProfileImage profile;
    FiniteTableStats finite;
    IlpResult ilp;
};

CellResults
cellResults(Session &session)
{
    CellResults out;
    out.profile = session.collectProfile(li(), 0);
    out.finite = session.evaluateFiniteTable(
        li(), 0, li().program(), VpPolicy::Fsm, paperFiniteConfig(true));
    out.ilp = session.evaluateIlp(li(), 0, li().program(), IlpConfig{},
                                  VpPolicy::Fsm, paperFiniteConfig(true));
    return out;
}

void
expectSameResults(const CellResults &got, const CellResults &want)
{
    EXPECT_TRUE(got.profile == want.profile);
    EXPECT_EQ(got.finite.correctTaken, want.finite.correctTaken);
    EXPECT_EQ(got.finite.incorrectTaken, want.finite.incorrectTaken);
    EXPECT_EQ(got.finite.evictions, want.finite.evictions);
    EXPECT_EQ(got.ilp.cycles, want.ilp.cycles);
    EXPECT_EQ(got.ilp.correctUsed, want.ilp.correctUsed);
}

TEST_F(TraceV3Crash, OutOfRangePcIsQuarantinedAndRegenerated)
{
    // A v3 file whose block checksums are valid but whose pc column
    // runs past the program (a cache left by another build) is
    // corrupt: quarantined at adoption and re-captured, never handed
    // to a per-pc table or Program::at.
    fs::create_directories(dir_);
    plantOutOfRangePc(cacheFile(), TraceFormat::V3);
    TraceIoStatus status = TraceIoStatus::Ok;
    ASSERT_TRUE(TraceFileReader::tryOpen(cacheFile(), &status))
        << "the planted file must pass its block checksums";
    EXPECT_FALSE(TraceFileReader::tryOpen(cacheFile(), &status,
                                          TraceVerify::Full,
                                          li().program().size()));
    EXPECT_EQ(status, TraceIoStatus::PcOutOfRange);

    Session clean;
    CellResults want = cellResults(clean);
    Session session(cacheConfig());
    expectSameResults(cellResults(session), want);
    EXPECT_EQ(replayDigest(session, li(), 0), referenceDigest());
    TraceRepoStats st = session.traces().stats();
    EXPECT_EQ(st.corruptQuarantined, 1u);
    EXPECT_EQ(st.regenerations, 1u);
    EXPECT_EQ(st.vmRuns, 1u);
    EXPECT_EQ(st.diskLoads, 0u);
    EXPECT_TRUE(fs::exists(cacheFile() + ".bad"));

    // The re-captured file is healthy: a fresh session adopts it.
    Session adopt(cacheConfig());
    expectSameResults(cellResults(adopt), want);
    EXPECT_EQ(adopt.traces().stats().diskLoads, 1u);
    EXPECT_EQ(adopt.traces().stats().corruptQuarantined, 0u);
}

TEST_F(TraceV3Crash, OutOfRangePcInV2CacheNeverReachesConsumers)
{
    // v2 records are checked as they are read: a resident adoption
    // transcodes through the reader and quarantines; an on-disk trace
    // (budget 0) fails the read and its Full re-read, so the ladder
    // quarantines the file, regenerates the rest via the VM and
    // re-captures the file from that run.
    fs::create_directories(dir_);
    Session clean;
    CellResults want = cellResults(clean);

    plantOutOfRangePc(cacheFile(), TraceFormat::V2);
    {
        Session session(cacheConfig());
        expectSameResults(cellResults(session), want);
        TraceRepoStats st = session.traces().stats();
        EXPECT_EQ(st.corruptQuarantined, 1u);
        EXPECT_EQ(st.regenerations, 1u);
        EXPECT_TRUE(fs::exists(cacheFile() + ".bad"));
    }

    plantOutOfRangePc(cacheFile(), TraceFormat::V2);
    fs::remove(cacheFile() + ".bad");
    Session on_disk(cacheConfig(0));
    expectSameResults(cellResults(on_disk), want);
    TraceRepoStats st = on_disk.traces().stats();
    EXPECT_EQ(st.vmRuns, 0u);
    EXPECT_EQ(st.corruptQuarantined, 1u);
    EXPECT_EQ(st.regenerations, 1u);
    EXPECT_TRUE(fs::exists(cacheFile() + ".bad"));

    // Later replays read the re-captured file: no more regenerations.
    for (int replay = 0; replay < 3; ++replay) {
        EXPECT_EQ(replayDigest(on_disk, li(), 0), referenceDigest());
    }
    expectSameResults(cellResults(on_disk), want);
    st = on_disk.traces().stats();
    EXPECT_EQ(st.corruptQuarantined, 1u);
    EXPECT_EQ(st.regenerations, 1u);
    EXPECT_EQ(st.vmRuns, 0u);

    // The re-captured file is healthy: a fresh session adopts it.
    Session adopt(cacheConfig(0));
    expectSameResults(cellResults(adopt), want);
    EXPECT_EQ(adopt.traces().stats().diskLoads, 1u);
    EXPECT_EQ(adopt.traces().stats().corruptQuarantined, 0u);
    EXPECT_EQ(adopt.traces().stats().regenerations, 0u);
}

} // namespace
} // namespace vpprof
