#include "core/session.hh"

#include <filesystem>
#include <optional>
#include <sstream>
#include <unistd.h>

#include "common/failpoint.hh"
#include "common/file_lock.hh"
#include "common/logging.hh"
#include "common/telemetry/telemetry.hh"
#include "core/evaluators.hh"
#include "ilp/dataflow_engine.hh"
#include "predictors/stride_predictor.hh"
#include "profile/profile_collector.hh"
#include "profile/sampling/sketch_collector.hh"
#include "vm/trace_io.hh"

namespace vpprof
{

namespace fs = std::filesystem;

struct TraceRepository::Entry
{
    std::mutex produceMutex;
    std::atomic<bool> produced{false};

    // Immutable once `produced` is set (release-published): replays
    // read these concurrently without locks.
    ColumnarTrace columnar;  ///< resident encoded form
    bool resident = false;   ///< columnar holds the trace
    bool onDisk = false;
    bool tempFile = false;  ///< spill file we own (delete at teardown)
    /**
     * Degraded mode: the trace fits neither the resident budget nor
     * the disk (spill failed, e.g. ENOSPC). Replays re-interpret the
     * workload instead — slower, never wrong.
     */
    bool reinterpret = false;
    std::string path;
    RunResult result;

    /**
     * Whether `path` has passed a Full (checksummed) validation in
     * this process — set when we adopted it, wrote it ourselves, or a
     * replay fully verified it. Later replays open HeaderOnly: the
     * per-replay payload re-hash was measured at ~3x replay cost
     * (bench_cache_robustness), and a file we just proved gains
     * nothing from being re-proved. Cleared whenever a replay has to
     * fall back to the VM, so the next attempt re-verifies in full.
     */
    std::atomic<bool> fileVerified{false};

    /** Bumped (under produceMutex) each time a replay quarantines and
     *  re-captures `path`. */
    std::atomic<uint64_t> fileGeneration{0};
};

namespace
{

/** Persistent cache-file name for a (workload, input) pair. */
std::string
traceFileName(const std::string &workload, size_t input_idx)
{
    std::ostringstream os;
    os << workload << ".in" << input_idx << ".trace";
    return os.str();
}

/** Block sink that re-assembles records for a record-level consumer. */
class RecordFanBlockSink : public TraceBlockSink
{
  public:
    explicit RecordFanBlockSink(TraceSink *sink) : sink_(sink) {}

    void
    consumeBlock(const TraceBlockView &block) override
    {
        for (uint32_t i = 0; i < block.count; ++i)
            sink_->record(block.record(i));
    }

  private:
    TraceSink *sink_;
};

} // namespace

TraceRepository::TraceRepository(const SessionConfig &config)
    : config_(config)
{
    if (!config_.traceCacheDir.empty()) {
        std::error_code ec;
        fs::create_directories(config_.traceCacheDir, ec);
        if (ec)
            vpprof_fatal("cannot create trace cache directory '",
                         config_.traceCacheDir, "': ", ec.message());
    }
}

TraceRepository::~TraceRepository()
{
    if (!tempDir_.empty()) {
        std::error_code ec;
        fs::remove_all(tempDir_, ec);  // best-effort temp cleanup
    }
}

TraceRepository::Entry &
TraceRepository::entryFor(const Workload &workload, size_t input_idx)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto key = std::make_pair(std::string(workload.name()), input_idx);
    auto [it, inserted] = entries_.try_emplace(key);
    if (inserted) {
        it->second = std::make_unique<Entry>();
        counters_.uniqueTraces.add();
    }
    return *it->second;
}

void
TraceRepository::quarantine(const std::string &path,
                            TraceIoStatus status)
{
    // Rename the sick file aside so the evidence survives for a
    // post-mortem and the next probe sees a clean miss; `.bad` files
    // are never probed (lookups only ever use the exact trace name).
    std::string bad = path + ".bad";
    std::error_code ec;
    fs::rename(path, bad, ec);
    if (ec)
        fs::remove(path, ec);  // last resort: clear the slot
    counters_.corruptQuarantined.add();
    // Diagnostic, not fatal — and rate-limited: a sweep touching a
    // damaged cache directory hits this once per trace file, and
    // stdout consumers (bench JSON, CLI pipelines) must never see
    // these lines interleaved into their output.
    vpprof_warn_limited(8, "quarantined unusable trace cache file ",
                        path, " (", traceIoStatusName(status),
                        "); regenerating");
}

TraceRepository::AdoptOutcome
TraceRepository::adoptCacheFile(Entry &entry, const std::string &path,
                                uint64_t pcLimit)
{
    VPPROF_TIMED_SPAN("trace.adopt");
    // Adopt a valid file captured by an earlier process; any
    // malformed file (truncated writer, foreign bytes, flipped bits,
    // future format version, pcs outside the program) is a
    // structured miss, never a crash or a short replay — it is
    // quarantined and the trace re-captured. Trace files carry no
    // program identity, so the pc bound is what keeps a file from
    // another build out of the per-pc tables.
    TraceIoStatus status = TraceIoStatus::Ok;
    auto reader = TraceFileReader::tryOpen(path, &status,
                                           TraceVerify::Full, pcLimit);
    if (!reader) {
        if (status == TraceIoStatus::IoError)
            return AdoptOutcome::Missing;
        quarantine(path, status);
        return AdoptOutcome::Quarantined;
    }

    uint64_t count = reader->recordCount();
    bool resident = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        resident = static_cast<uint64_t>(
                       counters_.residentRecords.value()) +
                       count <=
                   config_.residentRecordBudget;
        if (resident)
            counters_.residentRecords.add(
                static_cast<int64_t>(count));
    }

    entry.fileVerified.store(true, std::memory_order_relaxed);
    if (resident) {
        if (reader->readColumnar(entry.columnar)) {
            // v3: the file payload IS the resident form — one buffer
            // copy, no decode.
            entry.resident = true;
        } else {
            // v1/v2: transcode the record stream into the columnar
            // resident form — this is also how a legacy cache
            // migrates into a v3 session transparently.
            ColumnarTraceBuilder builder;
            TraceRecord rec;
            while (reader->next(rec))
                builder.record(rec);
            if (reader->status() != TraceIoStatus::Ok ||
                reader->recordsRead() != count) {
                // The file shrank between validate() and the bulk
                // read: un-reserve the budget and treat it like any
                // corruption.
                counters_.residentRecords.add(
                    -static_cast<int64_t>(count));
                quarantine(path, reader->status());
                return AdoptOutcome::Quarantined;
            }
            entry.columnar = builder.take();
            entry.resident = true;
        }
    } else {
        entry.onDisk = true;
    }
    counters_.v3BytesMapped.add(reader->mappedBytes());

    entry.result.instructionsExecuted = count;
    entry.result.halted = true;
    entry.path = path;
    counters_.diskLoads.add();
    if (!resident)
        counters_.spilledTraces.add();
    entry.produced.store(true, std::memory_order_release);
    return AdoptOutcome::Adopted;
}

bool
TraceRepository::writeTraceFile(const std::string &path,
                                const ColumnarTrace &trace)
{
    VPPROF_TIMED_SPAN("trace.spill");
    TraceIoStatus st;
    if (defaultTraceFormat() == TraceFormat::V3) {
        // The capture is already encoded: persisting is a framed
        // buffer write, not a second per-record encode.
        st = writeColumnarTraceFile(path, trace);
    } else {
        // Pinned to v2 (VPPROF_TRACE_FORMAT=2): decode the resident
        // blocks back into records for the fixed-width writer.
        TraceFileWriter writer(path, TraceFormat::V2);
        TraceBlockScratch scratch;
        RecordFanBlockSink fan(&writer);
        replayColumnarTrace(trace, scratch, &fan);
        st = writer.close();
    }
    if (st == TraceIoStatus::Ok)
        return true;
    counters_.spillFailures.add();
    vpprof_warn_limited(8, "cannot persist trace to ", path, " (",
                        traceIoStatusName(st),
                        "); continuing without the file");
    return false;
}

std::string
TraceRepository::spillPathFor(const std::string &name, size_t input_idx)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (tempDir_.empty()) {
        std::string dir = (fs::temp_directory_path() /
                           ("vpprof-traces-" +
                            std::to_string(::getpid())))
                              .string();
        std::error_code ec;
        fs::create_directories(dir, ec);
        if (ec) {
            vpprof_warn_limited(4, "cannot create trace spill "
                                "directory '", dir, "': ",
                                ec.message());
            return {};
        }
        tempDir_ = dir;
    }
    return tempDir_ + "/" + traceFileName(name, input_idx);
}

void
TraceRepository::produce(Entry &entry, const Workload &workload,
                         size_t input_idx)
{
    std::string name(workload.name());
    std::string cachePath;
    std::optional<ScopedFileLock> cacheLock;
    bool quarantined = false;
    if (!config_.traceCacheDir.empty()) {
        cachePath = config_.traceCacheDir + "/" +
                    traceFileName(name, input_idx);
        // Advisory cross-process lock around probe + capture +
        // commit: a sibling process sharing this cache directory
        // either finishes its capture first (we adopt it) or blocks
        // until ours is committed. Readers never need the lock —
        // commits are atomic renames.
        {
            VPPROF_TIMED_SPAN("trace.lock_wait");
            cacheLock.emplace(cachePath + ".lock");
        }
        switch (adoptCacheFile(entry, cachePath,
                               workload.program().size())) {
          case AdoptOutcome::Adopted:
            return;
          case AdoptOutcome::Quarantined:
            quarantined = true;
            break;
          case AdoptOutcome::Missing:
            break;
        }
    }

    // First use in any process (or the cached copy was unusable):
    // interpret the workload once, encoding columnar blocks as the
    // records stream out — the capture is never held as AoS records.
    ColumnarTraceBuilder builder;
    {
        VPPROF_TIMED_SPAN("trace.capture");
        entry.result = runProgram(workload.program(),
                                  workload.input(input_idx), &builder,
                                  workload.maxInstructions());
    }
    ColumnarTrace trace = builder.take();

    if (!cachePath.empty() && writeTraceFile(cachePath, trace)) {
        entry.path = cachePath;
        // We produced those bytes through the checksumming writer:
        // they are proved for this process without a re-read.
        entry.fileVerified.store(true, std::memory_order_relaxed);
    }

    counters_.vmRuns.add();
    if (quarantined)
        counters_.regenerations.add();
    bool fits = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        fits = static_cast<uint64_t>(
                   counters_.residentRecords.value()) +
                   trace.records <=
               config_.residentRecordBudget;
        if (fits)
            counters_.residentRecords.add(
                static_cast<int64_t>(trace.records));
    }

    if (fits) {
        entry.columnar = std::move(trace);
        entry.resident = true;
    } else {
        // Over budget: this trace lives on disk. Reuse the persistent
        // cache file when we just wrote one; otherwise spill into a
        // private temp directory.
        if (entry.path.empty()) {
            std::string spillPath = spillPathFor(name, input_idx);
            bool spilled = false;
            if (!spillPath.empty()) {
                switch (FailpointRegistry::instance().fire("spill")) {
                  case FailpointAction::Fail:
                  case FailpointAction::NoSpace:
                    counters_.spillFailures.add();
                    vpprof_warn_limited(8, "cannot persist trace to ",
                                        spillPath, " (injected spill "
                                        "failure); continuing without "
                                        "the file");
                    break;
                  default:
                    spilled = writeTraceFile(spillPath, trace);
                    break;
                }
            }
            if (spilled) {
                entry.path = spillPath;
                entry.tempFile = true;
                entry.fileVerified.store(true,
                                         std::memory_order_relaxed);
            }
        }
        if (!entry.path.empty()) {
            entry.onDisk = true;
            counters_.spilledTraces.add();
        } else {
            // Nowhere to put it: neither memory (budget) nor disk
            // (spill failed, e.g. ENOSPC). Degrade to re-interpreting
            // the workload on every replay — the experiment still
            // completes, bit-identical, just without the cache.
            entry.reinterpret = true;
            vpprof_warn_limited(4, "trace for ", name, ".in",
                                input_idx, " fits neither memory nor "
                                "disk; degrading to re-interpretation "
                                "per replay");
        }
    }
    entry.produced.store(true, std::memory_order_release);
}

void
TraceRepository::replayFromDisk(Entry &entry, const Workload &workload,
                                size_t input_idx, TraceSink *sink)
{
    // Streams `entry.path` into `sink`. The sink cannot un-consume
    // records, so every recovery step below resumes exactly past the
    // `delivered` prefix — consumers see one contiguous, bit-exact
    // trace no matter how many attempts it took.
    VPPROF_TIMED_SPAN("trace.replay.disk");
    uint64_t delivered = 0;
    auto stream = [&](TraceFileReader &reader) {
        TraceRecord rec;
        while (reader.next(rec)) {
            sink->record(rec);
            ++delivered;
        }
        counters_.v3BlocksDecoded.add(reader.blocksDecoded());
        counters_.v3BytesMapped.add(reader.mappedBytes());
        return reader.status() == TraceIoStatus::Ok &&
               delivered == reader.recordCount();
    };

    uint64_t generation =
        entry.fileGeneration.load(std::memory_order_acquire);

    // A file already proved this process (adopted, self-written, or
    // fully verified by an earlier replay) opens HeaderOnly; anything
    // else pays the Full checksum pass exactly once.
    bool verified = entry.fileVerified.load(std::memory_order_acquire);
    uint64_t pcLimit = workload.program().size();
    TraceIoStatus status = TraceIoStatus::Ok;
    auto reader = TraceFileReader::tryOpen(
        entry.path, &status,
        verified ? TraceVerify::HeaderOnly : TraceVerify::Full, pcLimit);
    if (reader && !verified)
        entry.fileVerified.store(true, std::memory_order_release);
    if (reader && stream(*reader))
        return;
    if (reader)
        status = reader->status();

    // Mid-replay failure: the file changed underneath us (or an
    // injected fault fired) after it validated at open. Retry once
    // from disk, skipping the prefix the sink already has...
    counters_.readRetries.add();
    vpprof_warn_limited(8, "trace replay of ", entry.path,
                        " failed (", traceIoStatusName(status),
                        ") after ", delivered,
                        " records; retrying from disk");
    // The retry always re-verifies in full: the failure says the file
    // is not what the earlier proof was about.
    auto retry = TraceFileReader::tryOpen(entry.path, &status,
                                          TraceVerify::Full, pcLimit);
    if (retry && retry->skip(delivered) && stream(*retry))
        return;
    if (retry)
        status = retry->status();
    entry.fileVerified.store(false, std::memory_order_release);

    // ...then regenerate via the VM. Interpretation is deterministic,
    // so the regenerated records past `delivered` are the records the
    // file would have held.
    counters_.regenerations.add();
    vpprof_warn_limited(8, "trace file ", entry.path,
                        " is unreadable; regenerating the replay "
                        "via the VM");
    VPPROF_TIMED_SPAN("trace.regenerate");

    // A file that fails its Full re-verification is sick, not busy:
    // quarantine it the way adoption does and re-capture it from this
    // run, or every later replay pays two opens and a VM run again. A
    // file that cannot be opened at all (IoError) is left alone, and a
    // replay that failed before another one re-captured the file only
    // regenerates.
    std::lock_guard<std::mutex> lock(entry.produceMutex);
    bool recapture =
        status != TraceIoStatus::IoError &&
        entry.fileGeneration.load(std::memory_order_relaxed) == generation;
    ColumnarTraceBuilder builder;
    uint64_t seen = 0;
    CallbackTraceSink skipper([&](const TraceRecord &rec) {
        if (recapture)
            builder.record(rec);
        if (seen++ >= delivered)
            sink->record(rec);
    });
    runProgram(workload.program(), workload.input(input_idx), &skipper,
               workload.maxInstructions());
    if (!recapture)
        return;
    std::optional<ScopedFileLock> cacheLock;
    if (!entry.tempFile)
        cacheLock.emplace(entry.path + ".lock");
    quarantine(entry.path, status);
    if (writeTraceFile(entry.path, builder.take()))
        entry.fileVerified.store(true, std::memory_order_release);
    entry.fileGeneration.fetch_add(1, std::memory_order_release);
}

RunResult
TraceRepository::replay(const Workload &workload, size_t input_idx,
                        TraceSink *sink)
{
    Entry &entry = entryFor(workload, input_idx);
    if (!entry.produced.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(entry.produceMutex);
        if (!entry.produced.load(std::memory_order_relaxed))
            produce(entry, workload, input_idx);
    }

    if (sink) {
        VPPROF_TIMED_SPAN("trace.replay");
        if (entry.reinterpret) {
            // Degraded mode (spill failed): re-interpret per replay.
            VPPROF_TIMED_SPAN("trace.regenerate");
            runProgram(workload.program(), workload.input(input_idx),
                       sink, workload.maxInstructions());
            counters_.regenerations.add();
        } else if (entry.onDisk) {
            replayFromDisk(entry, workload, input_idx, sink);
        } else {
            TraceBlockScratch scratch;
            RecordFanBlockSink fan(sink);
            replayColumnarTrace(entry.columnar, scratch, &fan);
            counters_.v3BlocksDecoded.add(entry.columnar.blocks);
        }
    }

    counters_.replays.add();
    return entry.result;
}

RunResult
TraceRepository::replayBatch(const Workload &workload, size_t input_idx,
                             EvaluatorBank &bank)
{
    Entry &entry = entryFor(workload, input_idx);
    if (!entry.produced.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(entry.produceMutex);
        if (!entry.produced.load(std::memory_order_relaxed))
            produce(entry, workload, input_idx);
    }

    {
        VPPROF_TIMED_SPAN("trace.replay");
        if (entry.reinterpret) {
            // Degraded mode (spill failed): re-interpret per replay,
            // regrouping the fresh record stream into blocks so the
            // bank sees the same column-batch interface.
            VPPROF_TIMED_SPAN("trace.regenerate");
            BlockAssembler assembler(&bank);
            runProgram(workload.program(), workload.input(input_idx),
                       &assembler, workload.maxInstructions());
            assembler.flush();
            counters_.regenerations.add();
        } else if (entry.onDisk) {
            // Route through the record-level disk path so the full
            // retry -> regenerate recovery ladder (and its resume-
            // exactly-past-the-prefix guarantee) applies unchanged.
            BlockAssembler assembler(&bank);
            replayFromDisk(entry, workload, input_idx, &assembler);
            assembler.flush();
        } else {
            // Hot path: decode each resident block once; the bank
            // fans it to every registered evaluator.
            TraceBlockScratch scratch;
            replayColumnarTrace(entry.columnar, scratch, &bank);
            counters_.v3BlocksDecoded.add(entry.columnar.blocks);
        }
    }

    counters_.replays.add();
    return entry.result;
}

RunResult
TraceRepository::replayInto(const Workload &workload, size_t input_idx,
                            const std::vector<TraceSink *> &sinks)
{
    MultiTraceSink fan;
    for (TraceSink *sink : sinks)
        fan.addSink(sink);
    return replay(workload, input_idx, &fan);
}

TraceRepoStats
TraceRepository::stats() const
{
    // Typed snapshot over the per-instance counters. Each field is an
    // independent relaxed load: monotone counters make the view at
    // worst one event stale per field, never torn — same guarantee the
    // registry snapshot gives (and no mutex on the readers' side).
    TraceRepoStats s;
    s.vmRuns = counters_.vmRuns.value();
    s.diskLoads = counters_.diskLoads.value();
    s.replays = counters_.replays.value();
    s.uniqueTraces = counters_.uniqueTraces.value();
    s.residentRecords =
        static_cast<uint64_t>(counters_.residentRecords.value());
    s.spilledTraces = counters_.spilledTraces.value();
    s.corruptQuarantined = counters_.corruptQuarantined.value();
    s.regenerations = counters_.regenerations.value();
    s.spillFailures = counters_.spillFailures.value();
    s.readRetries = counters_.readRetries.value();
    s.v3BlocksDecoded = counters_.v3BlocksDecoded.value();
    s.v3BytesMapped = counters_.v3BytesMapped.value();
    return s;
}

uint64_t
TraceRepository::vmRuns() const
{
    return counters_.vmRuns.value();
}

void
TraceRepoStats::writeJsonFields(std::ostream &os) const
{
    os << "\"vm_runs\": " << vmRuns
       << ", \"disk_loads\": " << diskLoads
       << ", \"replays\": " << replays
       << ", \"unique_traces\": " << uniqueTraces
       << ", \"spilled_traces\": " << spilledTraces
       << ", \"corrupt_quarantined\": " << corruptQuarantined
       << ", \"regenerations\": " << regenerations
       << ", \"spill_failures\": " << spillFailures
       << ", \"read_retries\": " << readRetries
       << ", \"v3_blocks_decoded\": " << v3BlocksDecoded
       << ", \"v3_bytes_mapped\": " << v3BytesMapped;
}

std::string
repoStatsJson(const TraceRepoStats &stats)
{
    std::ostringstream os;
    os << "{";
    stats.writeJsonFields(os);
    os << "}";
    return os.str();
}

Session::Session(SessionConfig config)
    : config_(config),
      traces_(config),
      runner_(config.jobs)
{
}

Session::~Session() = default;

RunResult
Session::runTrace(const Workload &workload, size_t input_idx,
                  TraceSink *sink)
{
    return traces_.replay(workload, input_idx, sink);
}

RunResult
Session::replayInto(const Workload &workload, size_t input_idx,
                    const std::vector<TraceSink *> &sinks)
{
    return traces_.replayInto(workload, input_idx, sinks);
}

RunResult
Session::replayInto(const Workload &workload, size_t input_idx,
                    EvaluatorBank &bank)
{
    return traces_.replayBatch(workload, input_idx, bank);
}

const ProfileImage &
Session::collectProfile(const Workload &workload, size_t input_idx)
{
    auto key = std::make_pair(std::string(workload.name()), input_idx);
    {
        std::lock_guard<std::mutex> lock(profileMutex_);
        auto it = profiles_.find(key);
        if (it != profiles_.end())
            return it->second;
    }

    VPPROF_TIMED_SPAN("profile.collect");
    ProfileCollector collector(std::string(workload.name()));
    traces_.replay(workload, input_idx, &collector);
    ProfileImage image = collector.takeImage();

    std::lock_guard<std::mutex> lock(profileMutex_);
    // try_emplace: under a race the first insertion wins; both
    // computed images are identical (replay is deterministic).
    auto [it, inserted] = profiles_.try_emplace(key, std::move(image));
    (void)inserted;
    return it->second;
}

const ProfileImage &
Session::collectSampledProfile(const Workload &workload,
                               size_t input_idx,
                               const SamplingConfig &sampling)
{
    if (auto complaint = sampling.validate())
        vpprof_fatal("invalid sampling config: ", *complaint);
    if (sampling.isExact())
        return collectProfile(workload, input_idx);

    auto key = std::make_tuple(std::string(workload.name()), input_idx,
                               sampling.cacheKey());
    {
        std::lock_guard<std::mutex> lock(profileMutex_);
        auto it = sampledProfiles_.find(key);
        if (it != sampledProfiles_.end())
            return it->second;
    }

    VPPROF_TIMED_SPAN("profile.collect_sampled");
    ProfileImage image;
    if (sampling.sketchCapacity > 0) {
        SketchConfig sketch_cfg;
        sketch_cfg.capacity = sampling.sketchCapacity;
        SketchProfileCollector collector(std::string(workload.name()),
                                         sketch_cfg);
        SamplingTraceSink sampler(sampling, &collector);
        traces_.replay(workload, input_idx, &sampler);
        image = collector.takeImage();
    } else {
        ProfileCollector collector(std::string(workload.name()));
        SamplingTraceSink sampler(sampling, &collector);
        traces_.replay(workload, input_idx, &sampler);
        image = collector.takeImage();
    }

    std::lock_guard<std::mutex> lock(profileMutex_);
    // First insertion wins under a race; the kept-record set is a
    // pure function of (config, trace), so both images are identical.
    auto [it, inserted] =
        sampledProfiles_.try_emplace(key, std::move(image));
    (void)inserted;
    return it->second;
}

PhasedProfiles
Session::collectPhasedProfile(const Workload &workload,
                              size_t input_idx)
{
    auto split = workload.phaseSplitPc();
    if (!split)
        vpprof_fatal("workload '", workload.name(),
                     "' has no phase split pc");

    ProfileCollector init_collector(std::string(workload.name()) +
                                    ".init");
    ProfileCollector comp_collector(std::string(workload.name()) +
                                    ".comp");
    bool in_compute = false;
    CallbackTraceSink sink([&](const TraceRecord &rec) {
        if (!in_compute && rec.pc == *split)
            in_compute = true;
        if (in_compute)
            comp_collector.record(rec);
        else
            init_collector.record(rec);
    });
    traces_.replay(workload, input_idx, &sink);

    PhasedProfiles phases;
    phases.init = init_collector.takeImage();
    phases.compute = comp_collector.takeImage();
    return phases;
}

ProfileImage
Session::collectMergedProfile(const Workload &workload,
                              const std::vector<size_t> &inputs)
{
    if (inputs.empty())
        vpprof_fatal("collectMergedProfile: no training inputs");

    // Warm the per-input caches in parallel, then merge in index
    // order so the result is bit-identical for every jobs count.
    runner_.forEach(inputs.size(), [&](size_t i) {
        collectProfile(workload, inputs[i]);
    });
    ProfileImage merged(std::string(workload.name()));
    for (size_t idx : inputs)
        merged.merge(collectProfile(workload, idx));
    return merged;
}

Program
Session::annotatedProgram(const Workload &workload,
                          const std::vector<size_t> &train_inputs,
                          const InserterConfig &config)
{
    std::ostringstream key;
    key << workload.name();
    for (size_t idx : train_inputs)
        key << '|' << idx;

    const ProfileImage *image = nullptr;
    {
        std::lock_guard<std::mutex> lock(profileMutex_);
        auto it = mergedProfiles_.find(key.str());
        if (it != mergedProfiles_.end())
            image = &it->second;
    }
    if (!image) {
        ProfileImage merged = collectMergedProfile(workload,
                                                   train_inputs);
        std::lock_guard<std::mutex> lock(profileMutex_);
        auto [it, inserted] =
            mergedProfiles_.try_emplace(key.str(), std::move(merged));
        (void)inserted;
        image = &it->second;
    }

    Program program = workload.program();  // copy
    insertDirectives(program, *image, config);
    return program;
}

ClassificationAccuracy
Session::evaluateClassification(const Workload &workload,
                                size_t input_idx,
                                const Program &program,
                                Classifier &classifier)
{
    VPPROF_TIMED_SPAN("eval.classification");
    ClassificationEvaluator evaluator(classifier);
    EvaluatorBank bank;
    bank.addBlockSink(&evaluator, &program);
    traces_.replayBatch(workload, input_idx, bank);
    return evaluator.result();
}

FiniteTableStats
Session::evaluateFiniteTable(const Workload &workload, size_t input_idx,
                             const Program &program, VpPolicy policy,
                             const PredictorConfig &config)
{
    VPPROF_TIMED_SPAN("eval.finite_table");
    FiniteTableEvaluator evaluator(policy, config);
    EvaluatorBank bank;
    bank.addBlockSink(&evaluator, &program);
    traces_.replayBatch(workload, input_idx, bank);
    return evaluator.result();
}

IlpResult
Session::evaluateIlp(const Workload &workload, size_t input_idx,
                     const Program &program, const IlpConfig &ilp_config,
                     VpPolicy policy,
                     const PredictorConfig &predictor_config)
{
    VPPROF_TIMED_SPAN("eval.ilp");
    StridePredictor predictor(predictor_config);
    DataflowEngine engine(ilp_config, policy,
                          policy == VpPolicy::None ? nullptr
                                                   : &predictor);
    EvaluatorBank bank;
    bank.addRecordSink(&engine, &program);
    traces_.replayBatch(workload, input_idx, bank);
    return engine.result();
}

FiniteTableStats
Session::evaluateHybridTable(const Workload &workload, size_t input_idx,
                             const Program &program,
                             const HybridConfig &config)
{
    VPPROF_TIMED_SPAN("eval.hybrid_table");
    HybridTableEvaluator evaluator(config);
    EvaluatorBank bank;
    bank.addBlockSink(&evaluator, &program);
    traces_.replayBatch(workload, input_idx, bank);
    return evaluator.result();
}

Session &
defaultSession()
{
    static Session session{SessionConfig{}};
    return session;
}

} // namespace vpprof
