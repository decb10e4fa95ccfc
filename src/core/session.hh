/**
 * @file
 * The trace-once, evaluate-many Session (the SHADE workflow, in
 * process form): a TraceRepository runs the VM exactly once per
 * (workload, input), streaming the dynamic trace into a cached buffer
 * — spilling to binary trace_io files above a resident-size cap — and
 * then replays the cached trace into any number of consumers: profile
 * collectors, classifiers, finite/hybrid table evaluations and the ILP
 * engine.
 *
 * Directives are pure metadata (they never change control flow or
 * values), so ONE raw trace serves every annotation threshold: replays
 * rewrite the per-record directive from the consumer's annotated
 * program via DirectiveOverrideSink. A threshold sweep that used to
 * re-interpret the workload dozens of times now interprets it once.
 *
 * All Session entry points are thread-safe; sweep cells running under
 * the ExperimentRunner share one Session freely.
 */

#ifndef VPPROF_CORE_SESSION_HH
#define VPPROF_CORE_SESSION_HH

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "common/telemetry/metrics.hh"
#include "core/batch_replay.hh"
#include "core/experiment.hh"
#include "core/parallel.hh"
#include "profile/sampling/sampling_policy.hh"
#include "vm/trace_io.hh"

namespace vpprof
{

/** Tunables for a Session. */
struct SessionConfig
{
    /** Sweep-cell parallelism (ExperimentRunner width); 0 = #cores. */
    unsigned jobs = 1;

    /**
     * Directory holding persistent trace files for cross-process
     * reuse (the CLI's --trace-cache). Empty: traces live only for
     * this process, spilling to a private temp directory when the
     * resident budget overflows.
     */
    std::string traceCacheDir;

    /**
     * Aggregate in-memory trace budget, in records. Traces that would
     * push the total past the budget are kept on disk and replayed
     * through trace_io instead. 0 forces every trace to disk
     * (exercises the spill path). Resident traces are held in the
     * columnar encoded form (~8-12 bytes per record instead of the
     * 56-byte AoS record), which is why the default is 4x the old
     * AoS-era budget for the same memory ceiling.
     */
    uint64_t residentRecordBudget = 96'000'000;
};

/**
 * Counters describing how a repository served its consumers, and how
 * it recovered when the filesystem misbehaved. The recovery counters
 * account for every fault the repository absorbed: crash-consistency
 * tests assert them, the CLI prints them under --stats, and the
 * benches record them next to wall times.
 *
 * This struct is a typed snapshot VIEW: the live values are
 * telemetry-backed counters (registry names `trace.*`, see
 * DESIGN.md §10), so --stats, tests, bench JSON and --metrics-out all
 * read one source of truth. stats() reads each counter individually
 * (lock-free); a snapshot taken while another thread is mid-update
 * may be one event stale per counter, but at any quiescent point it
 * is exact.
 */
struct TraceRepoStats
{
    uint64_t vmRuns = 0;        ///< trace-producing VM interpretations
    uint64_t diskLoads = 0;     ///< traces adopted from the cache dir
    uint64_t replays = 0;       ///< replays served to consumers
    uint64_t uniqueTraces = 0;  ///< distinct (workload, input) keys
    uint64_t residentRecords = 0;  ///< records currently held in memory
    uint64_t spilledTraces = 0;    ///< traces living on disk

    /** Unusable cache files renamed aside to `<file>.bad`. */
    uint64_t corruptQuarantined = 0;
    /**
     * Times a trace was re-produced by the VM because a persisted
     * copy was unusable: re-captures after a quarantine, mid-replay
     * fallbacks, and every degraded re-interpretation replay. These
     * deliberately do NOT count into vmRuns, so the trace-once
     * invariant (vmRuns <= uniqueTraces) keeps holding under faults.
     */
    uint64_t regenerations = 0;
    /** Failed attempts to persist a trace (cache write or spill). */
    uint64_t spillFailures = 0;
    /** Mid-replay read errors retried once from disk. */
    uint64_t readRetries = 0;

    /** Columnar (v3) blocks decoded: resident batch fans + v3 file
     *  reads. The decode-amplification observable — one batched pass
     *  decodes each block once however many evaluators listen. */
    uint64_t v3BlocksDecoded = 0;
    /** Bytes of v3 trace files mapped (or buffered) by readers. */
    uint64_t v3BytesMapped = 0;

    /**
     * The counters as JSON object members (no surrounding braces):
     * `"vm_runs": N, "disk_loads": N, ...`. The one definition of the
     * snake_case names BENCH_session.json entries and the perf-gate
     * baselines use.
     */
    void writeJsonFields(std::ostream &os) const;
};

/**
 * The stats as one complete JSON object (writeJsonFields wrapped in
 * braces): the single serializer behind `vpprof_cli --stats-json`,
 * the daemon protocol's `stats` response and vpprofd's --stats dump,
 * so the three surfaces can never drift apart.
 */
std::string repoStatsJson(const TraceRepoStats &stats);

/**
 * Owns one cached dynamic trace per (workload, input): produced at
 * most once per process — by the VM, or adopted from a valid file in
 * the persistent cache directory — and replayed read-only thereafter.
 * Thread-safe; concurrent replays of one trace are lock-free.
 *
 * Failure model (see DESIGN.md §9): the repository never aborts on a
 * sick cache. An unusable cache file (truncated, corrupt, wrong
 * version) is quarantined — renamed to `<file>.bad` — and the trace
 * is regenerated by the VM; quarantined files are never re-probed
 * within a process (each key is produced at most once, and the probe
 * only ever looks at the exact `<workload>.in<N>.trace` name). A
 * mid-replay read error is retried once from disk, resuming past the
 * records the sink already consumed, then falls back to regenerating
 * the tail via the VM — replay is deterministic, so consumers see
 * bit-identical records either way. A spill that fails (e.g. ENOSPC)
 * degrades the trace to re-interpretation mode: replays re-run the VM
 * with a rate-limited warning instead of dying. Captures into a
 * shared cache directory serialize on an advisory `<file>.lock`
 * flock, so concurrent processes sharing one --trace-cache neither
 * duplicate VM work nor race the probe-then-commit sequence.
 */
class TraceRepository
{
  public:
    explicit TraceRepository(const SessionConfig &config);

    /** Removes private temp spill files (not the persistent cache). */
    ~TraceRepository();

    TraceRepository(const TraceRepository &) = delete;
    TraceRepository &operator=(const TraceRepository &) = delete;

    /**
     * Replay (workload, input)'s trace into `sink`, producing it first
     * if this is the key's first use. Returns the original run result.
     */
    RunResult replay(const Workload &workload, size_t input_idx,
                     TraceSink *sink);

    /** One shared pass fanned out to several consumers. */
    RunResult replayInto(const Workload &workload, size_t input_idx,
                         const std::vector<TraceSink *> &sinks);

    /**
     * Batched replay: decode each trace block once and fan the SoA
     * view to every evaluator in the bank (resident traces feed the
     * bank directly; disk/degraded traces stream through the existing
     * record-level recovery ladder re-blocked by a BlockAssembler, so
     * fault recovery and bit-identity carry over unchanged).
     */
    RunResult replayBatch(const Workload &workload, size_t input_idx,
                          EvaluatorBank &bank);

    TraceRepoStats stats() const;

    /** VM interpretations performed (the trace-once assertion hook). */
    uint64_t vmRuns() const;

  private:
    struct Entry;

    /** What probing the persistent cache for a key found. */
    enum class AdoptOutcome
    {
        Adopted,     ///< valid file adopted; entry is produced
        Missing,     ///< no usable file (absent/unreadable); capture
        Quarantined, ///< sick file renamed aside; capture (and count)
    };

    Entry &entryFor(const Workload &workload, size_t input_idx);
    void produce(Entry &entry, const Workload &workload,
                 size_t input_idx);
    AdoptOutcome adoptCacheFile(Entry &entry, const std::string &path,
                                uint64_t pcLimit);
    void quarantine(const std::string &path, TraceIoStatus status);
    bool writeTraceFile(const std::string &path,
                        const ColumnarTrace &trace);
    void replayFromDisk(Entry &entry, const Workload &workload,
                        size_t input_idx, TraceSink *sink);
    /** Temp-dir spill path for a key; empty when the dir can't exist. */
    std::string spillPathFor(const std::string &name, size_t input_idx);

    /**
     * The live counters behind TraceRepoStats: per-repository values
     * (value() feeds stats()) mirrored into the process-wide
     * telemetry registry under the same `trace.*` names, aggregated
     * across repositories for --metrics-out. Increments are relaxed
     * atomics — no lock on the serving path; only the
     * residentRecords budget reservation still runs under mutex_ so
     * the check-then-add stays atomic.
     */
    struct Counters
    {
        telemetry::ScopedCounter vmRuns{"trace.vm_runs"};
        telemetry::ScopedCounter diskLoads{"trace.disk_loads"};
        telemetry::ScopedCounter replays{"trace.replays"};
        telemetry::ScopedCounter uniqueTraces{"trace.unique_traces"};
        telemetry::ScopedGauge residentRecords{
            "trace.resident_records"};
        telemetry::ScopedCounter spilledTraces{"trace.spilled_traces"};
        telemetry::ScopedCounter corruptQuarantined{
            "trace.corrupt_quarantined"};
        telemetry::ScopedCounter regenerations{"trace.regenerations"};
        telemetry::ScopedCounter spillFailures{"trace.spill_failures"};
        telemetry::ScopedCounter readRetries{"trace.read_retries"};
        telemetry::ScopedCounter v3BlocksDecoded{
            "trace.v3.blocks_decoded"};
        telemetry::ScopedCounter v3BytesMapped{"trace.v3.bytes_mapped"};
    };

    SessionConfig config_;

    mutable std::mutex mutex_;  ///< guards entries_, tempDir_, budget
    std::map<std::pair<std::string, size_t>, std::unique_ptr<Entry>>
        entries_;
    Counters counters_;
    std::string tempDir_;  ///< created lazily on first spill
};

/**
 * One experiment session: a TraceRepository, an ExperimentRunner, and
 * memoized profile images / merged training profiles on top, exposing
 * replay-backed versions of the experiment pipelines. The free
 * functions in experiment.hh are thin wrappers over a process-wide
 * default Session.
 */
class Session
{
  public:
    explicit Session(SessionConfig config = {});
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    const SessionConfig &config() const { return config_; }
    TraceRepository &traces() { return traces_; }
    ExperimentRunner &runner() { return runner_; }

    /** Replay the (workload, input) trace into an arbitrary sink. */
    RunResult runTrace(const Workload &workload, size_t input_idx,
                       TraceSink *sink);

    /** One shared replay pass fanned out to several consumers. */
    RunResult replayInto(const Workload &workload, size_t input_idx,
                         const std::vector<TraceSink *> &sinks);

    /**
     * One batched replay pass: each trace block decodes once and fans
     * out to every evaluator in the bank, with per-slot directive
     * columns replacing the per-record DirectiveOverrideSink copies.
     * The pass delivers the identical record stream a serial replay
     * would — evaluators cannot tell the difference.
     */
    RunResult replayInto(const Workload &workload, size_t input_idx,
                         EvaluatorBank &bank);

    /** Phase-2 profile of one run; memoized per (workload, input). */
    const ProfileImage &collectProfile(const Workload &workload,
                                       size_t input_idx);

    /**
     * Sampled phase-2 profile of one run, collected through the
     * sampled-profiling subsystem: the cached trace is replayed
     * through a SamplingTraceSink decorator into an exact collector —
     * or a memory-bounded SketchProfileCollector when the config asks
     * for one. Memoized per (workload, input, config.cacheKey());
     * exact configs share collectProfile()'s cache. Deterministic for
     * every jobs count: the kept-record set is a pure function of the
     * config and the trace.
     */
    const ProfileImage &collectSampledProfile(
        const Workload &workload, size_t input_idx,
        const SamplingConfig &sampling);

    /** Phase-2 profile split at the workload's phaseSplitPc(). */
    PhasedProfiles collectPhasedProfile(const Workload &workload,
                                        size_t input_idx);

    /**
     * Merged profile over several inputs: one VM pass per input (each
     * memoized), merged in index order. Inputs are profiled in
     * parallel across the runner when jobs > 1; the merge order makes
     * the result independent of the jobs count.
     */
    ProfileImage collectMergedProfile(const Workload &workload,
                                      const std::vector<size_t> &inputs);

    /**
     * The full three-phase methodology against cached traces; the
     * merged training profile is memoized per (workload, inputs) so a
     * threshold sweep re-annotates without re-profiling.
     */
    Program annotatedProgram(const Workload &workload,
                             const std::vector<size_t> &train_inputs,
                             const InserterConfig &config);

    /**
     * Subsection 5.1 classification accuracy over the cached trace,
     * with directives taken from `program` (pass workload.program()
     * for the un-annotated FSM baseline).
     */
    ClassificationAccuracy evaluateClassification(
        const Workload &workload, size_t input_idx,
        const Program &program, Classifier &classifier);

    /** Subsection 5.2 finite-table evaluation over the cached trace. */
    FiniteTableStats evaluateFiniteTable(const Workload &workload,
                                         size_t input_idx,
                                         const Program &program,
                                         VpPolicy policy,
                                         const PredictorConfig &config);

    /** Subsection 5.3 abstract-machine ILP over the cached trace. */
    IlpResult evaluateIlp(const Workload &workload, size_t input_idx,
                          const Program &program,
                          const IlpConfig &ilp_config, VpPolicy policy,
                          const PredictorConfig &predictor_config);

    /** Section 3.2 hybrid two-table evaluation over the cached trace. */
    FiniteTableStats evaluateHybridTable(const Workload &workload,
                                         size_t input_idx,
                                         const Program &program,
                                         const HybridConfig &config);

  private:
    SessionConfig config_;
    TraceRepository traces_;
    ExperimentRunner runner_;

    std::mutex profileMutex_;
    std::map<std::pair<std::string, size_t>, ProfileImage> profiles_;
    std::map<std::string, ProfileImage> mergedProfiles_;
    /** Keyed by (workload, input, sampling cache key). */
    std::map<std::tuple<std::string, size_t, std::string>, ProfileImage>
        sampledProfiles_;
};

/**
 * The process-wide Session backing the experiment.hh free functions
 * (jobs=1: parallelism is opted into by constructing an explicit
 * Session). Repeated profile/annotation requests across a test or
 * bench process hit its caches instead of re-interpreting workloads.
 */
Session &defaultSession();

} // namespace vpprof

#endif // VPPROF_CORE_SESSION_HH
