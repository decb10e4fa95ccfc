#include "harness/layer_probes.hh"

#include <filesystem>
#include <fstream>

#include "common/logging.hh"
#include "core/batch_replay.hh"
#include "core/evaluators.hh"
#include "core/session.hh"
#include "daemon/dispatch.hh"
#include "harness/daemon_load.hh"
#include "harness/offline_sweep.hh"
#include "predictors/profile_classifier.hh"
#include "predictors/saturating_classifier.hh"
#include "profile/profile_collector.hh"
#include "vm/machine.hh"
#include "vm/trace_io.hh"

namespace perfbench
{

using namespace vpprof;
namespace fs = std::filesystem;

namespace
{

/** Passes per consumer probe; the fastest is reported (least disturbed). */
constexpr int kConsumerReps = 3;
/** Protocol calls are sub-microsecond: repeat the line set this often. */
constexpr int kProtocolReps = 20;
/** Length of the short daemon run behind the daemon figures of a
 *  workload that does not drive the daemon itself. */
constexpr double kProbeDaemonSeconds = 8.0;

double
msSince(uint64_t t0_ns)
{
    return static_cast<double>(nowNs() - t0_ns) / 1e6;
}

/** Block sink that drops everything: a file's pure decode cost. */
class NullBlockSink : public TraceBlockSink
{
  public:
    void consumeBlock(const TraceBlockView &) override {}
};

/**
 * Feeds each decoded block's records to a record sink, timing only the
 * sink calls: the writer's share of a replay into it.
 */
class TimedRecordFan : public TraceBlockSink
{
  public:
    explicit TimedRecordFan(TraceSink *sink) : sink_(sink) {}

    void
    consumeBlock(const TraceBlockView &block) override
    {
        std::vector<TraceRecord> records(block.count);
        for (uint32_t i = 0; i < block.count; ++i)
            records[i] = block.record(i);
        uint64_t t0 = nowNs();
        for (const TraceRecord &rec : records)
            sink_->record(rec);
        busyNs += nowNs() - t0;
    }

    uint64_t busyNs = 0;

  private:
    TraceSink *sink_;
};

/** Accumulates records per second over several timed calls. */
struct Rate
{
    double records = 0;
    double seconds = 0;

    void
    add(double n, double s)
    {
        records += n;
        seconds += s;
    }

    double
    mrecPerS() const
    {
        return seconds <= 0 ? 0 : records / seconds / 1e6;
    }
};

/** The probe's keys: every workload of the suite at one seeded input. */
std::vector<Cell>
probeCells(const WorkloadSuite &suite, uint64_t seed)
{
    std::vector<Cell> cells;
    for (const auto &w : suite.all())
        cells.push_back({w.get(), static_cast<size_t>(
                                      seed % w->numInputSets())});
    return cells;
}

/**
 * Feeds `consumer` from Session::replayInto of `cell`, timing only its
 * consumeBlock calls, so the replay's decode is left out. Adds the
 * fastest of kConsumerReps passes (the least disturbed) to `rate`.
 */
void
timeConsumer(Session &session, const Cell &cell, TraceBlockSink *consumer,
             Tracer &tracer, const char *name, Rate &rate)
{
    uint64_t records = 0, bestNs = ~0ull;
    for (int rep = 0; rep < kConsumerReps; ++rep) {
        ScopedSpan span(tracer, name, cell.input);
        TimedBlockSink timed(consumer, tracer, "consume", cell.input);
        EvaluatorBank outer;
        outer.addBlockSink(&timed);
        RunResult run = session.replayInto(*cell.workload, cell.input,
                                           outer);
        records = run.instructionsExecuted;
        bestNs = std::min(bestNs, timed.busyNs());
    }
    rate.add(static_cast<double>(records),
             static_cast<double>(bestNs) / 1e9);
}

struct ProbeResults
{
    double interpretMips = 0;
    double captureMrec = 0;
    double writeMbPerS = 0;
    double bytesPerRec = 0;
    double decodeMrec = 0;
    double collectMrec = 0;
    double mergeMs = 0;
    double annotateMs = 0;
    double clsMrec = 0;
    double tableMrec = 0;
    double hybridMrec = 0;
    double bankMrec = 0;
    double ilpMrec = 0;
    double parseUs = 0;
    double serializeUs = 0;
    double verifyMs = 0;
    double evaluateMs = 0;
    double profileMs = 0;
};

/** vm layer: interpret, capture, trace file write and decode. */
void
probeVm(const std::vector<Cell> &cells, const std::string &dir,
        Tracer &tracer, ProbeResults &out, Tally &tally)
{
    Rate interpret, capture, decode;
    double written = 0, writeSeconds = 0, writtenRecords = 0;
    for (const Cell &cell : cells) {
        const Workload &w = *cell.workload;
        {
            ScopedSpan span(tracer, "vm.interpret", cell.input);
            Machine machine(w.program(), w.input(cell.input));
            uint64_t t0 = nowNs();
            RunResult run = machine.run(nullptr, w.maxInstructions());
            interpret.add(static_cast<double>(run.instructionsExecuted),
                          msSince(t0) / 1e3);
        }
        ColumnarTrace trace;
        {
            ScopedSpan span(tracer, "vm.capture", cell.input);
            Machine machine(w.program(), w.input(cell.input));
            ColumnarTraceBuilder builder;
            uint64_t t0 = nowNs();
            machine.run(&builder, w.maxInstructions());
            trace = builder.take();
            capture.add(static_cast<double>(trace.records),
                        msSince(t0) / 1e3);
        }

        std::string path =
            dir + "/probe-" + std::string(w.name()) + ".trace";
        {
            ScopedSpan span(tracer, "vm.trace_io.write", cell.input);
            TraceFileWriter writer(path, TraceFormat::V3);
            TimedRecordFan fan(&writer);
            TraceBlockScratch scratch;
            replayColumnarTrace(trace, scratch, &fan);
            uint64_t t0 = nowNs();
            TraceIoStatus status = writer.close();
            uint64_t busy = fan.busyNs + (nowNs() - t0);
            if (status != TraceIoStatus::Ok)
                tally.fail("probe trace write failed: " +
                           std::string(traceIoStatusName(status)));
            written += static_cast<double>(fs::file_size(path));
            writtenRecords += static_cast<double>(trace.records);
            writeSeconds += static_cast<double>(busy) / 1e9;
        }
        {
            ScopedSpan span(tracer, "vm.trace_io.decode", cell.input);
            TraceFileReader reader(path);
            NullBlockSink sink;
            uint64_t t0 = nowNs();
            uint64_t n = reader.replayBlocks(&sink);
            decode.add(static_cast<double>(n), msSince(t0) / 1e3);
        }
        fs::remove(path);
    }
    out.interpretMips = interpret.mrecPerS();
    out.captureMrec = capture.mrecPerS();
    out.decodeMrec = decode.mrecPerS();
    out.writeMbPerS = writeSeconds <= 0 ? 0 : written / writeSeconds / 1e6;
    out.bytesPerRec = writtenRecords <= 0 ? 0 : written / writtenRecords;
}

/** profile collect and merge, compiler annotate, the evaluators alone
 *  and as the sweep's bank, ILP. */
void
probeOffline(Session &session, const std::vector<Cell> &cells,
             Tracer &tracer, ProbeResults &out)
{
    std::vector<double> mergeMs, annotateMs;
    Rate collect, cls, table, hybrid, bank, ilp;
    for (const Cell &cell : cells) {
        const Workload &w = *cell.workload;
        {
            ProfileCollector collector(std::string(w.name()));
            EvaluatorBank one;
            one.addRecordSink(&collector);
            timeConsumer(session, cell, &one, tracer, "profile.collect",
                         collect);
        }

        std::vector<size_t> train = trainingInputsFor(w, cell.input);
        for (size_t idx : train)
            session.collectProfile(w, idx);  // warm: merge alone below
        ProfileImage merged;
        {
            ScopedSpan span(tracer, "profile.merge", cell.input);
            uint64_t t0 = nowNs();
            merged = session.collectMergedProfile(w, train);
            mergeMs.push_back(msSince(t0));
        }
        std::vector<Program> annotated;
        for (double threshold : kThresholds) {
            ScopedSpan span(tracer, "compiler.annotate", cell.input);
            InserterConfig cfg;
            cfg.accuracyThresholdPercent = threshold;
            uint64_t t0 = nowNs();
            Program program = w.program();
            insertDirectives(program, merged, cfg);
            annotateMs.push_back(msSince(t0));
            annotated.push_back(std::move(program));
        }
        const Program &at70 = annotated[kIlpThresholdIndex];

        {
            ProfileClassifier classifier;
            ClassificationEvaluator eval(classifier);
            EvaluatorBank one;
            one.addBlockSink(&eval, &at70);
            timeConsumer(session, cell, &one, tracer,
                         "core.eval.classification", cls);
        }
        {
            FiniteTableEvaluator eval(VpPolicy::Profile,
                                      paperFiniteConfig(false));
            EvaluatorBank one;
            one.addBlockSink(&eval, &at70);
            timeConsumer(session, cell, &one, tracer,
                         "core.eval.finite_table", table);
        }
        {
            HybridTableEvaluator eval(HybridConfig{});
            EvaluatorBank one;
            one.addBlockSink(&eval, &at70);
            timeConsumer(session, cell, &one, tracer,
                         "core.eval.hybrid_table", hybrid);
        }
        {
            SweepBank sweep(w.program(), annotated);
            timeConsumer(session, cell, &sweep.bank(), tracer, "core.bank",
                         bank);
        }
        {
            StridePredictor predictor(paperFiniteConfig(false));
            DataflowEngine engine(IlpConfig{}, VpPolicy::Profile,
                                  &predictor);
            EvaluatorBank one;
            one.addRecordSink(&engine, &at70);
            timeConsumer(session, cell, &one, tracer, "ilp.dataflow",
                         ilp);
        }
    }
    out.collectMrec = collect.mrecPerS();
    out.mergeMs = median(mergeMs);
    out.annotateMs = median(annotateMs);
    out.clsMrec = cls.mrecPerS();
    out.tableMrec = table.mrecPerS();
    out.hybridMrec = hybrid.mrecPerS();
    out.bankMrec = bank.mrecPerS();
    out.ilpMrec = ilp.mrecPerS();
}

/** daemon layer in process: protocol parse/serialize, dispatch. */
void
probeDaemon(Session &session, const WorkloadSuite &suite,
            const std::vector<Cell> &cells,
            const std::vector<daemon::Request> &requests, uint64_t seed,
            Tracer &tracer, ProbeResults &out, Tally &tally)
{
    daemon::Dispatcher dispatcher(session, suite);
    std::vector<double> verifyMs, evaluateMs, profileMs;
    std::vector<std::string> fields;
    for (size_t c = 0; c < cells.size(); ++c) {
        const Cell &cell = cells[c];
        daemon::Request req;
        req.workload = std::string(cell.workload->name());
        req.input = cell.input;
        req.threshold = kThresholds[(seed + c) % kThresholds.size()];
        struct Kind
        {
            daemon::Command cmd;
            const char *span;
            std::vector<double> *ms;
        };
        std::vector<Kind> kinds = {
            Kind{daemon::Command::Verify, "daemon.dispatch.verify",
                 &verifyMs},
            Kind{daemon::Command::Evaluate, "daemon.dispatch.evaluate",
                 &evaluateMs},
            Kind{daemon::Command::Profile, "daemon.dispatch.profile",
                 &profileMs}};
        // Warm the session the way the daemon's warm-up does (profile
        // and training profile memoized), then time each job once.
        for (const Kind &kind : kinds) {
            req.cmd = kind.cmd;
            dispatcher.execute(req);
        }
        for (const Kind &kind : kinds) {
            req.cmd = kind.cmd;
            ScopedSpan span(tracer, kind.span, c);
            uint64_t t0 = nowNs();
            daemon::JobOutcome outcome = dispatcher.execute(req);
            kind.ms->push_back(msSince(t0));
            if (!outcome.ok)
                tally.fail("in-process dispatch failed: " + outcome.error);
            fields.push_back(outcome.resultFields);
        }
    }
    out.verifyMs = median(verifyMs);
    out.evaluateMs = median(evaluateMs);
    out.profileMs = median(profileMs);

    std::vector<std::string> lines;
    for (const daemon::Request &req : requests)
        lines.push_back(daemon::requestLine(req));
    size_t sink = 0;
    {
        ScopedSpan span(tracer, "daemon.protocol.parse", 0);
        uint64_t t0 = nowNs();
        for (int rep = 0; rep < kProtocolReps; ++rep) {
            for (const std::string &line : lines) {
                std::string error;
                auto req = daemon::parseRequest(line, &error);
                sink += req ? req->id : 1;
            }
        }
        out.parseUs = static_cast<double>(nowNs() - t0) / 1e3 /
                      static_cast<double>(kProtocolReps * lines.size());
    }
    {
        ScopedSpan span(tracer, "daemon.protocol.serialize", 0);
        uint64_t t0 = nowNs();
        for (int rep = 0; rep < kProtocolReps; ++rep) {
            for (size_t i = 0; i < requests.size(); ++i) {
                std::string line = daemon::okResponseLine(
                    requests[i].id, requests[i].cmd,
                    fields[i % fields.size()], i + 1);
                sink += line.size();
            }
        }
        out.serializeUs =
            static_cast<double>(nowNs() - t0) / 1e3 /
            static_cast<double>(kProtocolReps * requests.size());
    }
    if (sink == 0)
        tally.fail("protocol probe produced nothing");
}

/**
 * The sweep's self shares from a short traced sweep over one seeded
 * workload's inputs, for workloads whose own phase runs no sweep.
 */
void
probeSweepShares(const RunOptions &opts, Tracer &tracer,
                 LayerFigures &figures)
{
    WorkloadSuite suite;
    const Workload &w = *suite.all()[(opts.seed + 1) % suite.all().size()];
    SessionConfig config;
    config.jobs = 1;
    config.traceCacheDir = figures.cacheDir;
    Session session(config);
    std::vector<Cell> cells;
    for (size_t i = 0; i < w.numInputSets(); ++i)
        cells.push_back({&w, i});
    size_t firstSpan = tracer.spans().size();
    uint64_t t0 = nowNs();
    runSweepPass(session, cells, seededOrder(cells.size(), opts.seed),
                 tracer);
    setSweepShares(tracer, firstSpan, msSince(t0) / 1e3, figures);
}

} // namespace

void
addLayerMetrics(const RunOptions &opts, LayerFigures figures,
                RunReport &report)
{
    WorkloadSuite suite;
    std::vector<Cell> cells = probeCells(suite, opts.seed);
    Tracer tracer(true);
    ProbeResults probe;

    if (!figures.sweepMeasured)
        probeSweepShares(opts, tracer, figures);
    if (!figures.daemonMeasured)
        probeDaemonServer(opts, kProbeDaemonSeconds, tracer, figures,
                          report.tally);

    std::string probeDir = opts.workDir + "/probe";
    fs::create_directories(probeDir);
    probeVm(cells, probeDir, tracer, probe, report.tally);
    {
        SessionConfig config;
        config.jobs = 1;
        config.traceCacheDir = figures.cacheDir;
        Session session(config);
        probeOffline(session, cells, tracer, probe);
        std::vector<daemon::Request> requests = figures.requests;
        if (requests.empty())
            requests = mixSequence(opts.seed, 0, 400, allKeys(suite));
        probeDaemon(session, suite, cells, requests, opts.seed, tracer,
                    probe, report.tally);
        if (session.traces().vmRuns() != 0)
            report.tally.fail("layer probes ran the VM on a warm cache");
    }
    fs::remove_all(probeDir);
    {
        RunOptions probeOpts = opts;
        probeOpts.workload = opts.workload + "-probes";
        writeSpans(tracer, probeOpts);
    }

    MetricSet &m = report.metrics;
    m.add("vm.interpret.mips", probe.interpretMips, "Minst/s");
    m.add("vm.capture.mrec_per_s", probe.captureMrec, "Mrec/s");
    m.add("vm.trace_io.write_mb_per_s", probe.writeMbPerS, "MB/s");
    m.add("vm.trace_io.bytes_per_rec", probe.bytesPerRec, "bytes");
    m.add("vm.trace_io.decode_mrec_per_s", probe.decodeMrec, "Mrec/s");
    m.add("profile.collect.mrec_per_s", probe.collectMrec, "Mrec/s");
    m.add("profile.merge_ms", probe.mergeMs, "ms");
    m.add("compiler.annotate_ms", probe.annotateMs, "ms");
    m.add("core.eval.classification.mrec_per_s", probe.clsMrec, "Mrec/s");
    m.add("core.eval.finite_table.mrec_per_s", probe.tableMrec, "Mrec/s");
    m.add("core.eval.hybrid_table.mrec_per_s", probe.hybridMrec,
          "Mrec/s");
    m.add("core.bank.mrec_per_s", probe.bankMrec, "Mrec/s");
    m.add("ilp.dataflow.mrec_per_s", probe.ilpMrec, "Mrec/s");
    m.add("core.repo.vm_runs", figures.repoVmRuns, "count");
    m.add("core.repo.disk_loads", figures.repoDiskLoads, "count");
    m.add("core.repo.blocks_decoded", figures.repoBlocksDecoded, "count");
    m.add("core.repo.decode_amplification", figures.decodeAmplification,
          "ratio");
    m.add("offline.self_share.decode", figures.shareDecode, "fraction");
    m.add("offline.self_share.profile", figures.shareProfile, "fraction");
    m.add("offline.self_share.compiler", figures.shareCompiler,
          "fraction");
    m.add("offline.self_share.eval", figures.shareEval, "fraction");
    m.add("offline.self_share.ilp", figures.shareIlp, "fraction");
    m.add("daemon.protocol.parse_us", probe.parseUs, "us");
    m.add("daemon.protocol.serialize_us", probe.serializeUs, "us");
    m.add("daemon.dispatch.verify_ms", probe.verifyMs, "ms");
    m.add("daemon.dispatch.evaluate_ms", probe.evaluateMs, "ms");
    m.add("daemon.dispatch.profile_ms", probe.profileMs, "ms");
    m.add("daemon.server.exec_ms", figures.serverExecMs, "ms");
    m.add("daemon.server.queue_wait_ms", figures.serverQueueWaitMs, "ms");
    m.add("daemon.executor.busy_frac", figures.executorBusyFrac,
          "fraction");
    m.add("daemon.server.ctl_p50_ms", figures.ctlP50Ms, "ms");
    m.add("daemon.client.overhead_ms", figures.clientOverheadMs, "ms");
    m.add("daemon.rejected", figures.rejected, "count");
    m.add("loadgen.late_p99_ms", figures.lateP99Ms, "ms");
    m.add("daemon.open.p50_ms", figures.openP50Ms, "ms");
    m.add("trace.overhead_pct", figures.traceOverheadPct, "%");
    m.add("wall.throughput_per_s", figures.wallThroughputPerS, "1/s");
    m.add("wall.p50_ms", figures.wallP50Ms, "ms");
    m.add("wall.tail_ms", figures.wallTailMs, "ms");
    m.add("wall.slo_met_frac", figures.wallSloMetFrac, "fraction");
}

void
printWallFigures(const LayerFigures &figures, std::ostream &os)
{
    os << "wall: throughput_per_s "
       << formatNumber(figures.wallThroughputPerS) << " 1/s\n"
       << "wall: p50_ms " << formatNumber(figures.wallP50Ms) << " ms\n"
       << "wall: tail_ms " << formatNumber(figures.wallTailMs) << " ms\n"
       << "wall: slo_met_frac " << formatNumber(figures.wallSloMetFrac)
       << " fraction\n";
}

void
writeSpans(const Tracer &tracer, const RunOptions &opts)
{
    std::string path = opts.workDir + "/spans-" + opts.workload + "-" +
                       std::to_string(opts.seed) + ".json";
    std::ofstream out(path);
    tracer.writeChromeJson(out);
}

} // namespace perfbench
