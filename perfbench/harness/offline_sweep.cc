#include "harness/offline_sweep.hh"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "daemon/dispatch.hh"
#include "harness/layer_probes.hh"

namespace perfbench
{

using namespace vpprof;
namespace fs = std::filesystem;

namespace
{

/** Sweep passes run at the ROADMAP's reference setting. */
constexpr unsigned kSweepJobs = 1;
/** Set-up captures and the reference run on every core. */
constexpr unsigned kSetupJobs = 4;
/** Sweeps timed side by side in an untraced run, one per core, with
 *  a core left for the system. */
constexpr unsigned kSweepers = 3;
/** The cell-latency percentile a pass of 45 cells can support (at
 *  least ten cells lie beyond it). */
constexpr double kCellTailQ = 0.75;
/** The latency limit behind wall.slo_met_frac for one cell. */
constexpr double kCellSloMs = 2000.0;

void
append(CellResult &out, const ClassificationAccuracy &acc)
{
    out.insert(out.end(), {acc.mispredictions, acc.mispredictionsCaught,
                           acc.corrects, acc.correctsAccepted});
}

void
append(CellResult &out, const FiniteTableStats &st)
{
    out.insert(out.end(), {st.producers, st.candidates, st.correctTaken,
                           st.incorrectTaken, st.evictions});
}

void
append(CellResult &out, const IlpResult &ilp)
{
    out.insert(out.end(), {ilp.instructions, ilp.cycles,
                           ilp.predictionsUsed, ilp.correctUsed,
                           ilp.incorrectUsed});
}

InserterConfig
inserterAt(double threshold)
{
    InserterConfig cfg;
    cfg.accuracyThresholdPercent = threshold;
    return cfg;
}

std::string
cellName(const Cell &cell)
{
    return std::string(cell.workload->name()) + ".in" +
           std::to_string(cell.input);
}

} // namespace

SweepBank::SweepBank(const Program &base,
                     const std::vector<Program> &annotated)
    : tableFsm_(VpPolicy::Fsm, paperFiniteConfig(true))
{
    clsProf_.reserve(kThresholds.size());
    tableProf_.reserve(kThresholds.size());
    hybrid_.reserve(kThresholds.size());
    bank_.addBlockSink(&clsFsm_, &base);
    for (size_t t = 0; t < kThresholds.size(); ++t) {
        clsProf_.emplace_back(profClassifiers_[t]);
        bank_.addBlockSink(&clsProf_.back(), &annotated[t]);
    }
    bank_.addBlockSink(&tableFsm_, &base);
    for (size_t t = 0; t < kThresholds.size(); ++t) {
        tableProf_.emplace_back(VpPolicy::Profile,
                                paperFiniteConfig(false));
        bank_.addBlockSink(&tableProf_.back(), &annotated[t]);
    }
    for (size_t t = 0; t < kThresholds.size(); ++t) {
        hybrid_.emplace_back(HybridConfig{});
        bank_.addBlockSink(&hybrid_.back(), &annotated[t]);
    }
}

void
SweepBank::appendResults(CellResult &out) const
{
    append(out, clsFsm_.result());
    for (const auto &e : clsProf_)
        append(out, e.result());
    append(out, tableFsm_.result());
    for (const auto &e : tableProf_)
        append(out, e.result());
    for (const auto &e : hybrid_)
        append(out, e.result());
}

void
TimedBlockSink::consumeBlock(const TraceBlockView &block)
{
    uint64_t t0 = nowNs();
    inner_->consumeBlock(block);
    uint64_t t1 = nowNs();
    busyNs_ += t1 - t0;
    tracer_.add(name_, t0, t1, group_);
}

std::vector<Cell>
allCells(const WorkloadSuite &suite)
{
    std::vector<Cell> cells;
    for (const auto &w : suite.all()) {
        for (size_t i = 0; i < w->numInputSets(); ++i)
            cells.push_back({w.get(), i});
    }
    return cells;
}

std::vector<size_t>
seededOrder(size_t n, uint64_t seed)
{
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    Rng rng(seed);
    for (size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.nextBelow(i)]);
    return order;
}

void
collectCellProfile(Session &session, const Cell &cell, Tracer &tracer,
                   uint64_t cell_id, CellResult &out)
{
    ScopedSpan cellSpan(tracer, "offline.cell", cell_id);
    ScopedSpan span(tracer, "profile.collect", cell_id);
    out.push_back(daemon::profileDigest(
        session.collectProfile(*cell.workload, cell.input)));
}

void
evaluateCell(Session &session, const Cell &cell, Tracer &tracer,
             uint64_t cell_id, CellResult &out)
{
    const Workload &w = *cell.workload;
    const size_t input = cell.input;
    ScopedSpan cellSpan(tracer, "offline.cell", cell_id);

    ProfileImage merged;
    {
        ScopedSpan span(tracer, "profile.merge", cell_id);
        merged = session.collectMergedProfile(
            w, trainingInputsFor(w, input));
    }
    out.push_back(daemon::profileDigest(merged));

    std::vector<Program> annotated;
    annotated.reserve(kThresholds.size());
    for (double threshold : kThresholds) {
        ScopedSpan span(tracer, "compiler.annotate", cell_id);
        Program program = w.program();
        insertDirectives(program, merged, inserterAt(threshold));
        annotated.push_back(std::move(program));
    }

    // One batched pass over the sweep's 17 evaluators.
    SweepBank sweep(w.program(), annotated);
    {
        ScopedSpan span(tracer, "core.replay", cell_id);
        if (tracer.enabled()) {
            TimedBlockSink timed(&sweep.bank(), tracer, "core.eval",
                                 cell_id);
            EvaluatorBank outer;
            outer.addBlockSink(&timed);
            session.replayInto(w, input, outer);
        } else {
            session.replayInto(w, input, sweep.bank());
        }
    }
    sweep.appendResults(out);

    const Program &ilpProgram = annotated[kIlpThresholdIndex];
    {
        ScopedSpan span(tracer, "ilp.replay", cell_id);
        if (tracer.enabled()) {
            StridePredictor predictor(paperFiniteConfig(false));
            DataflowEngine engine(IlpConfig{}, VpPolicy::Profile,
                                  &predictor);
            EvaluatorBank inner;
            inner.addRecordSink(&engine, &ilpProgram);
            TimedBlockSink timed(&inner, tracer, "ilp.dataflow",
                                 cell_id);
            EvaluatorBank outer;
            outer.addBlockSink(&timed);
            session.replayInto(w, input, outer);
            append(out, engine.result());
        } else {
            append(out, session.evaluateIlp(w, input, ilpProgram,
                                            IlpConfig{},
                                            VpPolicy::Profile,
                                            paperFiniteConfig(false)));
        }
    }
}

CellResult
referenceCell(Session &session, const Cell &cell)
{
    const Workload &w = *cell.workload;
    const size_t input = cell.input;
    const std::vector<size_t> train = trainingInputsFor(w, input);
    CellResult out;
    out.push_back(
        daemon::profileDigest(session.collectProfile(w, input)));
    out.push_back(
        daemon::profileDigest(session.collectMergedProfile(w, train)));

    std::vector<Program> annotated;
    for (double threshold : kThresholds)
        annotated.push_back(
            session.annotatedProgram(w, train, inserterAt(threshold)));

    SaturatingClassifier fsm;
    append(out, session.evaluateClassification(w, input, w.program(),
                                               fsm));
    for (const Program &program : annotated) {
        ProfileClassifier prof;
        append(out,
               session.evaluateClassification(w, input, program, prof));
    }
    append(out, session.evaluateFiniteTable(w, input, w.program(),
                                            VpPolicy::Fsm,
                                            paperFiniteConfig(true)));
    for (const Program &program : annotated)
        append(out, session.evaluateFiniteTable(
                        w, input, program, VpPolicy::Profile,
                        paperFiniteConfig(false)));
    for (const Program &program : annotated)
        append(out, session.evaluateHybridTable(w, input, program,
                                                HybridConfig{}));
    append(out, session.evaluateIlp(w, input,
                                    annotated[kIlpThresholdIndex],
                                    IlpConfig{}, VpPolicy::Profile,
                                    paperFiniteConfig(false)));
    return out;
}

void
checkCell(const CellResult &got, const CellResult &want,
          const Cell &cell, Tally &tally)
{
    if (got == want) {
        tally.pass();
        return;
    }
    size_t at = 0;
    while (at < got.size() && at < want.size() && got[at] == want[at])
        ++at;
    tally.fail("cell " + cellName(cell) + ": counter " +
               std::to_string(at) + " differs from the serial reference");
}

uint64_t
captureAll(const std::vector<Cell> &cells, const std::string &cache_dir,
           unsigned jobs)
{
    SessionConfig config;
    config.jobs = jobs;
    config.traceCacheDir = cache_dir;
    Session session(config);
    session.runner().forEach(cells.size(), [&](size_t i) {
        session.traces().replay(*cells[i].workload, cells[i].input,
                                nullptr);
    });
    return session.traces().vmRuns();
}

std::vector<CellResult>
referenceResults(const std::vector<Cell> &cells,
                 const std::string &cache_dir,
                 const std::string &ref_file)
{
    std::vector<CellResult> refs(cells.size());
    {
        std::ifstream in(ref_file);
        std::string line;
        size_t n = 0;
        while (n < cells.size() && std::getline(in, line)) {
            std::istringstream fields(line);
            std::string name;
            fields >> name;
            if (name != cellName(cells[n]))
                break;
            uint64_t v;
            while (fields >> v)
                refs[n].push_back(v);
            ++n;
        }
        if (n == cells.size())
            return refs;
    }

    SessionConfig config;
    config.jobs = kSetupJobs;
    config.traceCacheDir = cache_dir;
    Session session(config);
    session.runner().forEach(cells.size(), [&](size_t i) {
        refs[i] = referenceCell(session, cells[i]);
    });

    std::string tmp = ref_file + ".tmp";
    {
        std::ofstream out(tmp);
        for (size_t i = 0; i < cells.size(); ++i) {
            out << cellName(cells[i]);
            for (uint64_t v : refs[i])
                out << ' ' << v;
            out << '\n';
        }
    }
    fs::rename(tmp, ref_file);
    return refs;
}

SweepPass
runSweepPass(Session &session, const std::vector<Cell> &cells,
             const std::vector<size_t> &order, Tracer &tracer)
{
    SweepPass pass;
    pass.results.resize(cells.size());
    std::vector<uint64_t> cellNs(cells.size(), 0);
    for (size_t idx : order) {
        uint64_t t0 = nowNs();
        collectCellProfile(session, cells[idx], tracer, idx,
                           pass.results[idx]);
        cellNs[idx] += nowNs() - t0;
    }
    for (size_t idx : order) {
        uint64_t t0 = nowNs();
        evaluateCell(session, cells[idx], tracer, idx, pass.results[idx]);
        cellNs[idx] += nowNs() - t0;
    }
    for (size_t idx : order)
        pass.cellMs.push_back(static_cast<double>(cellNs[idx]) / 1e6);
    return pass;
}

void
setSweepShares(const Tracer &tracer, size_t first_span, double wall,
               LayerFigures &figures)
{
    auto share = [&](std::string_view name) {
        return tracer.selfSeconds(name, first_span) / wall;
    };
    figures.sweepMeasured = true;
    figures.shareDecode = share("core.replay") + share("ilp.replay");
    figures.shareProfile = share("profile.collect") + share("profile.merge");
    figures.shareCompiler = share("compiler.annotate");
    figures.shareEval = share("core.eval");
    figures.shareIlp = share("ilp.dataflow");
}

uint64_t
traceBlocks(const std::string &cache_dir, std::string_view workload,
            size_t input)
{
    TraceIoStatus status = TraceIoStatus::Ok;
    auto reader = TraceFileReader::tryOpen(
        cache_dir + "/" + std::string(workload) + ".in" +
            std::to_string(input) + ".trace",
        &status, TraceVerify::HeaderOnly);
    return reader ? reader->blockCount() : 0;
}

namespace
{

struct PassOutcome
{
    double seconds = 0;
    /** CPU time of the sweep thread over the pass (jobs=1: all of
     *  the pass's work). */
    double cpuSeconds = 0;
    std::vector<double> cellMs;
    TraceRepoStats stats;
};

PassOutcome
runPass(const std::vector<Cell> &cells,
        const std::vector<CellResult> &refs,
        const std::string &cache_dir, uint64_t order_seed,
        Tracer &tracer, Tally &tally)
{
    SessionConfig config;
    config.jobs = kSweepJobs;
    config.traceCacheDir = cache_dir;
    Session session(config);
    std::vector<size_t> order = seededOrder(cells.size(), order_seed);

    PassOutcome pass;
    auto t0 = Clock::now();
    double cpu0 = threadCpuSeconds();
    SweepPass sweep;
    {
        ScopedSpan passSpan(tracer, "offline.pass", order_seed);
        sweep = runSweepPass(session, cells, order, tracer);
    }
    pass.cpuSeconds = threadCpuSeconds() - cpu0;
    pass.seconds = secondsSince(t0);
    pass.cellMs = std::move(sweep.cellMs);
    std::vector<CellResult> &results = sweep.results;
    pass.stats = session.traces().stats();

    for (size_t i = 0; i < cells.size(); ++i)
        checkCell(results[i], refs[i], cells[i], tally);
    if (pass.stats.vmRuns != 0)
        tally.fail("measured pass ran the VM " +
                   std::to_string(pass.stats.vmRuns) + " times");
    return pass;
}

/**
 * A forked child process that runs `body` and hands back the text it
 * returns. The benchmark process has one thread whenever it forks, so
 * the child may take any lock; it dies with its parent.
 */
class Child
{
  public:
    explicit Child(const std::function<std::string()> &body)
    {
        int fds[2];
        if (::pipe2(fds, O_CLOEXEC) != 0)
            vpprof_panic("perfbench: pipe failed: ", std::strerror(errno));
        pid_ = ::fork();
        if (pid_ < 0)
            vpprof_panic("perfbench: fork failed: ", std::strerror(errno));
        if (pid_ == 0) {
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            ::close(fds[0]);
            std::string text = body();
            for (size_t off = 0; off < text.size();) {
                ssize_t n =
                    ::write(fds[1], text.data() + off, text.size() - off);
                if (n <= 0 && errno != EINTR)
                    ::_exit(1);
                off += n > 0 ? static_cast<size_t>(n) : 0;
            }
            ::_exit(0);
        }
        ::close(fds[1]);
        fd_ = fds[0];
    }
    ~Child() { wait(); }
    Child(const Child &) = delete;
    Child &operator=(const Child &) = delete;

    /** Waits for the child; its text, or nullopt when it failed. */
    std::optional<std::string>
    wait()
    {
        if (pid_ < 0)
            return std::nullopt;
        std::string out;
        char chunk[4096];
        ssize_t n;
        while ((n = ::read(fd_, chunk, sizeof(chunk))) > 0 ||
               (n < 0 && errno == EINTR))
            out.append(chunk, n > 0 ? static_cast<size_t>(n) : 0);
        ::close(fd_);
        int status = 0;
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            return std::nullopt;
        return out;
    }

  private:
    pid_t pid_ = -1;
    int fd_ = -1;
};

/** The set-up times, one per cold capture, into `tally`'s checks. */
std::vector<double>
parseSetup(const std::optional<std::string> &out, int reps, Tally &tally)
{
    std::vector<double> seconds;
    std::istringstream in(out.value_or(""));
    std::string kind, rest;
    while (in >> kind && std::getline(in, rest)) {
        if (kind == "time")
            seconds.push_back(std::stod(rest));
        else
            tally.fail(rest.substr(1));
    }
    if (seconds.size() != static_cast<size_t>(reps))
        tally.fail("set-up child did not finish");
    return seconds;
}

/** What the untraced passes of every sweeper measured. */
struct SweepFigures
{
    std::vector<double> passRates;  ///< cells per wall second, per pass
    std::vector<double> cellMs;     ///< wall latency of every cell
    double cpuSeconds = 0;          ///< summed over passes and sweepers
    size_t cells = 0;               ///< cells done in those passes
    double peakRssMb = 0;           ///< largest sweeper VmHWM
};

/**
 * One sweeper: whole passes, each a fresh jobs=1 Session over every
 * cell in its own seeded order, until `seconds` have passed. Returns
 * "pass WALL CPU", "cell MS" and "fail WHY" lines and a last line
 * "end PEAK_MB ATTEMPTED FAILED".
 */
std::string
sweeper(const std::vector<Cell> &cells, const std::vector<CellResult> &refs,
        const std::string &cache_dir, uint64_t seed, double seconds)
{
    resetPeakRss();
    Tally tally;
    Tracer untraced(false);
    std::ostringstream os;
    auto t0 = Clock::now();
    for (uint64_t pass = 0; pass == 0 || secondsSince(t0) < seconds;
         ++pass) {
        PassOutcome outcome =
            runPass(cells, refs, cache_dir, seed + pass, untraced, tally);
        os << "pass " << formatNumber(outcome.seconds) << ' '
           << formatNumber(outcome.cpuSeconds) << '\n';
        for (double ms : outcome.cellMs)
            os << "cell " << formatNumber(ms) << '\n';
    }
    for (const std::string &why : tally.reasons())
        os << "fail " << why << '\n';
    os << "end " << formatNumber(peakRssMb()) << ' ' << tally.attempted()
       << ' ' << tally.failed() << '\n';
    return os.str();
}

/** Adds one sweeper's report to `figures` and its checks to `tally`. */
void
addSweeper(const std::optional<std::string> &out, size_t cells_per_pass,
           SweepFigures &figures, Tally &tally)
{
    std::istringstream in(out.value_or(""));
    std::vector<std::string> reasons;
    std::string kind;
    bool ended = false;
    while (in >> kind) {
        if (kind == "pass") {
            double wall = 0, cpu = 0;
            in >> wall >> cpu;
            figures.passRates.push_back(
                static_cast<double>(cells_per_pass) / wall);
            figures.cpuSeconds += cpu;
            figures.cells += cells_per_pass;
        } else if (kind == "cell") {
            double ms = 0;
            in >> ms;
            figures.cellMs.push_back(ms);
        } else if (kind == "fail") {
            std::string why;
            std::getline(in, why);
            reasons.push_back(why.substr(1));
        } else if (kind == "end") {
            double peak = 0;
            uint64_t attempted = 0, failed = 0;
            in >> peak >> attempted >> failed;
            figures.peakRssMb = std::max(figures.peakRssMb, peak);
            for (uint64_t i = failed; i < attempted; ++i)
                tally.pass();
            for (uint64_t i = 0; i < failed; ++i)
                tally.fail(i < reasons.size() ? reasons[i]
                                              : "sweeper check failed");
            ended = true;
        }
    }
    if (!ended)
        tally.fail("sweeper did not finish");
}

/** Wall-clock figures from pass rates and cell latencies. */
LayerFigures
wallFigures(const std::vector<double> &pass_rates,
            const std::vector<double> &cell_ms, Tally &tally)
{
    std::optional<double> tail = tailPercentile(cell_ms, kCellTailQ);
    if (!tail)
        tally.fail("too few cells for the tail percentile");
    LayerFigures figures;
    figures.wallThroughputPerS = median(pass_rates);
    figures.wallP50Ms = median(cell_ms);
    figures.wallTailMs = tail.value_or(0);
    size_t withinSlo = 0;
    for (double ms : cell_ms)
        withinSlo += ms <= kCellSloMs ? 1 : 0;
    figures.wallSloMetFrac =
        cell_ms.empty() ? 0
                        : static_cast<double>(withinSlo) /
                              static_cast<double>(cell_ms.size());
    return figures;
}

} // namespace

RunReport
runOfflineSweep(const RunOptions &opts)
{
    RunReport report;
    WorkloadSuite suite;
    const std::vector<Cell> cells = allCells(suite);
    const std::string cacheDir = opts.workDir + "/offline-cache";
    const std::string refFile =
        opts.workDir + "/reference-offline-" + opts.binaryDigest + ".txt";

    // Set-up: a cold capture of every trace into a fresh cache,
    // repeated so the reported figure is a median. It and the
    // reference computation run on kSetupJobs threads and leave freed
    // trace buffers in their heap arenas (glibc raises its mmap and
    // trim thresholds each time a large block is freed), so they run
    // in a child: the passes then start from a process with one thread
    // and a small heap, and their VmHWM counts what a sweep keeps live.
    const int setupReps = opts.trace ? 1 : 3;
    Child setupChild([&] {
        std::ostringstream os;
        for (int rep = 0; rep < setupReps; ++rep) {
            fs::remove_all(cacheDir);
            fs::create_directories(cacheDir);
            auto t0 = Clock::now();
            uint64_t vmRuns = captureAll(cells, cacheDir, kSetupJobs);
            os << "time " << formatNumber(secondsSince(t0)) << '\n';
            if (vmRuns != cells.size())
                os << "fail cold capture ran the VM " << vmRuns
                   << " times for " << cells.size() << " traces\n";
        }
        referenceResults(cells, cacheDir, refFile);
        return os.str();
    });
    std::vector<double> setupTimes =
        parseSetup(setupChild.wait(), setupReps, report.tally);
    if (report.tally.failed() != 0)
        return report;
    // The child stored the references; this only reads them.
    const std::vector<CellResult> refs =
        referenceResults(cells, cacheDir, refFile);

    MetricSet &m = report.metrics;
    if (!opts.trace) {
        // kSweepers jobs=1 sweeps side by side, one per core: each
        // core's speed drifts on its own with the host's load, and
        // their sum drifts less than any one of them.
        std::vector<std::unique_ptr<Child>> sweepers;
        for (unsigned k = 0; k < kSweepers; ++k)
            sweepers.push_back(std::make_unique<Child>([&, k] {
                return sweeper(cells, refs, cacheDir,
                               opts.seed * 1000 + k * 100, opts.seconds);
            }));
        SweepFigures sweep;
        for (auto &child : sweepers)
            addSweeper(child->wait(), cells.size(), sweep, report.tally);
        printWallFigures(
            wallFigures(sweep.passRates, sweep.cellMs, report.tally),
            std::cerr);
        m.add("setup_s", median(setupTimes), "s");
        m.add("cpu_ms_per_op",
              sweep.cells == 0 ? 0
                               : 1e3 * sweep.cpuSeconds /
                                     static_cast<double>(sweep.cells),
              "ms");
        m.add("peak_rss_mb", sweep.peakRssMb, "MiB");
        return report;
    }

    // A traced run alternates untraced and traced passes in process, so
    // the difference between them is the tracing overhead.
    Tracer untraced(false);
    Tracer traced(true);
    std::vector<double> untracedRates, tracedRates, cellMs;
    std::vector<PassOutcome> tracedPasses;
    auto t0 = Clock::now();
    for (uint64_t pass = 0;; ++pass) {
        bool tracePass = pass % 2 == 1;
        size_t spansBefore = traced.spans().size();
        PassOutcome outcome =
            runPass(cells, refs, cacheDir, opts.seed * 1000 + pass,
                    tracePass ? traced : untraced, report.tally);
        double rate = static_cast<double>(cells.size()) / outcome.seconds;
        if (tracePass) {
            tracedRates.push_back(rate);
            tracedPasses.push_back(outcome);
            // Cross-check the spans against the repository's own
            // counter: every key's profile is collected once per
            // fresh session, plus one bank and one ILP replay per
            // cell.
            size_t replaySpans = 0;
            std::vector<Tracer::Span> spans = traced.spans();
            for (size_t i = spansBefore; i < spans.size(); ++i) {
                if (spans[i].name == "core.replay" ||
                    spans[i].name == "ilp.replay")
                    ++replaySpans;
            }
            if (outcome.stats.replays != replaySpans + cells.size())
                report.tally.fail(
                    "trace.replays delta " +
                    std::to_string(outcome.stats.replays) +
                    " != replay spans + collections " +
                    std::to_string(replaySpans + cells.size()));
        } else {
            untracedRates.push_back(rate);
            cellMs.insert(cellMs.end(), outcome.cellMs.begin(),
                          outcome.cellMs.end());
        }
        // Whole passes only (every pass covers every cell), until the
        // run's seconds have passed.
        if (!tracedRates.empty() && secondsSince(t0) >= opts.seconds)
            break;
    }

    // Per-layer numbers from the traced passes.
    LayerFigures figures = wallFigures(untracedRates, cellMs, report.tally);
    figures.cacheDir = cacheDir;
    double passWall = 0;
    TraceRepoStats sum;
    for (const PassOutcome &p : tracedPasses) {
        passWall += p.seconds;
        sum.vmRuns += p.stats.vmRuns;
        sum.diskLoads += p.stats.diskLoads;
        sum.v3BlocksDecoded += p.stats.v3BlocksDecoded;
    }
    uint64_t blocksPerPass = 0;
    for (const Cell &cell : cells)
        blocksPerPass +=
            traceBlocks(cacheDir, cell.workload->name(), cell.input);
    if (blocksPerPass == 0)
        report.tally.fail("cannot read block counts of the cache");
    figures.repoVmRuns = static_cast<double>(sum.vmRuns);
    figures.repoDiskLoads = static_cast<double>(sum.diskLoads);
    figures.repoBlocksDecoded = static_cast<double>(sum.v3BlocksDecoded);
    figures.decodeAmplification =
        blocksPerPass == 0
            ? 0
            : static_cast<double>(sum.v3BlocksDecoded) /
                  static_cast<double>(blocksPerPass *
                                      tracedPasses.size());
    setSweepShares(traced, 0, passWall, figures);
    figures.traceOverheadPct =
        100.0 * (median(untracedRates) / median(tracedRates) - 1.0);

    writeSpans(traced, opts);
    addLayerMetrics(opts, figures, report);
    return report;
}

} // namespace perfbench
