/**
 * @file
 * The `offline_sweep` workload: the paper's profile -> annotate ->
 * evaluate flow as a researcher runs it, in process at jobs=1, over
 * every (workload, input) cell of the suite on a warm trace cache.
 *
 * One cell = collect the cell's profile, merge the training profile
 * (the other four inputs) and annotate it at the paper's five
 * thresholds, one EvaluatorBank pass (classification, finite-table and
 * hybrid-table evaluators: FSM plus the five profile variants), and
 * one DataflowEngine ILP evaluation.
 *
 * An untraced run times three such sweeps side by side, each in a
 * child process; a traced run times one, in process.
 */

#ifndef PERFBENCH_HARNESS_OFFLINE_SWEEP_HH
#define PERFBENCH_HARNESS_OFFLINE_SWEEP_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/batch_replay.hh"
#include "core/evaluators.hh"
#include "core/session.hh"
#include "harness/bench_core.hh"
#include "predictors/profile_classifier.hh"
#include "predictors/saturating_classifier.hh"
#include "workloads/workload.hh"

namespace perfbench
{

/** The paper's annotation thresholds (Section 5), in percent. */
inline constexpr std::array<double, 5> kThresholds = {90, 80, 70, 60,
                                                      50};

/** Index of the threshold the ILP evaluation annotates at (70%). */
inline constexpr size_t kIlpThresholdIndex = 2;
static_assert(kThresholds[kIlpThresholdIndex] == 70);

/** One (workload, input) cell of the sweep. */
struct Cell
{
    const vpprof::Workload *workload = nullptr;
    size_t input = 0;
};

/**
 * The sweep's evaluator bank for one cell: the classification and
 * finite-table evaluators as FSM plus the five profile variants, and
 * the five directive-steered hybrid tables (17 slots). Owns the
 * evaluators the bank points at, so it is neither copied nor moved.
 */
class SweepBank
{
  public:
    /** `base` and `annotated` (one program per threshold) must outlive
     *  the bank. */
    SweepBank(const vpprof::Program &base,
              const std::vector<vpprof::Program> &annotated);

    SweepBank(const SweepBank &) = delete;
    SweepBank &operator=(const SweepBank &) = delete;

    vpprof::EvaluatorBank &bank() { return bank_; }

    /** Appends every slot's counters, in slot order. */
    void appendResults(std::vector<uint64_t> &out) const;

  private:
    vpprof::SaturatingClassifier fsmClassifier_;
    vpprof::ClassificationEvaluator clsFsm_{fsmClassifier_};
    std::array<vpprof::ProfileClassifier, kThresholds.size()>
        profClassifiers_;
    std::vector<vpprof::ClassificationEvaluator> clsProf_;
    vpprof::FiniteTableEvaluator tableFsm_;
    std::vector<vpprof::FiniteTableEvaluator> tableProf_;
    std::vector<vpprof::HybridTableEvaluator> hybrid_;
    vpprof::EvaluatorBank bank_;
};

/**
 * Forwards each block to an inner sink and times the call: the
 * consumer's share of a replay, decode excluded. With an enabled
 * tracer each call is also a child span of the caller's open span.
 */
class TimedBlockSink : public vpprof::TraceBlockSink
{
  public:
    TimedBlockSink(vpprof::TraceBlockSink *inner, Tracer &tracer,
                   const char *name, uint64_t group)
        : inner_(inner), tracer_(tracer), name_(name), group_(group)
    {
    }

    void consumeBlock(const vpprof::TraceBlockView &block) override;

    /** Nanoseconds spent inside the inner sink so far. */
    uint64_t busyNs() const { return busyNs_; }

  private:
    vpprof::TraceBlockSink *inner_;
    Tracer &tracer_;
    const char *name_;
    uint64_t group_;
    uint64_t busyNs_ = 0;
};

/** Every cell of the suite, in suite order. */
std::vector<Cell> allCells(const vpprof::WorkloadSuite &suite);

/** A seeded permutation of [0, n). */
std::vector<size_t> seededOrder(size_t n, uint64_t seed);

/**
 * Everything one cell computes, flattened to counters: the profile
 * digests, then per evaluator slot its counters, then the ILP result.
 * Two cells agree iff their vectors are equal.
 */
using CellResult = std::vector<uint64_t>;

/**
 * A cell's first step: Session::collectProfile of its own input;
 * appends the profile digest to `out`.
 */
void collectCellProfile(vpprof::Session &session, const Cell &cell,
                        Tracer &tracer, uint64_t cell_id, CellResult &out);

/**
 * A cell's other steps, appended to `out`: Session::collectMergedProfile
 * of the other inputs + insertDirectives at each threshold, one batched
 * Session::replayInto over the SweepBank, one ILP evaluation. With an
 * enabled tracer the bank and ILP replays are timed per block (decode
 * vs. consumer) and every step gets a span.
 */
void evaluateCell(vpprof::Session &session, const Cell &cell,
                  Tracer &tracer, uint64_t cell_id, CellResult &out);

/** What one pass over the cells produced. */
struct SweepPass
{
    std::vector<CellResult> results;  ///< indexed like the cells
    std::vector<double> cellMs;       ///< latency per cell, in order
};

/**
 * One pass over `cells` in `order`: every cell's first step, then
 * every cell's other steps. The training profiles a cell merges are
 * then always memoized, so a cell's latency (the sum of its steps)
 * does not depend on which cells the seeded order ran before it.
 */
SweepPass runSweepPass(vpprof::Session &session,
                       const std::vector<Cell> &cells,
                       const std::vector<size_t> &order, Tracer &tracer);

/**
 * The same cell through the serial Session::evaluate* entry points
 * (one replay per evaluator): the reference the sweep is checked
 * against.
 */
CellResult referenceCell(vpprof::Session &session, const Cell &cell);

/** Compares a cell against its reference; a mismatch is a failure. */
void checkCell(const CellResult &got, const CellResult &want,
               const Cell &cell, Tally &tally);

/**
 * Produces every cell's trace in `cache_dir`: captured by the VM, or
 * adopted when a valid file is already there. Returns the VM runs.
 */
uint64_t captureAll(const std::vector<Cell> &cells,
                const std::string &cache_dir, unsigned jobs);

/**
 * The reference results for every cell, computed through the serial
 * entry points over `cache_dir` — or read back from `ref_file` when
 * an earlier run of this very binary already stored them there.
 */
std::vector<CellResult> referenceResults(const std::vector<Cell> &cells,
                                         const std::string &cache_dir,
                                         const std::string &ref_file);

struct LayerFigures;

/**
 * Sets the sweep's self shares in `figures` from the sweep-pass spans
 * recorded from index `first_span` on: each layer's self time over
 * `wall` seconds of traced cells. Decode is what the bank and ILP
 * replay spans keep beyond their consumers' per-block spans; the
 * profile share holds collection and merge (Session::collectProfile
 * decodes inside its own call).
 */
void setSweepShares(const Tracer &tracer, size_t first_span, double wall,
                    LayerFigures &figures);

/** Blocks in the cache file of (workload, input); 0 when unreadable.
 *  The file name follows the trace repository's cache layout. */
uint64_t traceBlocks(const std::string &cache_dir,
                     std::string_view workload, size_t input);

/** Runs the offline_sweep workload (see the file comment). */
RunReport runOfflineSweep(const RunOptions &opts);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_OFFLINE_SWEEP_HH
