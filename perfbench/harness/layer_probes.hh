/**
 * @file
 * Per-layer numbers for traced runs. Each probe times calls into one
 * layer's public functions from outside (spans in this file, none in
 * the program), and subtracts the decode share where the layer is fed
 * by a replay. The workloads add the figures only their own measured
 * phase can give (LayerFigures); addLayerMetrics then reports every
 * per-layer metric, in one fixed order, on every workload.
 */

#ifndef PERFBENCH_HARNESS_LAYER_PROBES_HH
#define PERFBENCH_HARNESS_LAYER_PROBES_HH

#include <ostream>
#include <string>
#include <vector>

#include "daemon/protocol.hh"
#include "harness/bench_core.hh"

namespace perfbench
{

/**
 * Figures a workload's own traced phase measures. A layer the
 * workload does not exercise keeps 0: the daemon figures on
 * offline_sweep, the sweep's self shares on the daemon workloads,
 * the generator's lateness on the closed loop.
 */
struct LayerFigures
{
    /** Warm trace cache the probes replay from. */
    std::string cacheDir;
    /** The workload's own request lines (protocol probe input); the
     *  probe generates the closed-loop mix when empty. */
    std::vector<vpprof::daemon::Request> requests;

    /** The workload's own traced phase gave the sweep's self shares
     *  (offline_sweep) or the daemon's figures (daemon workloads);
     *  otherwise addLayerMetrics measures them with a short probe. */
    bool sweepMeasured = false;
    bool daemonMeasured = false;

    double repoVmRuns = 0;
    double repoDiskLoads = 0;
    double repoBlocksDecoded = 0;
    double decodeAmplification = 0;

    double shareDecode = 0;
    double shareProfile = 0;
    double shareCompiler = 0;
    double shareEval = 0;
    double shareIlp = 0;

    double serverExecMs = 0;
    double serverQueueWaitMs = 0;
    double executorBusyFrac = 0;
    double ctlP50Ms = 0;
    double clientOverheadMs = 0;
    double rejected = 0;
    double lateP99Ms = 0;
    double openP50Ms = 0;

    /** Traced minus untraced, as a share of untraced (percent). */
    double traceOverheadPct = 0;

    /**
     * Wall-clock figures of the workload's own untraced phase: cells
     * or answered requests per second, the median and tail (p75 of
     * cells, p90 of requests) latency, and the share of cells or sent
     * requests done correctly within the latency limit. They move with
     * the host's load as much as with the program, so they are
     * reported, not bounded.
     */
    double wallThroughputPerS = 0;
    double wallP50Ms = 0;
    double wallTailMs = 0;
    double wallSloMetFrac = 0;
};

/** The wall-clock figures as `wall: name value unit` lines. */
void printWallFigures(const LayerFigures &figures, std::ostream &os);

/** Runs the layer probes and reports every per-layer metric. */
void addLayerMetrics(const RunOptions &opts, LayerFigures figures,
                     RunReport &report);

/** Writes the run's spans to <workDir>/spans-<workload>-<seed>.json. */
void writeSpans(const Tracer &tracer, const RunOptions &opts);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_LAYER_PROBES_HH
