/**
 * @file
 * The `daemon_closed` workload and the open-loop phase of traced runs:
 * the real vpprofd binary, spawned on a warm trace cache and driven
 * over its Unix socket by one load-generating process.
 *
 *  - closed loop: 4 clients, each sending its next request only after
 *    the previous one was answered;
 *  - open loop: one generator sending on a seeded exponential arrival
 *    schedule at a fixed rate over 4 pipelined connections, timing
 *    each request from the moment it was due.
 *
 * Both send the same seeded mix over all 45 (workload, input) keys:
 * per 8 requests, 3 verify, 3 evaluate, 1 profile and 1 ping or stats.
 * Every response must be `ok`; a job's response line must equal, byte
 * for byte, the line built from an in-process Dispatcher::execute of
 * the same request.
 */

#ifndef PERFBENCH_HARNESS_DAEMON_LOAD_HH
#define PERFBENCH_HARNESS_DAEMON_LOAD_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "daemon/protocol.hh"
#include "harness/bench_core.hh"
#include "workloads/workload.hh"

namespace perfbench
{

/** Closed-loop clients, open-loop connections, daemon lanes. */
inline constexpr size_t kClients = 4;
inline constexpr unsigned kDaemonJobs = 2;

/**
 * The open loop's offered load, requests per second: about half the
 * closed loop's measured capacity (see README.md, calibration).
 */
inline constexpr double kOpenRatePerS = 15.0;

/** The latency limit behind wall.slo_met_frac for one request. */
inline constexpr double kRequestSloMs = 300.0;

/** The request-latency percentile the wall-clock tail reports: p90,
 *  which the 100 answered requests of a few seconds support. */
inline constexpr double kRequestTailQ = 0.90;

/** One (workload, input) key. */
struct Key
{
    std::string workload;
    size_t input = 0;
};

/** Every key of the suite, in suite order. */
std::vector<Key> allKeys(const vpprof::WorkloadSuite &suite);

/**
 * The first `n` requests of request stream `stream` for `seed`: per
 * block of 8, a seeded shuffle of 3 verify, 3 evaluate (threshold
 * drawn from the paper's five), 1 profile and 1 ping-or-stats; job
 * keys walk a seeded permutation of all keys, reshuffled each round.
 * Ids run 1..n. Deterministic in (seed, stream).
 */
std::vector<vpprof::daemon::Request>
mixSequence(uint64_t seed, uint64_t stream, size_t n,
            const std::vector<Key> &keys);

/**
 * Due times (seconds from the start) of round(rate x seconds) arrivals
 * with exponentially distributed gaps (mean 1 / rate): the gaps are
 * the distribution's quantiles, taken in a seeded order. Deterministic
 * in the seed.
 */
std::vector<double> arrivalSchedule(uint64_t seed, double rate_per_s,
                                    double seconds);

/** Identity of a job request for reference lookups. */
std::string jobKey(const vpprof::daemon::Request &req);

/** Job key -> the result fields an in-process dispatch produces. */
using ReferenceTable = std::map<std::string, std::string>;

/**
 * Checks one response line against the request it answers. Returns an
 * empty string when it is correct: `ok`, matching id, and — for a job
 * — byte-equal to the line built from the reference result (and, for
 * verify, `"matches": true`). Otherwise the reason it is wrong.
 */
std::string checkResponse(const vpprof::daemon::Request &req,
                          const std::string &line,
                          const ReferenceTable &refs);

/** One sent request and what came back. */
struct Sample
{
    vpprof::daemon::Request req;
    uint64_t dueNs = 0;   ///< open loop: scheduled send time
    uint64_t sendNs = 0;
    uint64_t recvNs = 0;  ///< 0: never answered
    std::string line;
    bool correct = false;
};

/** What the daemon's own metrics say at one instant. */
struct DaemonCounters
{
    double execCount = 0, execSumUs = 0;
    double latencyCount = 0, latencySumUs = 0;
    double jobsCompleted = 0, rejected = 0;
    double replays = 0, vmRuns = 0, diskLoads = 0, blocksDecoded = 0;
};

/** One measured window: the daemon's counters around it and every
 *  request sent in it. */
struct Window
{
    std::vector<Sample> samples;
    DaemonCounters before, after;
    double wall = 0;
    /** Clients or connections that could not reach the daemon. */
    size_t connectFailures = 0;
};

/**
 * Closed loop into `w`: kClients clients until `seconds` have passed.
 * A client that cannot connect sends nothing and is counted in
 * `w.connectFailures`.
 */
void closedLoop(const std::string &socket, uint64_t seed,
                const std::vector<Key> &keys, double seconds,
                Tracer &tracer, Window &w);

/**
 * Open loop into `w`: one generator, kClients pipelined connections,
 * requests sent when due on the seeded schedule at `rate` whatever is
 * outstanding. When a connection cannot be made nothing is sent and
 * the refused connections are counted in `w.connectFailures`.
 */
void openLoop(const std::string &socket, uint64_t seed,
              const std::vector<Key> &keys, double seconds, double rate,
              Tracer &tracer, Window &w);

/**
 * Output checks of a window, outside its timing: one failure per
 * refused client, per unanswered or wrong response, and one if the
 * window ran the VM.
 */
void checkWindow(Window &w, const ReferenceTable &refs, Tally &tally);

struct LayerFigures;

/**
 * Fills the daemon figures of `figures` from a short traced closed
 * loop against a freshly spawned, warmed vpprofd serving one seeded
 * workload's inputs: what a traced run of a workload that does not
 * drive the daemon reports for the daemon's layers.
 */
void probeDaemonServer(const RunOptions &opts, double seconds,
                       Tracer &tracer, LayerFigures &figures,
                       Tally &tally);

/** Runs daemon_closed (see the file comment). */
RunReport runDaemonClosed(const RunOptions &opts);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_DAEMON_LOAD_HH
