/**
 * @file
 * perfbench — runs one benchmark workload and reports its metrics.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --work-dir DIR --vpprofd PATH
 *
 * Prints one `name value unit` line per metric, then (last line) one
 * JSON object {"correct", "attempted", "failed", "metrics"}. With
 * --trace 0 the metrics are the end-to-end ones; with --trace 1 the
 * per-layer ones from a traced run. Exits 1 when an output check
 * failed, 2 on a usage error. run.py builds and invokes it.
 */

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <sstream>

#include <unistd.h>

#include "harness/bench_core.hh"
#include "harness/daemon_load.hh"
#include "harness/offline_sweep.hh"

using namespace perfbench;
namespace fs = std::filesystem;

namespace
{

int
usage(const char *why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload offline_sweep|daemon_closed "
                 "--seed N --seconds S --trace 0|1 --work-dir DIR "
                 "--vpprofd PATH\n";
    return 2;
}

bool
parseUint(const char *text, uint64_t *out)
{
    if (!text || !*text || *text == '-')
        return false;
    char *end = nullptr;
    *out = std::strtoull(text, &end, 10);
    return *end == '\0';
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opts;
    uint64_t seconds = 0, trace = 0;
    bool haveSeed = false, haveSeconds = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (!value)
            return usage(("missing value for " + flag).c_str());
        ++i;
        if (flag == "--workload") {
            opts.workload = value;
        } else if (flag == "--seed") {
            haveSeed = parseUint(value, &opts.seed);
            if (!haveSeed)
                return usage("--seed takes an unsigned integer");
        } else if (flag == "--seconds") {
            haveSeconds = parseUint(value, &seconds) && seconds > 0;
            if (!haveSeconds)
                return usage("--seconds takes a positive integer");
        } else if (flag == "--trace") {
            if (!parseUint(value, &trace) || trace > 1)
                return usage("--trace takes 0 or 1");
        } else if (flag == "--work-dir") {
            opts.workDir = value;
        } else if (flag == "--vpprofd") {
            opts.vpprofd = value;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    if (!haveSeed || !haveSeconds || opts.workDir.empty() ||
        opts.vpprofd.empty())
        return usage("--seed, --seconds, --work-dir and --vpprofd are "
                     "required");
    opts.seconds = static_cast<double>(seconds);
    opts.trace = trace == 1;

    // Run inside the work directory: the daemon's socket path stays
    // short (sun_path is ~100 bytes) wherever the checkout lives.
    opts.vpprofd = fs::absolute(opts.vpprofd).string();
    fs::create_directories(opts.workDir);
    if (::chdir(opts.workDir.c_str()) != 0)
        return usage("cannot enter the work directory");
    opts.workDir = ".";
    {
        std::ostringstream hex;
        hex << std::hex << fileDigest("/proc/self/exe");
        opts.binaryDigest = hex.str();
    }

    RunReport report;
    if (opts.workload == "offline_sweep")
        report = runOfflineSweep(opts);
    else if (opts.workload == "daemon_closed")
        report = runDaemonClosed(opts);
    else
        return usage(("unknown workload '" + opts.workload + "'").c_str());

    const Tally &tally = report.tally;
    bool correct = tally.failed() == 0 && tally.attempted() > 0;
    printMetricLines(report.metrics, std::cout);
    std::cout << "failed_frac " << formatNumber(tally.failedFrac())
              << " fraction\n";
    for (const std::string &why : tally.reasons())
        std::cerr << "perfbench: check failed: " << why << "\n";
    std::cout << resultJsonLine(correct, std::max<uint64_t>(
                                             tally.attempted(), 1),
                                tally.failed(), report.metrics)
              << std::endl;
    return correct ? 0 : 1;
}
