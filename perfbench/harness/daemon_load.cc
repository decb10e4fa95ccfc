#include "harness/daemon_load.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "core/session.hh"
#include "daemon/dispatch.hh"
#include "harness/layer_probes.hh"
#include "harness/offline_sweep.hh"
#include "report/json.hh"

namespace perfbench
{

using namespace vpprof;
using daemon::Command;
using daemon::Request;
namespace fs = std::filesystem;

std::vector<Key>
allKeys(const WorkloadSuite &suite)
{
    std::vector<Key> keys;
    for (const auto &w : suite.all()) {
        for (size_t i = 0; i < w->numInputSets(); ++i)
            keys.push_back({std::string(w->name()), i});
    }
    return keys;
}

std::vector<Request>
mixSequence(uint64_t seed, uint64_t stream, size_t n,
            const std::vector<Key> &keys)
{
    // Distinct streams of one seed must not share a generator state.
    uint64_t mixed = seed * 0x9e3779b97f4a7c15ull + stream;
    Rng rng(splitmix64(mixed));
    std::vector<size_t> perm;
    size_t nextKey = 0;
    auto takeKey = [&]() -> const Key & {
        if (nextKey == perm.size()) {
            perm = seededOrder(keys.size(), rng.next());
            nextKey = 0;
        }
        return keys[perm[nextKey++]];
    };

    static constexpr Command kBlock[8] = {
        Command::Verify,   Command::Verify,   Command::Verify,
        Command::Evaluate, Command::Evaluate, Command::Evaluate,
        Command::Profile,  Command::Ping};
    std::vector<Request> out;
    out.reserve(n);
    while (out.size() < n) {
        std::vector<size_t> order = seededOrder(8, rng.next());
        for (size_t slot : order) {
            if (out.size() == n)
                break;
            Request req;
            req.id = out.size() + 1;
            req.cmd = kBlock[slot];
            if (req.cmd == Command::Ping) {
                if (rng.nextBelow(2))
                    req.cmd = Command::Stats;
            } else {
                const Key &key = takeKey();
                req.workload = key.workload;
                req.input = key.input;
                if (req.cmd == Command::Evaluate)
                    req.threshold =
                        kThresholds[rng.nextBelow(kThresholds.size())];
            }
            out.push_back(std::move(req));
        }
    }
    return out;
}

std::vector<double>
arrivalSchedule(uint64_t seed, double rate_per_s, double seconds)
{
    // round(rate x seconds) arrivals whose gaps are the exponential
    // distribution's quantiles at (i + 0.5) / n, in a seeded order:
    // every schedule has exactly the same gaps, so runs differ only in
    // how the gaps are ordered, not in how many requests they offer or
    // how bursty the gap distribution happens to come out.
    size_t n = static_cast<size_t>(std::llround(rate_per_s * seconds));
    std::vector<double> gaps(n);
    for (size_t i = 0; i < n; ++i)
        gaps[i] = -std::log(1.0 - (static_cast<double>(i) + 0.5) /
                                      static_cast<double>(n)) /
                  rate_per_s;
    uint64_t mixed = seed ^ 0x6a09e667f3bcc909ull;
    std::vector<size_t> order = seededOrder(n, splitmix64(mixed));
    std::vector<double> due(n);
    double t = 0;
    for (size_t i = 0; i < n; ++i) {
        t += gaps[order[i]];
        due[i] = t;
    }
    return due;
}

std::string
jobKey(const Request &req)
{
    std::ostringstream os;
    os << daemon::commandName(req.cmd) << '|' << req.workload << '|'
       << req.input;
    if (req.cmd == Command::Evaluate)
        os << '|' << report::formatJsonNumber(req.threshold);
    return os.str();
}

std::string
checkResponse(const Request &req, const std::string &line,
              const ReferenceTable &refs)
{
    std::string error;
    auto doc = report::parseJson(line, &error);
    if (!doc || !doc->isObject())
        return "unparseable response: " + error;
    if (doc->numberOr("id", -1) != static_cast<double>(req.id))
        return "response id does not match request " +
               std::to_string(req.id);
    const report::JsonValue *ok = doc->get("ok");
    if (!ok || !ok->isBool() || !ok->asBool())
        return "not ok: " + doc->stringOr("code", "?") + " " +
               doc->stringOr("error", "");
    if (doc->stringOr("cmd", "") != daemon::commandName(req.cmd))
        return "response names the wrong command";
    if (req.cmd == Command::Stats)
        return "";

    std::string fields;
    if (daemon::commandIsJob(req.cmd)) {
        auto it = refs.find(jobKey(req));
        if (it == refs.end())
            return "no reference for " + jobKey(req);
        fields = it->second;
    }
    uint64_t traceId =
        static_cast<uint64_t>(doc->numberOr("trace_id", 0));
    if (line != daemon::okResponseLine(req.id, req.cmd, fields, traceId))
        return "response differs from the in-process dispatch of " +
               jobKey(req);
    if (req.cmd == Command::Verify &&
        line.find("\"matches\": true") == std::string::npos)
        return "verify does not match the reference checksum";
    return "";
}

namespace
{

constexpr int kCallTimeoutMs = 60'000;
constexpr double kReadyTimeoutS = 30.0;
constexpr double kDrainTimeoutS = 60.0;

/** Connected Unix-socket client with line framing. */
class Conn
{
  public:
    Conn() = default;
    ~Conn() { close(); }
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    bool
    connect(const std::string &path)
    {
        close();
        fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd_ < 0)
            return false;
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (path.size() >= sizeof(addr.sun_path)) {
            close();
            return false;
        }
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            close();
            return false;
        }
        return true;
    }

    void
    close()
    {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = -1;
        buf_.clear();
    }

    int fd() const { return fd_; }

    bool
    sendLine(const std::string &line)
    {
        std::string out = line + "\n";
        size_t off = 0;
        while (off < out.size()) {
            ssize_t n = ::send(fd_, out.data() + off, out.size() - off,
                               MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            off += static_cast<size_t>(n);
        }
        return true;
    }

    /** Reads what is available into the buffer; false on EOF or a
     *  socket error. */
    bool
    pump()
    {
        char chunk[65536];
        ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
        if (n == 0)
            return false;
        if (n < 0)
            return errno == EAGAIN || errno == EWOULDBLOCK ||
                   errno == EINTR;
        buf_.append(chunk, static_cast<size_t>(n));
        return true;
    }

    /** Moves every complete buffered line into `lines`. */
    void
    takeLines(std::vector<std::string> &lines)
    {
        size_t start = 0;
        for (size_t nl; (nl = buf_.find('\n', start)) != std::string::npos;
             start = nl + 1)
            lines.push_back(buf_.substr(start, nl - start));
        buf_.erase(0, start);
    }

    /** Blocks up to timeout_ms for the next line. */
    std::optional<std::string>
    readLine(int timeout_ms)
    {
        uint64_t deadline = nowNs() + uint64_t(timeout_ms) * 1'000'000;
        for (;;) {
            size_t nl = buf_.find('\n');
            if (nl != std::string::npos) {
                std::string line = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                return line;
            }
            uint64_t now = nowNs();
            if (now >= deadline)
                return std::nullopt;
            pollfd pfd{fd_, POLLIN, 0};
            int wait = static_cast<int>((deadline - now) / 1'000'000) + 1;
            if (::poll(&pfd, 1, wait) < 0 && errno != EINTR)
                return std::nullopt;
            if (!pump())
                return std::nullopt;
        }
    }

  private:
    int fd_ = -1;
    std::string buf_;
};

/** One call on a connection; the raw answer line or nullopt. */
std::optional<std::string>
call(Conn &conn, const Request &req)
{
    if (!conn.sendLine(daemon::requestLine(req)))
        return std::nullopt;
    return conn.readLine(kCallTimeoutMs);
}

/** The spawned vpprofd process; stopped (and reaped) on destruction. */
class DaemonProcess
{
  public:
    DaemonProcess(const RunOptions &opts, const std::string &socket,
                  const std::string &cache_dir)
        : socket_(socket)
    {
        fs::remove(socket_);
        std::string log = opts.workDir + "/vpprofd.log";
        std::vector<std::string> args = {
            opts.vpprofd,      "--socket",     socket,
            "--jobs",          std::to_string(kDaemonJobs),
            "--trace-cache",   cache_dir};
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        pid_ = ::fork();
        if (pid_ == 0) {
            // Only async-signal-safe calls until exec. The daemon must
            // not outlive the benchmark, however the benchmark ends.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            int fd = ::open(log.c_str(),
                            O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                            0644);
            if (fd >= 0) {
                ::dup2(fd, 1);
                ::dup2(fd, 2);
            }
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
        if (pid_ < 0)
            vpprof_panic("perfbench: fork failed: ", std::strerror(errno));
    }

    ~DaemonProcess() { stop(); }
    DaemonProcess(const DaemonProcess &) = delete;
    DaemonProcess &operator=(const DaemonProcess &) = delete;

    /** Waits until the daemon answers ping; false on timeout/exit. */
    bool
    waitReady()
    {
        auto t0 = Clock::now();
        while (secondsSince(t0) < kReadyTimeoutS) {
            Conn conn;
            if (conn.connect(socket_)) {
                Request ping;
                ping.id = 1;
                ping.cmd = Command::Ping;
                auto line = call(conn, ping);
                if (line && line->find("\"ok\": true") != std::string::npos)
                    return true;
            }
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                return false;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        return false;
    }

    int pid() const { return pid_; }
    const std::string &socket() const { return socket_; }

    /** SIGTERM (graceful drain), escalating to SIGKILL; reaps. */
    void
    stop()
    {
        if (pid_ <= 0)
            return;
        ::kill(pid_, SIGTERM);
        auto t0 = Clock::now();
        int status = 0;
        while (::waitpid(pid_, &status, WNOHANG) == 0) {
            if (secondsSince(t0) > kDrainTimeoutS) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        pid_ = -1;
        fs::remove(socket_);
    }

  private:
    std::string socket_;
    pid_t pid_ = -1;
};

DaemonCounters
readCounters(const std::string &socket, Tally &tally)
{
    DaemonCounters c;
    Conn conn;
    Request req;
    req.id = 1;
    req.cmd = Command::Metrics;
    std::optional<std::string> line;
    if (conn.connect(socket))
        line = call(conn, req);
    auto doc = line ? report::parseJson(*line) : std::nullopt;
    const report::JsonValue *metrics =
        doc ? doc->get("result") : nullptr;
    metrics = metrics ? metrics->get("metrics") : nullptr;
    if (!metrics) {
        tally.fail("daemon metrics unavailable");
        return c;
    }
    const report::JsonValue *counters = metrics->get("counters");
    const report::JsonValue *hists = metrics->get("histograms");
    auto counter = [&](const char *name) {
        return counters ? counters->numberOr(name, 0) : 0.0;
    };
    auto hist = [&](const char *name, double *count, double *sum) {
        const report::JsonValue *h = hists ? hists->get(name) : nullptr;
        *count = h ? h->numberOr("count", 0) : 0;
        *sum = h ? h->numberOr("sum", 0) : 0;
    };
    hist("daemon.job.us", &c.execCount, &c.execSumUs);
    hist("daemon.job_latency.us", &c.latencyCount, &c.latencySumUs);
    c.jobsCompleted = counter("daemon.jobs_completed");
    c.rejected = counter("daemon.rejected_overloaded") +
                 counter("daemon.rejected_quota");
    c.replays = counter("trace.replays");
    c.vmRuns = counter("trace.vm_runs");
    c.diskLoads = counter("trace.disk_loads");
    c.blocksDecoded = counter("trace.v3.blocks_decoded");
    return c;
}

double
latencyMs(const Sample &s, bool from_due)
{
    uint64_t start = from_due ? s.dueNs : s.sendNs;
    return static_cast<double>(s.recvNs - start) / 1e6;
}

/** Every distinct job of the mix: all keys x {verify, profile,
 *  evaluate at each threshold}. */
std::vector<Request>
allJobs(const std::vector<Key> &keys)
{
    std::vector<Request> jobs;
    for (const Key &key : keys) {
        Request req;
        req.workload = key.workload;
        req.input = key.input;
        req.cmd = Command::Verify;
        jobs.push_back(req);
        req.cmd = Command::Profile;
        jobs.push_back(req);
        req.cmd = Command::Evaluate;
        for (double t : kThresholds) {
            req.threshold = t;
            jobs.push_back(req);
        }
    }
    return jobs;
}

/**
 * Reference result fields for every job of the mix, from in-process
 * Dispatcher::execute calls over the same warm cache — or read back
 * from `ref_file` when an earlier run of this binary stored them.
 */
ReferenceTable
referenceTable(const WorkloadSuite &suite, const std::vector<Key> &keys,
               const std::string &cache_dir, const std::string &ref_file)
{
    std::vector<Request> jobs = allJobs(keys);
    ReferenceTable refs;
    {
        std::ifstream in(ref_file);
        std::string line;
        while (std::getline(in, line)) {
            size_t tab = line.find('\t');
            if (tab != std::string::npos)
                refs[line.substr(0, tab)] = line.substr(tab + 1);
        }
        if (refs.size() == jobs.size())
            return refs;
        refs.clear();
    }

    SessionConfig config;
    config.jobs = 4;
    config.traceCacheDir = cache_dir;
    Session session(config);
    daemon::Dispatcher dispatcher(session, suite);
    std::vector<std::string> fields(jobs.size());
    session.runner().forEach(jobs.size(), [&](size_t i) {
        daemon::JobOutcome out = dispatcher.execute(jobs[i]);
        if (!out.ok)
            vpprof_panic("perfbench: in-process reference for ",
                         jobKey(jobs[i]), " failed: ", out.error);
        fields[i] = out.resultFields;
    });
    std::string tmp = ref_file + ".tmp";
    {
        std::ofstream out(tmp);
        for (size_t i = 0; i < jobs.size(); ++i) {
            refs[jobKey(jobs[i])] = fields[i];
            out << jobKey(jobs[i]) << '\t' << fields[i] << '\n';
        }
    }
    fs::rename(tmp, ref_file);
    return refs;
}

/**
 * Captures every key's trace into `cache_dir`, emptied first: the
 * cache files carry no identity of the program that wrote them, so a
 * trace left by another build must never be served or compared.
 */
void
captureFreshCache(const std::string &cache_dir, Tally &tally)
{
    WorkloadSuite suite;
    const std::vector<Cell> cells = allCells(suite);
    fs::remove_all(cache_dir);
    fs::create_directories(cache_dir);
    uint64_t vmRuns = captureAll(cells, cache_dir, 4);
    if (vmRuns != cells.size())
        tally.fail("daemon cache capture ran the VM " +
                   std::to_string(vmRuns) + " times for " +
                   std::to_string(cells.size()) + " traces");
}

/**
 * The warm-up pass: a profile and one evaluate per key, so every trace
 * is adopted and every profile and training profile memoized before
 * the measured window. Sent by kClients closed-loop connections.
 */
void
warmUp(const std::string &socket, const std::vector<Key> &keys,
       uint64_t seed, const ReferenceTable &refs, Tally &tally)
{
    std::vector<std::thread> threads;
    std::vector<Tally> tallies(kClients);
    for (size_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            Conn conn;
            if (!conn.connect(socket)) {
                tallies[c].fail("warm-up connect failed");
                return;
            }
            uint64_t id = 0;
            for (size_t k = c; k < keys.size(); k += kClients) {
                Request req;
                req.workload = keys[k].workload;
                req.input = keys[k].input;
                for (Command cmd : {Command::Profile, Command::Evaluate}) {
                    req.id = ++id;
                    req.cmd = cmd;
                    req.threshold =
                        kThresholds[(seed + k) % kThresholds.size()];
                    auto line = call(conn, req);
                    std::string why =
                        line ? checkResponse(req, *line, refs)
                             : "warm-up request unanswered";
                    if (!why.empty())
                        tallies[c].fail("warm-up: " + why);
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (const Tally &t : tallies) {
        for (const std::string &why : t.reasons())
            tally.fail(why);
    }
}

} // namespace

void
closedLoop(const std::string &socket, uint64_t seed,
           const std::vector<Key> &keys, double seconds, Tracer &tracer,
           Window &w)
{
    // Enough requests that no client runs out: every 8 requests hold 3
    // verify jobs of 20+ ms, so a client stays under 200 requests/s.
    const size_t perClient = static_cast<size_t>(seconds * 200) + 64;
    std::vector<std::vector<Request>> sequences;
    for (size_t c = 0; c < kClients; ++c)
        sequences.push_back(mixSequence(seed, c + 1, perClient, keys));
    std::vector<std::vector<Sample>> perThread(kClients);
    const uint64_t deadline =
        nowNs() + static_cast<uint64_t>(seconds * 1e9);
    std::atomic<size_t> refused{0};
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            Conn conn;
            if (!conn.connect(socket)) {
                refused.fetch_add(1);
                return;
            }
            for (const Request &req : sequences[c]) {
                if (nowNs() >= deadline)
                    break;
                Sample s;
                s.req = req;
                ScopedSpan span(tracer,
                                std::string("client.") +
                                    daemon::commandName(req.cmd),
                                (c + 1) * 1'000'000 + req.id);
                s.sendNs = nowNs();
                bool sent = conn.sendLine(daemon::requestLine(req));
                auto line = sent ? conn.readLine(kCallTimeoutMs)
                                 : std::nullopt;
                if (line) {
                    s.recvNs = nowNs();
                    s.line = std::move(*line);
                }
                perThread[c].push_back(std::move(s));
                if (!line)
                    break;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (size_t c = 0; c < kClients; ++c)
        w.samples.insert(w.samples.end(), perThread[c].begin(),
                         perThread[c].end());
    w.connectFailures += refused.load();
}

void
openLoop(const std::string &socket, uint64_t seed,
         const std::vector<Key> &keys, double seconds, double rate,
         Tracer &tracer, Window &w)
{
    std::vector<double> due = arrivalSchedule(seed, rate, seconds);
    std::vector<Request> seq = mixSequence(seed, 0, due.size(), keys);
    std::vector<Sample> samples(due.size());
    std::vector<Conn> conns(kClients);
    for (Conn &conn : conns)
        w.connectFailures += conn.connect(socket) ? 0 : 1;
    if (w.connectFailures > 0)
        return;

    const uint64_t start = nowNs();
    auto dueNs = [&](size_t i) {
        return start + static_cast<uint64_t>(due[i] * 1e9);
    };
    size_t next = 0, answered = 0;
    uint64_t drainDeadline = 0;  // set once everything was sent
    bool connectionLost = false;
    std::vector<std::string> lines;
    while (answered < due.size() && !connectionLost) {
        uint64_t now = nowNs();
        for (; next < due.size() && dueNs(next) <= now; ++next) {
            Sample &s = samples[next];
            s.req = seq[next];
            s.dueNs = dueNs(next);
            s.sendNs = nowNs();
            conns[next % kClients].sendLine(daemon::requestLine(s.req));
        }
        now = nowNs();
        if (next == due.size() && drainDeadline == 0)
            drainDeadline = now + static_cast<uint64_t>(kDrainTimeoutS * 1e9);
        if (drainDeadline && now > drainDeadline)
            break;

        uint64_t waitNs = 10'000'000;
        if (next < due.size())
            waitNs = dueNs(next) > now ? dueNs(next) - now : 0;
        pollfd pfds[kClients];
        for (size_t c = 0; c < kClients; ++c)
            pfds[c] = {conns[c].fd(), POLLIN, 0};
        timespec ts{static_cast<time_t>(waitNs / 1'000'000'000),
                    static_cast<long>(waitNs % 1'000'000'000)};
        if (::ppoll(pfds, kClients, &ts, nullptr) <= 0)
            continue;
        uint64_t recv = nowNs();
        for (size_t c = 0; c < kClients; ++c) {
            if (!(pfds[c].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            connectionLost |= !conns[c].pump();
            lines.clear();
            conns[c].takeLines(lines);
            for (std::string &line : lines) {
                auto doc = report::parseJson(line);
                double id = doc ? doc->numberOr("id", 0) : 0;
                if (id < 1 || id > static_cast<double>(samples.size()))
                    continue;
                Sample &s = samples[static_cast<size_t>(id) - 1];
                if (s.recvNs)
                    continue;
                s.recvNs = recv;
                s.line = std::move(line);
                ++answered;
            }
        }
    }
    // Spans are recorded after the fact: the generator must not pay
    // for them while it keeps the schedule.
    for (const Sample &s : samples) {
        if (s.sendNs)
            tracer.add(std::string("client.") +
                           daemon::commandName(s.req.cmd),
                       s.dueNs, s.recvNs ? s.recvNs : s.sendNs, s.req.id);
    }
    samples.resize(next);
    w.samples = std::move(samples);
}

void
checkWindow(Window &w, const ReferenceTable &refs, Tally &tally)
{
    for (size_t i = 0; i < w.connectFailures; ++i)
        tally.fail("load client could not connect");
    for (Sample &s : w.samples) {
        std::string why = s.recvNs
            ? checkResponse(s.req, s.line, refs)
            : "request " + std::to_string(s.req.id) + " unanswered";
        s.correct = why.empty();
        if (s.correct)
            tally.pass();
        else
            tally.fail(why);
    }
    if (w.after.vmRuns != w.before.vmRuns)
        tally.fail("measured window ran the VM");
}

namespace
{

/** Blocks in each key's cached trace file, by "<workload>.in<input>". */
std::map<std::string, uint64_t>
keyBlocks(const std::string &cache_dir, const std::vector<Key> &keys)
{
    std::map<std::string, uint64_t> blocks;
    for (const Key &key : keys)
        blocks[key.workload + ".in" + std::to_string(key.input)] =
            traceBlocks(cache_dir, key.workload, key.input);
    return blocks;
}

Window
measureWindow(const std::string &socket, uint64_t seed,
              const std::vector<Key> &keys, double seconds,
              bool open_loop, Tracer &tracer, Tally &tally)
{
    Window w;
    w.before = readCounters(socket, tally);
    auto t0 = Clock::now();
    if (open_loop)
        openLoop(socket, seed, keys, seconds, kOpenRatePerS, tracer, w);
    else
        closedLoop(socket, seed, keys, seconds, tracer, w);
    w.wall = secondsSince(t0);
    w.after = readCounters(socket, tally);
    return w;
}

/**
 * The daemon's per-layer figures from a traced closed-loop window,
 * cross-checked against its own counters: client spans of answered
 * jobs must equal the jobs_completed delta, and each evaluate must
 * account for two trace replays (FSM and profile classification;
 * profile jobs are memo hits and verify runs the VM directly). The
 * open-loop window gives the generator's lateness and the latency at
 * the fixed offered load.
 */
void
daemonFigures(const Window &closed, const Window &open,
              const std::map<std::string, uint64_t> &blocks,
              LayerFigures &figures, Tally &tally)
{
    const DaemonCounters &b = closed.before, &a = closed.after;
    size_t jobSpans = 0, evaluates = 0;
    uint64_t evaluateBlocks = 0;
    std::vector<double> ctlMs, jobMs;
    for (const Sample &s : closed.samples) {
        figures.requests.push_back(s.req);
        if (!s.recvNs)
            continue;
        double ms = latencyMs(s, false);
        if (!daemon::commandIsJob(s.req.cmd)) {
            ctlMs.push_back(ms);
            continue;
        }
        jobMs.push_back(ms);
        if (!s.correct)
            continue;
        ++jobSpans;
        if (s.req.cmd == Command::Evaluate) {
            ++evaluates;
            auto it = blocks.find(s.req.workload + ".in" +
                                  std::to_string(s.req.input));
            evaluateBlocks += it == blocks.end() ? 0 : it->second;
        }
    }
    if (static_cast<double>(jobSpans) != a.jobsCompleted - b.jobsCompleted)
        tally.fail("job spans (" + std::to_string(jobSpans) +
                   ") != jobs_completed delta");
    if (static_cast<double>(2 * evaluates) != a.replays - b.replays)
        tally.fail("2 x evaluate spans != trace.replays delta");

    double execN = a.execCount - b.execCount;
    double execMs =
        execN > 0 ? (a.execSumUs - b.execSumUs) / execN / 1e3 : 0;
    double latN = a.latencyCount - b.latencyCount;
    double admitMs =
        latN > 0 ? (a.latencySumUs - b.latencySumUs) / latN / 1e3 : 0;
    figures.daemonMeasured = true;
    figures.serverExecMs = execMs;
    figures.serverQueueWaitMs = admitMs - execMs;
    figures.executorBusyFrac =
        (a.execSumUs - b.execSumUs) / 1e6 / (closed.wall * kDaemonJobs);
    figures.ctlP50Ms = median(ctlMs);
    figures.clientOverheadMs = mean(jobMs) - admitMs;
    figures.rejected = (a.rejected - b.rejected) +
                       (open.after.rejected - open.before.rejected);
    figures.repoVmRuns = a.vmRuns - b.vmRuns;
    figures.repoDiskLoads = a.diskLoads - b.diskLoads;
    figures.repoBlocksDecoded = a.blocksDecoded - b.blocksDecoded;
    figures.decodeAmplification =
        evaluateBlocks == 0 ? 0
                            : figures.repoBlocksDecoded /
                                  static_cast<double>(evaluateBlocks);

    std::vector<double> lateness, openMs;
    for (const Sample &s : open.samples) {
        lateness.push_back(static_cast<double>(s.sendNs - s.dueNs) / 1e6);
        if (s.recvNs)
            openMs.push_back(latencyMs(s, true));
    }
    figures.lateP99Ms = tailPercentile(lateness, 0.99, 0).value_or(0);
    figures.openP50Ms = median(openMs);
}

/** Answered requests per second of a window. */
double
answeredRate(const Window &w)
{
    size_t n = 0;
    for (const Sample &s : w.samples)
        n += s.recvNs ? 1 : 0;
    return static_cast<double>(n) / w.wall;
}

/** Where the daemon workloads keep their warm trace cache. */
std::string
daemonCacheDir(const RunOptions &opts)
{
    return opts.workDir + "/daemon-cache";
}

/** A freshly captured daemon cache and the reference results on it. */
ReferenceTable
daemonReferences(const RunOptions &opts, const WorkloadSuite &suite,
                 Tally &tally)
{
    std::string cacheDir = daemonCacheDir(opts);
    captureFreshCache(cacheDir, tally);
    return referenceTable(suite, allKeys(suite), cacheDir,
                          opts.workDir + "/reference-daemon-" +
                              opts.binaryDigest + ".txt");
}

/** Spawns vpprofd and runs the warm-up; nullptr when it never came up. */
std::unique_ptr<DaemonProcess>
startWarmDaemon(const RunOptions &opts, const std::vector<Key> &keys,
                const ReferenceTable &refs, Tally &tally)
{
    auto daemon = std::make_unique<DaemonProcess>(opts, "vpprofd.sock",
                                                  daemonCacheDir(opts));
    if (!daemon->waitReady()) {
        tally.fail("vpprofd did not come up");
        return nullptr;
    }
    warmUp(daemon->socket(), keys, opts.seed, refs, tally);
    return daemon;
}

/**
 * The traced phases against a warm daemon: a closed-loop window and an
 * open-loop window at kOpenRatePerS, both checked, into `figures`.
 * Returns the traced closed window's answered requests per second.
 */
double
tracedDaemonPhases(const RunOptions &opts, DaemonProcess &daemon,
                   const std::vector<Key> &keys,
                   const ReferenceTable &refs, double seconds,
                   Tracer &tracer, LayerFigures &figures, Tally &tally)
{
    Window closed = measureWindow(daemon.socket(), opts.seed + 1, keys,
                                  seconds, false, tracer, tally);
    Window open = measureWindow(daemon.socket(), opts.seed + 2, keys,
                                seconds, true, tracer, tally);
    checkWindow(closed, refs, tally);
    checkWindow(open, refs, tally);
    daemonFigures(closed, open, keyBlocks(daemonCacheDir(opts), keys),
                  figures, tally);
    return answeredRate(closed);
}

} // namespace

void
probeDaemonServer(const RunOptions &opts, double seconds, Tracer &tracer,
                  LayerFigures &figures, Tally &tally)
{
    WorkloadSuite suite;
    const std::vector<Key> keys = allKeys(suite);
    const ReferenceTable refs = daemonReferences(opts, suite, tally);
    auto daemon = startWarmDaemon(opts, keys, refs, tally);
    if (!daemon)
        return;
    // Only the daemon's own figures: the repository counts belong to
    // the workload being traced.
    LayerFigures probe;
    tracedDaemonPhases(opts, *daemon, keys, refs, seconds / 2, tracer,
                       probe, tally);
    figures.daemonMeasured = true;
    figures.serverExecMs = probe.serverExecMs;
    figures.serverQueueWaitMs = probe.serverQueueWaitMs;
    figures.executorBusyFrac = probe.executorBusyFrac;
    figures.ctlP50Ms = probe.ctlP50Ms;
    figures.clientOverheadMs = probe.clientOverheadMs;
    figures.rejected = probe.rejected;
    figures.lateP99Ms = probe.lateP99Ms;
    figures.openP50Ms = probe.openP50Ms;
    if (figures.requests.empty())
        figures.requests = probe.requests;
}

RunReport
runDaemonClosed(const RunOptions &opts)
{
    RunReport report;
    WorkloadSuite suite;
    const std::vector<Key> keys = allKeys(suite);
    const ReferenceTable refs =
        daemonReferences(opts, suite, report.tally);

    // Set-up: spawn until ping answers, plus the warm-up pass; repeated
    // so the reported figure is a median. The last daemon serves the
    // measured window.
    const int setupReps = opts.trace ? 1 : 3;
    std::vector<double> setupTimes;
    std::unique_ptr<DaemonProcess> daemon;
    for (int rep = 0; rep < setupReps; ++rep) {
        daemon.reset();
        auto t0 = Clock::now();
        daemon = startWarmDaemon(opts, keys, refs, report.tally);
        setupTimes.push_back(secondsSince(t0));
        std::cerr << "perfbench: set-up " << rep + 1 << " took "
                  << formatNumber(setupTimes.back()) << " s\n";
        if (!daemon)
            return report;
    }

    // A traced run splits its seconds in three: an untraced closed
    // window (the overhead baseline), then the traced closed and open
    // windows.
    Tracer untraced(false);
    Tracer traced(true);
    const double seconds = opts.trace ? opts.seconds / 3 : opts.seconds;
    double cpu0 = processCpuSeconds(daemon->pid());
    Window window = measureWindow(daemon->socket(), opts.seed, keys,
                                  seconds, false, untraced, report.tally);
    double daemonCpu = processCpuSeconds(daemon->pid()) - cpu0;
    if (cpu0 < 0 || daemonCpu <= 0)
        report.tally.fail("cannot read vpprofd's CPU clock");
    std::cerr << "perfbench: measured window took "
              << formatNumber(window.wall) << " s\n";
    LayerFigures figures;
    double tracedRate = 0;
    if (opts.trace)
        tracedRate = tracedDaemonPhases(opts, *daemon, keys, refs,
                                        seconds, traced, figures,
                                        report.tally);
    double daemonRss = peakRssMb(daemon->pid());
    daemon.reset();
    checkWindow(window, refs, report.tally);

    std::vector<double> latencies;
    size_t answered = 0, withinSlo = 0;
    std::map<std::string, std::vector<double>> byCommand;
    for (const Sample &s : window.samples) {
        if (!s.recvNs)
            continue;
        double ms = latencyMs(s, false);
        latencies.push_back(ms);
        byCommand[daemon::commandName(s.req.cmd)].push_back(ms);
        if (s.correct) {
            ++answered;
            if (ms <= kRequestSloMs)
                ++withinSlo;
        }
    }
    // Where the latency goes, by command (stderr; not a metric): a
    // memoized profile job executes in well under a millisecond.
    for (const auto &[cmd, list] : byCommand)
        std::cerr << "perfbench: " << cmd << " p50 "
                  << formatNumber(median(list)) << " ms over "
                  << list.size() << " requests\n";

    // Wall-clock figures of the untraced window: per-layer metrics of a
    // traced run, a diagnostic otherwise (see README.md, Steadiness).
    std::optional<double> tail = tailPercentile(latencies, kRequestTailQ);
    if (!tail)
        report.tally.fail("too few samples (" +
                          std::to_string(latencies.size()) +
                          ") for the tail percentile");
    figures.wallThroughputPerS =
        static_cast<double>(answered) / window.wall;
    figures.wallP50Ms = median(latencies);
    figures.wallTailMs = tail.value_or(0);
    figures.wallSloMetFrac =
        window.samples.empty()
            ? 0
            : static_cast<double>(withinSlo) /
                  static_cast<double>(window.samples.size());

    MetricSet &m = report.metrics;
    if (!opts.trace) {
        printWallFigures(figures, std::cerr);
        m.add("setup_s", median(setupTimes), "s");
        m.add("cpu_ms_per_op",
              answered == 0 ? 0
                            : 1e3 * daemonCpu /
                                  static_cast<double>(answered),
              "ms");
        m.add("peak_rss_mb", daemonRss, "MiB");
        return report;
    }

    figures.cacheDir = daemonCacheDir(opts);
    // Tracing cost: the untraced closed window against the traced one.
    figures.traceOverheadPct =
        100.0 * (answeredRate(window) / tracedRate - 1.0);
    writeSpans(traced, opts);
    addLayerMetrics(opts, figures, report);
    return report;
}

} // namespace perfbench
