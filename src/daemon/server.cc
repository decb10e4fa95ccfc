#include "daemon/server.hh"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <sstream>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/failpoint.hh"
#include "common/logging.hh"
#include "common/telemetry/prometheus.hh"
#include "common/telemetry/telemetry.hh"

namespace vpprof
{
namespace daemon
{

namespace
{

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

bool
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void
writeField(std::ostream &os, const char *name, uint64_t value,
           bool &first)
{
    if (!first)
        os << ", ";
    first = false;
    os << "\"" << name << "\": " << value;
}

/**
 * Split "host:port", resolve the host (dotted quad or "localhost"),
 * bind a non-blocking AF_INET listener. Port 0 asks the kernel for a
 * free one; the bound port is reported through `port_out`.
 */
int
openTcpListener(const std::string &address, uint16_t *port_out,
                std::string *error)
{
    auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg + " (" + std::strerror(errno) + ")";
        return -1;
    };
    size_t colon = address.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= address.size()) {
        if (error)
            *error = "--listen needs host:port, got '" + address + "'";
        return -1;
    }
    std::string host = address.substr(0, colon);
    if (host == "localhost")
        host = "127.0.0.1";
    char *end = nullptr;
    unsigned long port = std::strtoul(address.c_str() + colon + 1,
                                      &end, 10);
    if (*end != '\0' || port > 65535) {
        if (error)
            *error = "bad listen port in '" + address + "'";
        return -1;
    }

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        if (error)
            *error = "cannot resolve listen host '" + host +
                     "' (use a dotted quad or localhost)";
        return -1;
    }

    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return fail("cannot create TCP socket");
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        ::close(fd);
        return fail("cannot bind " + address);
    }
    if (::listen(fd, 64) != 0) {
        ::close(fd);
        return fail("cannot listen on " + address);
    }
    if (!setNonBlocking(fd)) {
        ::close(fd);
        return fail("cannot make TCP listener non-blocking");
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound),
                      &len) == 0 && port_out)
        *port_out = ntohs(bound.sin_port);
    return fd;
}

} // namespace

void
DaemonStatsSnapshot::accumulate(const DaemonStatsSnapshot &other)
{
    connections += other.connections;
    disconnects += other.disconnects;
    idleCloses += other.idleCloses;
    acceptFailures += other.acceptFailures;
    requests += other.requests;
    badRequests += other.badRequests;
    immediate += other.immediate;
    jobsAdmitted += other.jobsAdmitted;
    jobsCompleted += other.jobsCompleted;
    jobsFailed += other.jobsFailed;
    rejectedOverloaded += other.rejectedOverloaded;
    rejectedQuota += other.rejectedQuota;
    rejectedDraining += other.rejectedDraining;
    writeErrors += other.writeErrors;
    progressEvents += other.progressEvents;
    deadlineExceeded += other.deadlineExceeded;
    cancelled += other.cancelled;
    slowReaderCloses += other.slowReaderCloses;
    watchdogFlags += other.watchdogFlags;
    subscribes += other.subscribes;
    eventsEmitted += other.eventsEmitted;
    eventsDropped += other.eventsDropped;
    queued += other.queued;
    running += other.running;
    clients += other.clients;
}

void
DaemonStatsSnapshot::writeJsonFields(std::ostream &os) const
{
    bool first = true;
    writeField(os, "connections", connections, first);
    writeField(os, "disconnects", disconnects, first);
    writeField(os, "idle_closes", idleCloses, first);
    writeField(os, "accept_failures", acceptFailures, first);
    writeField(os, "requests", requests, first);
    writeField(os, "bad_requests", badRequests, first);
    writeField(os, "immediate", immediate, first);
    writeField(os, "jobs_admitted", jobsAdmitted, first);
    writeField(os, "jobs_completed", jobsCompleted, first);
    writeField(os, "jobs_failed", jobsFailed, first);
    writeField(os, "rejected_overloaded", rejectedOverloaded, first);
    writeField(os, "rejected_quota", rejectedQuota, first);
    writeField(os, "rejected_draining", rejectedDraining, first);
    writeField(os, "write_errors", writeErrors, first);
    writeField(os, "progress_events", progressEvents, first);
    writeField(os, "deadline_exceeded", deadlineExceeded, first);
    writeField(os, "cancelled", cancelled, first);
    writeField(os, "slow_reader_closes", slowReaderCloses, first);
    writeField(os, "watchdog_flags", watchdogFlags, first);
    writeField(os, "subscribes", subscribes, first);
    writeField(os, "events_emitted", eventsEmitted, first);
    writeField(os, "events_dropped", eventsDropped, first);
    writeField(os, "queued", queued, first);
    writeField(os, "running", running, first);
    writeField(os, "clients", clients, first);
}

DaemonServer::DaemonServer(DaemonConfig config)
    : config_(std::move(config)),
      session_(config_.session),
      dispatcher_(session_, suite_)
{
    size_t shard_count = std::max<size_t>(1, config_.shards);
    shards_.reserve(shard_count);
    for (size_t i = 0; i < shard_count; ++i)
        shards_.push_back(
            std::make_unique<Shard>(i, shard_count, config_));
    runningByShard_.assign(shard_count, 0);
    cluster_.configure(config_.session.traceCacheDir,
                       config_.clusterStaleMs);
}

DaemonServer::~DaemonServer()
{
    // run() normally tears everything down; this path covers start()
    // without run() (a failed test setup) and start() failures.
    if (executor_.joinable()) {
        {
            std::lock_guard<std::mutex> lock(jobMutex_);
            executorStop_ = true;
        }
        jobCv_.notify_all();
        executor_.join();
    }
    for (auto &shard : shards_) {
        if (shard->thread.joinable())
            shard->thread.join();
        for (auto &[fd, client] : shard->clients)
            ::close(fd);
        if (shard->wakeRead >= 0)
            ::close(shard->wakeRead);
        int wfd = shard->wakeWrite.exchange(-1);
        if (wfd >= 0)
            ::close(wfd);
    }
    if (listenFd_ >= 0)
        ::close(listenFd_);
    if (tcpListenFd_ >= 0)
        ::close(tcpListenFd_);
    if (socketBound_)
        ::unlink(config_.socketPath.c_str());
}

bool
DaemonServer::start(std::string *error)
{
    auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg + " (" + std::strerror(errno) + ")";
        return false;
    };

    if (config_.socketPath.empty()) {
        if (error)
            *error = "daemon needs a socket path";
        return false;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.socketPath.size() >= sizeof(addr.sun_path)) {
        if (error)
            *error = "socket path too long: " + config_.socketPath;
        return false;
    }
    std::strncpy(addr.sun_path, config_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);

    // Writes to a client that vanished must be an error return on the
    // write, never a process-killing SIGPIPE.
    ::signal(SIGPIPE, SIG_IGN);

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        return fail("cannot create socket");
    ::unlink(config_.socketPath.c_str());  // replace a stale socket
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        return fail("cannot bind " + config_.socketPath);
    socketBound_ = true;
    if (::listen(listenFd_, 64) != 0)
        return fail("cannot listen on " + config_.socketPath);
    if (!setNonBlocking(listenFd_))
        return fail("cannot make listener non-blocking");

    if (!config_.listenAddress.empty()) {
        tcpListenFd_ = openTcpListener(config_.listenAddress, &tcpPort_,
                                       error);
        if (tcpListenFd_ < 0)
            return false;
    }

    for (auto &shard : shards_) {
        int pipe_fds[2];
        if (::pipe(pipe_fds) != 0)
            return fail("cannot create wake pipe");
        shard->wakeRead = pipe_fds[0];
        shard->wakeWrite.store(pipe_fds[1]);
        setNonBlocking(shard->wakeRead);
        setNonBlocking(pipe_fds[1]);
    }

    executor_ = std::thread([this] { executorLoop(); });
    started_ = true;
    // Join the shared-cache cluster: the membership file exists from
    // the first moment a peer could aggregate us.
    cluster_.publish(statsFields());
    return true;
}

void
DaemonServer::requestShutdown()
{
    // Async-signal-safe: plain loads and one write() per shard; a
    // full pipe already holds a pending wake.
    for (auto &shard : shards_) {
        int fd = shard->wakeWrite.load(std::memory_order_relaxed);
        if (fd < 0)
            continue;
        char tag = 'T';
        [[maybe_unused]] ssize_t n = ::write(fd, &tag, 1);
    }
}

void
DaemonServer::wakeShard(Shard &shard, char tag)
{
    int fd = shard.wakeWrite.load(std::memory_order_relaxed);
    if (fd < 0)
        return;
    [[maybe_unused]] ssize_t n = ::write(fd, &tag, 1);
}

// ---------------------------------------------------------------- //
//                        executor thread                           //
// ---------------------------------------------------------------- //

void
DaemonServer::executorLoop()
{
    for (;;) {
        std::vector<Job> batch;
        std::vector<Job> expired;
        {
            std::unique_lock<std::mutex> lock(jobMutex_);
            jobCv_.wait(lock, [&] {
                return executorStop_ || !jobQueue_.empty();
            });
            if (jobQueue_.empty() && executorStop_)
                return;
            // One runner batch per pull: enough jobs to fill every
            // lane, small enough that a drain converges quickly. A
            // job already past its deadline never consumes a lane —
            // it is answered deadline_exceeded instead (the executor
            // double-checks what the timer sweep may have missed
            // between poll wakeups).
            uint64_t now = nowNs();
            size_t lanes =
                std::max<size_t>(1, session_.runner().jobs());
            while (!jobQueue_.empty() && batch.size() < lanes) {
                Job job = std::move(jobQueue_.front());
                jobQueue_.pop_front();
                if (job.deadlineNs != 0 && now >= job.deadlineNs)
                    expired.push_back(std::move(job));
                else
                    batch.push_back(std::move(job));
            }
            for (const Job &job : batch)
                ++runningByShard_[job.shard];
        }
        std::vector<bool> involved(shards_.size(), false);
        if (telemetry::kEnabled && !batch.empty()) {
            // Started notices cross to each job's OWNING shard (which
            // owns the journal and the subscriber fan-out for that
            // job's client) like completions do.
            for (const Job &job : batch) {
                JobEvent event;
                event.tsNs = telemetry::nowNs();
                event.kind = JobEventKind::Started;
                event.requestId = job.req.id;
                event.traceId = job.traceId;
                event.clientSerial = job.clientSerial;
                event.cmd = job.req.cmd;
                event.workload = job.req.workload;
                Shard &shard = *shards_[job.shard];
                std::lock_guard<std::mutex> lock(shard.startedMutex);
                shard.startedEvents.push_back(std::move(event));
            }
        }
        for (Job &job : expired) {
            JobOutcome outcome;
            outcome.ok = false;
            outcome.code = ErrorCode::DeadlineExceeded;
            outcome.error = "deadline exceeded while queued";
            Shard &shard = *shards_[job.shard];
            {
                std::lock_guard<std::mutex> lock(shard.completionMutex);
                shard.completions.push_back(
                    {job.shard, job.clientSerial, job.req.id,
                     job.req.cmd, std::move(outcome), job.admitNs,
                     job.deadlineNs, job.traceId, job.req.workload});
            }
            involved[job.shard] = true;
        }
        if (batch.empty()) {
            for (size_t i = 0; i < shards_.size(); ++i)
                if (involved[i])
                    wakeShard(*shards_[i], 'C');
            continue;
        }

        execBatchSeq_.fetch_add(1, std::memory_order_relaxed);
        execBatchStartNs_.store(nowNs(), std::memory_order_relaxed);
        // Nudge the shards this batch belongs to (Started events) and
        // shard 0 (its watchdog deadline only enters computeTimeoutMs
        // once its loop spins again).
        for (const Job &job : batch)
            involved[job.shard] = true;
        involved[0] = true;
        for (size_t i = 0; i < shards_.size(); ++i)
            if (involved[i])
                wakeShard(*shards_[i], 'C');
        std::vector<JobOutcome> outcomes(batch.size());
        session_.runner().forEach(batch.size(), [&](size_t i) {
            // Every span recorded while this job runs — vm.interpret,
            // trace.replay, eval.* — carries its trace id, so one
            // request's full span tree falls out of the Perfetto
            // trace by filtering args.trace_id.
            telemetry::ScopedTraceId trace_scope(batch[i].traceId);
            VPPROF_TIMED_SPAN("daemon.job");
            // Latency/fault injection per dispatched job: Delay makes
            // fire() itself sleep (the job runs late but correct).
            if (FailpointRegistry::instance().fire("daemon.dispatch") !=
                FailpointAction::None) {
                outcomes[i].ok = false;
                outcomes[i].code = ErrorCode::Internal;
                outcomes[i].error = "injected dispatch fault";
                return;
            }
            outcomes[i] = dispatcher_.execute(batch[i].req);
        });
        execBatchStartNs_.store(0, std::memory_order_relaxed);

        // Completions post BEFORE running drops, so a shard that sees
        // running == 0 under jobMutex_ cannot miss a completion that
        // is still in flight (shardDrainComplete checks in that order).
        for (size_t i = 0; i < batch.size(); ++i) {
            Shard &shard = *shards_[batch[i].shard];
            std::lock_guard<std::mutex> lock(shard.completionMutex);
            shard.completions.push_back(
                {batch[i].shard, batch[i].clientSerial, batch[i].req.id,
                 batch[i].req.cmd, std::move(outcomes[i]),
                 batch[i].admitNs, batch[i].deadlineNs,
                 batch[i].traceId, batch[i].req.workload});
        }
        {
            std::lock_guard<std::mutex> lock(jobMutex_);
            for (const Job &job : batch)
                --runningByShard_[job.shard];
        }
        for (size_t i = 0; i < shards_.size(); ++i)
            if (involved[i])
                wakeShard(*shards_[i], 'C');
    }
}

// ---------------------------------------------------------------- //
//                         event loops                              //
// ---------------------------------------------------------------- //

int
DaemonServer::run()
{
    if (!started_)
        vpprof_panic("DaemonServer::run() before start()");

    for (size_t i = 1; i < shards_.size(); ++i) {
        Shard *shard = shards_[i].get();
        shard->thread = std::thread([this, shard] { shardLoop(*shard); });
    }
    shardLoop(*shards_[0]);
    for (size_t i = 1; i < shards_.size(); ++i)
        shards_[i]->thread.join();

    // Every shard quiesced: every admitted job was answered (or its
    // client vanished) and every buffer AND subscriber ring flushed.
    {
        std::lock_guard<std::mutex> lock(jobMutex_);
        executorStop_ = true;
    }
    jobCv_.notify_all();
    executor_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    if (tcpListenFd_ >= 0) {
        ::close(tcpListenFd_);
        tcpListenFd_ = -1;
    }
    if (socketBound_) {
        ::unlink(config_.socketPath.c_str());
        socketBound_ = false;
    }
    // A final heartbeat with the drained totals: a peer's
    // cluster-stats keeps counting this process until the stamp ages
    // out, exactly long enough for a post-mortem aggregate.
    cluster_.publish(statsFields());
    // The whole point of a *graceful* drain: a SIGTERM-initiated exit
    // still writes complete --metrics-out / --trace-json files even
    // though no atexit handler will run before _exit in some
    // embeddings. Once, after the LAST shard's counters stopped
    // moving — flushing when shard 0 alone quiesced would snapshot
    // other shards mid-drain.
    telemetry::flushOutputs();
    return 0;
}

void
DaemonServer::shardLoop(Shard &shard)
{
    std::vector<pollfd> fds;
    std::vector<int> client_fds;
    while (true) {
        fds.clear();
        client_fds.clear();
        fds.push_back({shard.wakeRead, POLLIN, 0});
        size_t unix_idx = SIZE_MAX, tcp_idx = SIZE_MAX;
        if (shard.index == 0 && !shard.draining) {
            if (listenFd_ >= 0) {
                unix_idx = fds.size();
                fds.push_back({listenFd_, POLLIN, 0});
            }
            if (tcpListenFd_ >= 0) {
                tcp_idx = fds.size();
                fds.push_back({tcpListenFd_, POLLIN, 0});
            }
        }
        size_t clients_base = fds.size();
        for (auto &[fd, client] : shard.clients) {
            short events = POLLIN;
            if (client.outOff < client.outBuf.size())
                events |= POLLOUT;
            fds.push_back({fd, events, 0});
            client_fds.push_back(fd);
        }

        uint64_t now = nowNs();
        int rc = ::poll(fds.data(),
                        static_cast<nfds_t>(fds.size()),
                        computeTimeoutMs(shard, now));
        if (rc < 0 && errno != EINTR)
            vpprof_panic("poll failed: ", std::strerror(errno));
        now = nowNs();

        if (fds[0].revents & POLLIN) {
            char buf[64];
            ssize_t n;
            bool drain_requested = false;
            while ((n = ::read(shard.wakeRead, buf, sizeof(buf))) > 0)
                for (ssize_t i = 0; i < n; ++i)
                    drain_requested |= buf[i] == 'T';
            if (drain_requested)
                beginDrain(shard);
        }

        adoptHandoff(shard);
        drainStartedEvents(shard);
        drainCompletions(shard);
        if (shard.index == 0)
            pollRecoveryEvents(shard);

        if (unix_idx != SIZE_MAX && (fds[unix_idx].revents & POLLIN))
            acceptClients(shard, listenFd_);
        if (tcp_idx != SIZE_MAX && (fds[tcp_idx].revents & POLLIN))
            acceptClients(shard, tcpListenFd_);

        for (size_t i = 0; i < client_fds.size(); ++i) {
            int fd = client_fds[i];
            short revents = fds[clients_base + i].revents;
            if (revents == 0 || !shard.clients.count(fd))
                continue;
            if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
                // POLLHUP with readable data still delivers POLLIN
                // first on Linux; by the time HUP arrives alone the
                // peer is gone for good.
                if (!(revents & POLLIN)) {
                    closeClient(shard, fd);
                    continue;
                }
            }
            if (revents & POLLOUT) {
                flushClient(shard, shard.clients.at(fd));
                // Freed backlog may admit pending telemetry lines.
                if (shard.clients.count(fd))
                    pumpSubscriber(shard, shard.clients.at(fd));
            }
            if (shard.clients.count(fd) && (revents & POLLIN))
                readClient(shard, fd);
        }

        handleTimers(shard, now);

        if (shard.draining) {
            // Keep forcing pending subscriber lines toward the socket
            // while quiescing: the drain contract includes the rings.
            flushSubscriberRings(shard);
            if (shardDrainComplete(shard))
                break;
        }
    }

    while (!shard.clients.empty())
        closeClient(shard, shard.clients.begin()->first);
}

void
DaemonServer::beginDrain(Shard &shard)
{
    if (shard.draining)
        return;
    shard.draining = true;
    if (shard.index == 0) {
        size_t queued;
        {
            std::lock_guard<std::mutex> lock(jobMutex_);
            queued = jobQueue_.size();
        }
        vpprof_inform("vpprofd: draining (", queued, " queued jobs, ",
                      shards_.size(), " shards)");
        // Refuse new connections immediately: close + unlink so fresh
        // connects fail fast instead of queueing in the backlog.
        if (listenFd_ >= 0) {
            ::close(listenFd_);
            listenFd_ = -1;
        }
        if (tcpListenFd_ >= 0) {
            ::close(tcpListenFd_);
            tcpListenFd_ = -1;
        }
        if (socketBound_) {
            ::unlink(config_.socketPath.c_str());
            socketBound_ = false;
        }
    }
    flushSubscriberRings(shard);
}

void
DaemonServer::flushSubscriberRings(Shard &shard)
{
    std::vector<int> fds;
    for (auto &[fd, client] : shard.clients)
        if (client.sub && !client.sub->ring.empty())
            fds.push_back(fd);
    for (int fd : fds) {
        auto it = shard.clients.find(fd);
        if (it == shard.clients.end())
            continue;  // a previous flush dropped this client
        Client &client = it->second;
        // Unlike pumpSubscriber, ignore the backlog bound: the ring
        // holds at most subscriberRingCap lines, and drain must not
        // complete while any of them is undelivered.
        while (!client.sub->ring.empty()) {
            client.outBuf += client.sub->ring.front();
            client.outBuf += '\n';
            ++client.sub->delivered;
            client.sub->ring.pop_front();
        }
        flushClient(shard, client);
    }
}

bool
DaemonServer::shardDrainComplete(Shard &shard)
{
    {
        std::lock_guard<std::mutex> lock(jobMutex_);
        if (runningByShard_[shard.index] != 0)
            return false;
        for (const Job &job : jobQueue_)
            if (job.shard == shard.index)
                return false;
    }
    {
        std::lock_guard<std::mutex> lock(shard.completionMutex);
        if (!shard.completions.empty())
            return false;
    }
    {
        std::lock_guard<std::mutex> lock(shard.startedMutex);
        if (!shard.startedEvents.empty())
            return false;
    }
    for (const auto &[fd, client] : shard.clients) {
        if (client.outOff < client.outBuf.size())
            return false;
        if (client.sub && !client.sub->ring.empty())
            return false;
    }
    return true;
}

int
DaemonServer::computeTimeoutMs(Shard &shard, uint64_t now_ns)
{
    // While draining, completions and writability drive the loop; a
    // short tick only backstops the final quiescence check.
    if (shard.draining)
        return 20;

    uint64_t next = UINT64_MAX;
    bool progress_wanted = false;
    for (const auto &[fd, client] : shard.clients) {
        if (!client.progressIds.empty())
            progress_wanted = true;
        // Span/metrics subscribers are driven off the same tick.
        if (client.sub && (client.sub->filter.spans ||
                           client.sub->filter.metrics))
            progress_wanted = true;
        if (config_.idleTimeoutMs > 0 && client.inflight == 0)
            next = std::min(next, client.lastActivityNs +
                                      config_.idleTimeoutMs * 1'000'000);
    }
    if (progress_wanted)
        next = std::min(next, shard.lastProgressTickNs +
                                  config_.progressIntervalMs * 1'000'000);
    {
        // Queued deadlines must wake the loop even when no socket is
        // readable — an expired job is answered by the timer sweep of
        // its OWNING shard.
        std::lock_guard<std::mutex> lock(jobMutex_);
        for (const Job &job : jobQueue_)
            if (job.shard == shard.index && job.deadlineNs != 0)
                next = std::min(next, job.deadlineNs);
    }
    if (shard.index == 0) {
        if (config_.watchdogMs > 0) {
            uint64_t start =
                execBatchStartNs_.load(std::memory_order_relaxed);
            if (start != 0)
                next = std::min(next,
                                start + config_.watchdogMs * 1'000'000);
        }
        if (telemetry::kEnabled && !config_.metricsListenPath.empty())
            next = std::min(next,
                            shard.lastMetricsExportNs +
                                config_.metricsListenIntervalMs *
                                    1'000'000);
        if (cluster_.enabled())
            next = std::min(next,
                            shard.lastClusterPublishNs +
                                config_.clusterHeartbeatMs * 1'000'000);
    }
    if (next == UINT64_MAX)
        return -1;
    if (next <= now_ns)
        return 0;
    return static_cast<int>(
        std::min<uint64_t>((next - now_ns) / 1'000'000 + 1, 60'000));
}

void
DaemonServer::adoptHandoff(Shard &shard)
{
    std::vector<int> adopted;
    {
        std::lock_guard<std::mutex> lock(shard.handoffMutex);
        adopted.swap(shard.handoff);
    }
    for (int fd : adopted)
        adoptClient(shard, fd);
}

void
DaemonServer::adoptClient(Shard &shard, int fd)
{
    Client client;
    client.fd = fd;
    client.serial = shard.nextClientSerial;
    shard.nextClientSerial += shards_.size();
    client.lastActivityNs = nowNs();
    shard.clientFdBySerial[client.serial] = fd;
    shard.clients.emplace(fd, std::move(client));
    shard.clientCount.store(shard.clients.size(),
                            std::memory_order_relaxed);
    shard.counters.connections.add();
}

void
DaemonServer::acceptClients(Shard &shard, int listen_fd)
{
    for (;;) {
        int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK ||
                errno == ECONNABORTED)
                break;
            shard.counters.acceptFailures.add();
            vpprof_warn_limited(4, "vpprofd: accept failed: ",
                                std::strerror(errno));
            break;
        }
        // Deterministic socket-level fault: a connection the kernel
        // accepted but the daemon could not adopt.
        if (FailpointRegistry::instance().fire("daemon.accept") !=
            FailpointAction::None) {
            shard.counters.acceptFailures.add();
            ::close(fd);
            continue;
        }
        if (!setNonBlocking(fd)) {
            shard.counters.acceptFailures.add();
            ::close(fd);
            continue;
        }
        // Round-robin handoff: connection k lands on shard k % N, a
        // deterministic placement the shard tests rely on. The target
        // shard adopts the fd on its own thread; only the mailbox is
        // shared.
        size_t target = rrNext_++ % shards_.size();
        if (target == shard.index) {
            adoptClient(shard, fd);
        } else {
            Shard &dest = *shards_[target];
            {
                std::lock_guard<std::mutex> lock(dest.handoffMutex);
                dest.handoff.push_back(fd);
            }
            wakeShard(dest, 'H');
        }
    }
}

void
DaemonServer::readClient(Shard &shard, int fd)
{
    Client &client = shard.clients.at(fd);
    char buf[4096];
    for (;;) {
        ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n > 0) {
            client.inBuf.append(buf, static_cast<size_t>(n));
            client.lastActivityNs = nowNs();
            if (static_cast<ssize_t>(sizeof(buf)) != n)
                break;
            continue;
        }
        if (n == 0) {
            closeClient(shard, fd);
            return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        closeClient(shard, fd);
        return;
    }

    // Frame complete lines; a request longer than maxLineBytes is a
    // protocol violation answered, then the connection is dropped.
    size_t start = 0;
    for (;;) {
        if (!shard.clients.count(fd))
            return;  // handleLine drained into a close
        size_t nl = client.inBuf.find('\n', start);
        if (nl == std::string::npos)
            break;
        std::string line = client.inBuf.substr(start, nl - start);
        start = nl + 1;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        if (line.size() > config_.maxLineBytes) {
            shard.counters.badRequests.add();
            sendLine(shard, client,
                     errorResponseLine(0, ErrorCode::BadRequest,
                                       "request line too long"));
            closeClient(shard, fd);
            return;
        }
        handleLine(shard, client, line);
    }
    client.inBuf.erase(0, start);
    if (client.inBuf.size() > config_.maxLineBytes) {
        shard.counters.badRequests.add();
        sendLine(shard, client,
                 errorResponseLine(0, ErrorCode::BadRequest,
                                   "request line too long"));
        closeClient(shard, fd);
    }
}

void
DaemonServer::handleLine(Shard &shard, Client &client,
                         const std::string &line)
{
    shard.counters.requests.add();
    std::string error;
    uint64_t id = 0;
    std::optional<Request> req = parseRequest(line, &error, &id);
    if (!req) {
        shard.counters.badRequests.add();
        sendLine(shard, client,
                 errorResponseLine(id, ErrorCode::BadRequest, error));
        return;
    }

    // Every request carries a trace id from here on: the client's own
    // if it sent one, a shard-minted (striped, daemon-unique) one
    // otherwise. It is echoed on every line emitted for this request
    // and tags the job's spans.
    if (req->traceId == 0) {
        req->traceId = shard.nextTraceId;
        shard.nextTraceId += shards_.size();
    }

    if (!commandIsJob(req->cmd)) {
        shard.counters.immediate.add();
        switch (req->cmd) {
          case Command::Ping:
            sendLine(shard, client,
                     okResponseLine(req->id, req->cmd, "",
                                    req->traceId));
            break;
          case Command::Stats:
            sendLine(shard, client,
                     okResponseLine(req->id, req->cmd, statsFields(),
                                    req->traceId));
            break;
          case Command::ClusterStats:
            handleClusterStats(shard, client, *req);
            break;
          case Command::Shutdown:
            sendLine(shard, client,
                     okResponseLine(req->id, req->cmd, "",
                                    req->traceId));
            // THIS shard drains synchronously — a job pipelined
            // behind `shutdown` in the same read burst must already
            // see `draining` — and the broadcast wake byte carries
            // the drain to every other shard.
            beginDrain(shard);
            requestShutdown();
            break;
          case Command::Cancel:
            handleCancel(shard, client, *req);
            break;
          case Command::Subscribe:
            handleSubscribe(shard, client, *req);
            break;
          case Command::Metrics:
            handleMetrics(shard, client, *req);
            break;
          case Command::Journal:
            handleJournal(shard, client, *req);
            break;
          default:
            break;
        }
        return;
    }

    {
        JobEvent event;
        event.kind = JobEventKind::Received;
        event.requestId = req->id;
        event.traceId = req->traceId;
        event.clientSerial = client.serial;
        event.cmd = req->cmd;
        event.workload = req->workload;
        recordJobEvent(shard, std::move(event));
    }
    handleJobRequest(shard, client, *req);
}

void
DaemonServer::rejectShedding(Shard &shard, Client &client,
                             const Request &req, ErrorCode code,
                             const std::string &detail)
{
    size_t queued;
    {
        std::lock_guard<std::mutex> lock(jobMutex_);
        queued = jobQueue_.size();
        for (size_t running : runningByShard_)
            queued += running;
    }
    switch (code) {
      case ErrorCode::Overloaded:
        shard.counters.rejectedOverloaded.add();
        break;
      case ErrorCode::Quota:
        shard.counters.rejectedQuota.add();
        break;
      case ErrorCode::Draining:
        shard.counters.rejectedDraining.add();
        break;
      default:
        break;
    }
    {
        JobEvent event;
        event.kind = JobEventKind::Rejected;
        event.requestId = req.id;
        event.traceId = req.traceId;
        event.clientSerial = client.serial;
        event.cmd = req.cmd;
        event.workload = req.workload;
        event.detail = errorCodeName(code);
        event.queued = queued;
        recordJobEvent(shard, std::move(event));
    }
    // The hint scales with the backlog the daemon can actually see:
    // an empty queue says "come right back", a deep one says wait.
    uint64_t hint = config_.retryHintMs + 2 * queued;
    sendLine(shard, client,
             rejectionResponseLine(
                 req.id, code,
                 detail + " (" + std::to_string(queued) +
                     " admitted); retry with backoff",
                 hint, queued, req.traceId));
}

void
DaemonServer::handleCancel(Shard &shard, Client &client,
                           const Request &req)
{
    // Only the caller's own QUEUED job is cancellable; a running job
    // finishes (its completion still settles quota/progress state).
    std::optional<Job> removed;
    {
        std::lock_guard<std::mutex> lock(jobMutex_);
        for (auto it = jobQueue_.begin(); it != jobQueue_.end(); ++it) {
            if (it->clientSerial == client.serial &&
                it->req.id == req.cancelTarget) {
                removed = std::move(*it);
                jobQueue_.erase(it);
                break;
            }
        }
    }
    // Answer the cancel FIRST: a synchronous client is waiting for
    // this id, and the cancelled target's error line follows it.
    sendLine(shard, client,
             okResponseLine(req.id, req.cmd,
                            removed ? "\"cancelled\": true"
                                    : "\"cancelled\": false",
                            req.traceId));
    if (removed)
        settleDeadJob(shard, *removed, ErrorCode::Cancelled,
                      "cancelled by client");
}

void
DaemonServer::handleSubscribe(Shard &shard, Client &client,
                              const Request &req)
{
    if (!telemetry::kEnabled) {
        // Degraded mode (VPPROF_TELEMETRY=OFF): the command still
        // parses and answers — explicitly not subscribed, so clients
        // can tell "no events will ever come" from a hang.
        sendLine(shard, client,
                 okResponseLine(req.id, req.cmd,
                                "\"subscribed\": false, "
                                "\"degraded\": true",
                                req.traceId));
        return;
    }
    std::string error;
    std::optional<SubscriberFilter> filter =
        parseEventFilter(req.subEvents, &error);
    if (!filter) {
        shard.counters.badRequests.add();
        sendLine(shard, client,
                 errorResponseLine(req.id, ErrorCode::BadRequest, error,
                                   req.traceId));
        return;
    }
    filter->sampleRate = req.sampleRate;
    Subscription sub;
    sub.filter = *filter;
    client.sub.emplace(std::move(sub));
    shard.counters.subscribes.add();
    // Span streaming needs the tracer recording; arm it on demand.
    // It stays armed after the subscriber leaves (recording is cheap
    // and --trace-json may want the events anyway).
    if (filter->spans)
        telemetry::SpanTracer::instance().enable();
    std::ostringstream os;
    os << "\"subscribed\": true, \"events\": \"" << filter->spec()
       << "\", \"sample_rate\": "
       << report::formatJsonNumber(filter->sampleRate)
       << ", \"ring\": " << config_.subscriberRingCap
       << ", \"shard\": " << shard.index;
    sendLine(shard, client,
             okResponseLine(req.id, req.cmd, os.str(), req.traceId));
}

void
DaemonServer::handleMetrics(Shard &shard, Client &client,
                            const Request &req)
{
    // A live snapshot: merged across every thread's shards, never
    // flushed or reset — scraping is free of observable side effects.
    std::ostringstream os;
    os << "\"telemetry_enabled\": "
       << (telemetry::kEnabled ? "true" : "false") << ", ";
    if (req.format == "prometheus") {
        os << "\"text\": "
           << report::quoteJsonString(
                  telemetry::prometheusText(
                      telemetry::snapshotMetrics()));
    } else {
        os << "\"metrics\": ";
        telemetry::snapshotMetrics().writeJson(os);
    }
    sendLine(shard, client,
             okResponseLine(req.id, req.cmd, os.str(), req.traceId));
}

void
DaemonServer::handleJournal(Shard &shard, Client &client,
                            const Request &req)
{
    // The journal is SHARD-LOCAL by design (no cross-shard locking on
    // the serving path): a connection reads the lifecycle history of
    // the shard it landed on; the `shard` member says which that is.
    std::ostringstream os;
    if (!telemetry::kEnabled) {
        os << "\"degraded\": true, \"shard\": " << shard.index
           << ", \"total\": 0, \"retained\": 0, \"events\": []";
    } else {
        os << "\"shard\": " << shard.index
           << ", \"total\": " << shard.journal.totalPushed()
           << ", \"retained\": " << shard.journal.size()
           << ", \"events\": "
           << shard.journal.renderJsonArray(req.limit);
    }
    sendLine(shard, client,
             okResponseLine(req.id, req.cmd, os.str(), req.traceId));
}

void
DaemonServer::handleClusterStats(Shard &shard, Client &client,
                                 const Request &req)
{
    // Publish-then-aggregate: our own member file is refreshed first,
    // so two processes cross-querying each other both see current
    // numbers. ClusterBoard writes via atomic rename and scans via
    // directory read, both safe against the shard-0 heartbeat running
    // concurrently on another thread.
    std::string self = statsFields();
    cluster_.publish(self);
    sendLine(shard, client,
             okResponseLine(req.id, req.cmd,
                            cluster_.aggregateFields(self),
                            req.traceId));
}

void
DaemonServer::recordJobEvent(Shard &shard, JobEvent event)
{
    if (!telemetry::kEnabled)
        return;
    event.seq = shard.eventSeq;
    shard.eventSeq += shards_.size();
    if (event.tsNs == 0)
        event.tsNs = telemetry::nowNs();
    shard.counters.eventsEmitted.add();
    // Mirror into the Perfetto trace as an instant event when tracing
    // is armed: the job's lifecycle markers sit on the same time axis
    // as its executor spans, joined by trace_id.
    if (telemetry::SpanTracer::instance().enabled())
        telemetry::SpanTracer::instance().recordInstant(
            std::string("job.") + jobEventKindName(event.kind),
            event.tsNs, event.traceId);
    bool have_subscriber = false;
    for (const auto &[fd, c] : shard.clients) {
        if (c.sub && c.sub->filter.lifecycle) {
            have_subscriber = true;
            break;
        }
    }
    std::string line;
    if (have_subscriber)
        line = jobEventJson(event);  // rendered ONCE, shared by all
    shard.journal.push(std::move(event));
    if (have_subscriber)
        fanToSubscribers(shard, line, [](const Subscription &sub) {
            return sub.filter.lifecycle;
        });
}

void
DaemonServer::drainStartedEvents(Shard &shard)
{
    if (!telemetry::kEnabled)
        return;
    std::deque<JobEvent> started;
    {
        std::lock_guard<std::mutex> lock(shard.startedMutex);
        started.swap(shard.startedEvents);
    }
    for (JobEvent &event : started)
        recordJobEvent(shard, std::move(event));
}

template <typename Pick>
void
DaemonServer::fanToSubscribers(Shard &shard, const std::string &line,
                               Pick pick)
{
    std::vector<int> fds;
    for (const auto &[fd, c] : shard.clients)
        if (c.sub && pick(*c.sub))
            fds.push_back(fd);
    for (int fd : fds) {
        auto it = shard.clients.find(fd);
        if (it == shard.clients.end())
            continue;  // a previous push's flush dropped this client
        Subscription &sub = *it->second.sub;
        // Deterministic downsampling: the accumulator gains
        // sample_rate per matching event and delivers on crossing 1,
        // so a rate of 0.25 delivers exactly every 4th event.
        sub.sampleAcc += sub.filter.sampleRate;
        if (sub.sampleAcc < 1.0)
            continue;
        sub.sampleAcc -= 1.0;
        pushToSubscriber(shard, it->second, line);
    }
}

void
DaemonServer::pushToSubscriber(Shard &shard, Client &client,
                               const std::string &line)
{
    Subscription &sub = *client.sub;
    if (sub.ring.size() >= config_.subscriberRingCap) {
        // Shed the OLDEST pending event: a subscriber that cannot
        // keep up sees a gap (counted in events_dropped and its own
        // `dropped`), never a stalled daemon or unbounded memory.
        sub.ring.pop_front();
        ++sub.dropped;
        shard.counters.eventsDropped.add();
    }
    sub.ring.push_back(line);
    pumpSubscriber(shard, client);
}

void
DaemonServer::pumpSubscriber(Shard &shard, Client &client)
{
    if (!client.sub)
        return;
    Subscription &sub = *client.sub;
    bool appended = false;
    while (!sub.ring.empty()) {
        size_t backlog = client.outBuf.size() - client.outOff;
        const std::string &line = sub.ring.front();
        // Telemetry never pushes the backlog past the slow-reader
        // bound: pending events WAIT in the bounded ring (overflow
        // drops the oldest) instead of growing outBuf into a
        // disconnect. Responses always have room ahead of telemetry.
        if (backlog + line.size() + 1 > config_.maxClientOutBufBytes)
            break;
        client.outBuf += line;
        client.outBuf += '\n';
        ++sub.delivered;
        sub.ring.pop_front();
        appended = true;
    }
    if (appended)
        flushClient(shard, client);
}

bool
DaemonServer::haveSpanSubscriber(const Shard &shard) const
{
    for (const auto &[fd, c] : shard.clients)
        if (c.sub && c.sub->filter.spans)
            return true;
    return false;
}

void
DaemonServer::streamSpans(Shard &shard)
{
    if (!telemetry::kEnabled || !haveSpanSubscriber(shard))
        return;
    std::vector<telemetry::SpanTracer::StreamedEvent> events;
    telemetry::SpanTracer::instance().collectNew(shard.spanCursors,
                                                 events, 512);
    for (const auto &e : events) {
        std::ostringstream os;
        os << "{\"event\": \"telemetry\", \"kind\": \"span\", "
              "\"name\": \"";
        telemetry::writeJsonEscaped(os, e.name);
        os << "\", \"ts_ns\": " << e.startNs << ", \"dur_ns\": "
           << (e.endNs - e.startNs) << ", \"tid\": " << e.tid;
        if (e.traceId != 0)
            os << ", \"trace_id\": " << e.traceId;
        if (e.instant)
            os << ", \"instant\": true";
        os << "}";
        std::string line = os.str();
        fanToSubscribers(shard, line, [](const Subscription &sub) {
            return sub.filter.spans;
        });
    }
}

void
DaemonServer::pollRecoveryEvents(Shard &shard)
{
    if (!telemetry::kEnabled)
        return;
    // Trace-cache self-healing (PR 3's quarantine + regeneration)
    // becomes visible in the event stream: any counter movement since
    // the last look is narrated as one Recovery event. Shard 0 only —
    // the repository counters are session-wide, and one narrator
    // means one event per healing episode, not one per shard.
    TraceRepoStats stats = session_.traces().stats();
    if (stats.regenerations == shard.lastRegenerations &&
        stats.corruptQuarantined == shard.lastQuarantined)
        return;
    JobEvent event;
    event.kind = JobEventKind::Recovery;
    std::ostringstream os;
    os << "regenerations+"
       << (stats.regenerations - shard.lastRegenerations)
       << " quarantined+"
       << (stats.corruptQuarantined - shard.lastQuarantined);
    event.detail = os.str();
    shard.lastRegenerations = stats.regenerations;
    shard.lastQuarantined = stats.corruptQuarantined;
    recordJobEvent(shard, std::move(event));
}

void
DaemonServer::settleDeadJob(Shard &shard, const Job &job,
                            ErrorCode code, const std::string &detail)
{
    if (code == ErrorCode::Cancelled)
        shard.counters.cancelled.add();
    else if (code == ErrorCode::DeadlineExceeded)
        shard.counters.deadlineExceeded.add();
    {
        JobEvent event;
        event.kind = code == ErrorCode::Cancelled
                         ? JobEventKind::Cancelled
                         : JobEventKind::Deadline;
        event.requestId = job.req.id;
        event.traceId = job.traceId;
        event.clientSerial = job.clientSerial;
        event.cmd = job.req.cmd;
        event.workload = job.req.workload;
        event.detail = detail;
        recordJobEvent(shard, std::move(event));
    }
    auto it = shard.clientFdBySerial.find(job.clientSerial);
    if (it == shard.clientFdBySerial.end())
        return;
    Client &client = shard.clients.at(it->second);
    if (client.inflight > 0)
        --client.inflight;
    client.progressIds.erase(job.req.id);
    sendLine(shard, client,
             errorResponseLine(job.req.id, code, detail, job.traceId));
}

void
DaemonServer::handleJobRequest(Shard &shard, Client &client,
                               const Request &req)
{
    if (shard.draining) {
        rejectShedding(shard, client, req, ErrorCode::Draining,
                       "daemon is shutting down");
        return;
    }
    if (client.inflight >= config_.maxInflightPerClient) {
        rejectShedding(shard, client, req, ErrorCode::Quota,
                       "client in-flight quota reached (" +
                           std::to_string(
                               config_.maxInflightPerClient) +
                           ")");
        return;
    }
    bool enqueued = false;
    size_t admitted = 0;
    uint64_t now = nowNs();
    {
        std::lock_guard<std::mutex> lock(jobMutex_);
        admitted = jobQueue_.size();
        for (size_t running : runningByShard_)
            admitted += running;
        if (admitted < config_.maxQueue) {
            uint64_t deadline =
                req.deadlineMs > 0
                    ? now + req.deadlineMs * 1'000'000
                    : 0;
            jobQueue_.push_back({shard.index, client.serial, req, now,
                                 deadline, req.traceId});
            ++admitted;
            enqueued = true;
        }
    }
    if (!enqueued) {
        rejectShedding(shard, client, req, ErrorCode::Overloaded,
                       "admission queue full (" +
                           std::to_string(config_.maxQueue) +
                           " jobs)");
        return;
    }
    ++client.inflight;
    shard.counters.jobsAdmitted.add();
    {
        JobEvent event;
        event.kind = JobEventKind::Admitted;
        event.requestId = req.id;
        event.traceId = req.traceId;
        event.clientSerial = client.serial;
        event.cmd = req.cmd;
        event.workload = req.workload;
        event.queued = admitted;
        recordJobEvent(shard, std::move(event));
    }
    if (req.progress) {
        client.progressIds.insert(req.id);
        std::ostringstream os;
        os << "\"queued\": " << admitted;
        sendLine(shard, client,
                 eventLine(req.id, "accepted", os.str(), req.traceId));
    }
    jobCv_.notify_one();
}

void
DaemonServer::drainCompletions(Shard &shard)
{
    std::deque<Completion> done;
    {
        std::lock_guard<std::mutex> lock(shard.completionMutex);
        done.swap(shard.completions);
    }
    for (Completion &c : done) {
        // A result arriving past its deadline is not served late: the
        // client contracted for an answer by deadline_ms and gets the
        // structured failure instead (the work itself still warmed
        // the shared caches).
        if (c.outcome.ok && c.deadlineNs != 0 &&
            nowNs() >= c.deadlineNs) {
            c.outcome.ok = false;
            c.outcome.code = ErrorCode::DeadlineExceeded;
            c.outcome.error = "completed after deadline";
            c.outcome.resultFields.clear();
        }
        if (c.outcome.ok)
            shard.counters.jobsCompleted.add();
        else if (c.outcome.code == ErrorCode::DeadlineExceeded)
            shard.counters.deadlineExceeded.add();
        else
            shard.counters.jobsFailed.add();
        uint64_t latency_ns = nowNs() - c.admitNs;
        shard.counters.observeJobLatencyUs(latency_ns / 1000);
        if (telemetry::kEnabled) {
            // Mirror burn increments into the registry so a
            // Prometheus scrape can alert on them; the tracker's own
            // counters stay the `stats` source of truth. The lock
            // only fences off statsFields() aggregating from another
            // shard's thread.
            std::lock_guard<std::mutex> lock(shard.sloMutex);
            uint64_t lat0 = shard.slo.latencyBurns();
            uint64_t err0 = shard.slo.errorBurns();
            shard.slo.observe(static_cast<double>(latency_ns) / 1e6,
                              c.outcome.ok);
            if (uint64_t d = shard.slo.latencyBurns() - lat0)
                shard.counters.sloLatencyBurns.add(d);
            if (uint64_t d = shard.slo.errorBurns() - err0)
                shard.counters.sloErrorBurns.add(d);
        }
        {
            JobEvent event;
            event.kind = c.outcome.ok
                             ? JobEventKind::Completed
                             : (c.outcome.code ==
                                        ErrorCode::DeadlineExceeded
                                    ? JobEventKind::Deadline
                                    : JobEventKind::Failed);
            event.requestId = c.requestId;
            event.traceId = c.traceId;
            event.clientSerial = c.clientSerial;
            event.cmd = c.cmd;
            event.workload = c.workload;
            if (!c.outcome.ok)
                event.detail = c.outcome.error;
            recordJobEvent(shard, std::move(event));
        }

        auto it = shard.clientFdBySerial.find(c.clientSerial);
        if (it == shard.clientFdBySerial.end())
            continue;  // client vanished; the job still ran to completion
        Client &client = shard.clients.at(it->second);
        if (client.inflight > 0)
            --client.inflight;
        client.progressIds.erase(c.requestId);
        if (c.outcome.ok)
            sendLine(shard, client,
                     okResponseLine(c.requestId, c.cmd,
                                    c.outcome.resultFields, c.traceId));
        else
            sendLine(shard, client,
                     errorResponseLine(c.requestId, c.outcome.code,
                                       c.outcome.error, c.traceId));
    }
}

void
DaemonServer::expireQueuedJobs(Shard &shard, uint64_t now_ns)
{
    // Deadline sweep over the admission queue: this shard's expired
    // jobs are answered deadline_exceeded HERE, before they ever
    // reach the executor — an expired request must not consume a
    // runner lane. Each shard sweeps only its own jobs (settlement
    // touches the owning shard's client maps).
    std::vector<Job> expired;
    {
        std::lock_guard<std::mutex> lock(jobMutex_);
        for (auto it = jobQueue_.begin(); it != jobQueue_.end();) {
            if (it->shard == shard.index && it->deadlineNs != 0 &&
                now_ns >= it->deadlineNs) {
                expired.push_back(std::move(*it));
                it = jobQueue_.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (const Job &job : expired)
        settleDeadJob(shard, job, ErrorCode::DeadlineExceeded,
                      "deadline exceeded while queued (" +
                          std::to_string(job.req.deadlineMs) + " ms)");
}

void
DaemonServer::handleTimers(Shard &shard, uint64_t now_ns)
{
    expireQueuedJobs(shard, now_ns);

    if (shard.index == 0) {
        // Watchdog: flag an executor batch that has been running
        // longer than watchdogMs — once per batch, so a genuinely
        // stuck job shows up in telemetry without spamming the log
        // every tick. One flagger (shard 0), one flag per batch.
        if (config_.watchdogMs > 0) {
            uint64_t start =
                execBatchStartNs_.load(std::memory_order_relaxed);
            uint64_t seq =
                execBatchSeq_.load(std::memory_order_relaxed);
            if (start != 0 && seq != shard.watchdogFlaggedSeq &&
                now_ns > start &&
                now_ns - start > config_.watchdogMs * 1'000'000) {
                shard.watchdogFlaggedSeq = seq;
                shard.counters.watchdogFlags.add();
                vpprof_warn("vpprofd: executor batch ", seq,
                            " running > ", config_.watchdogMs,
                            " ms (stuck job?)");
            }
        }

        // Periodic Prometheus export (vpprofd --metrics-listen): a
        // point-in-time file any scraper can collect, committed
        // atomically so a concurrent read never sees a torn
        // exposition.
        if (telemetry::kEnabled &&
            !config_.metricsListenPath.empty() &&
            now_ns - shard.lastMetricsExportNs >=
                config_.metricsListenIntervalMs * 1'000'000) {
            shard.lastMetricsExportNs = now_ns;
            telemetry::writePrometheusFile(config_.metricsListenPath);
        }

        // Cluster heartbeat: refresh this process's stats file in the
        // shared trace cache so peers' cluster-stats keep counting us.
        if (cluster_.enabled() &&
            now_ns - shard.lastClusterPublishNs >=
                config_.clusterHeartbeatMs * 1'000'000) {
            shard.lastClusterPublishNs = now_ns;
            cluster_.publish(statsFields());
        }
    }

    // Progress events for subscribed jobs, at the configured cadence.
    if (now_ns - shard.lastProgressTickNs >=
        config_.progressIntervalMs * 1'000'000) {
        shard.lastProgressTickNs = now_ns;
        size_t queued, running;
        {
            std::lock_guard<std::mutex> lock(jobMutex_);
            queued = jobQueue_.size();
            running = 0;
            for (size_t r : runningByShard_)
                running += r;
        }
        if (queued + running > 0) {
            TraceRepoStats st = session_.traces().stats();
            std::ostringstream os;
            os << "\"queued\": " << queued << ", \"running\": "
               << running << ", ";
            st.writeJsonFields(os);
            std::string fields = os.str();
            std::vector<int> to_notify;
            for (auto &[fd, client] : shard.clients)
                if (!client.progressIds.empty())
                    to_notify.push_back(fd);
            for (int fd : to_notify) {
                if (!shard.clients.count(fd))
                    continue;
                Client &client = shard.clients.at(fd);
                std::set<uint64_t> ids = client.progressIds;
                for (uint64_t id : ids) {
                    if (!shard.clients.count(fd))
                        break;
                    shard.counters.progressEvents.add();
                    sendLine(shard, shard.clients.at(fd),
                             eventLine(id, "progress", fields));
                }
            }
        }

        // Telemetry streaming rides the same tick: newly recorded
        // spans to span subscribers, a live snapshot to metrics
        // subscribers.
        streamSpans(shard);
        if (telemetry::kEnabled) {
            bool want_metrics = false;
            for (const auto &[fd, client] : shard.clients) {
                if (client.sub && client.sub->filter.metrics) {
                    want_metrics = true;
                    break;
                }
            }
            if (want_metrics) {
                std::ostringstream os;
                os << "{\"event\": \"telemetry\", \"kind\": "
                      "\"metrics\", \"ts_ns\": " << telemetry::nowNs()
                   << ", \"metrics\": ";
                telemetry::snapshotMetrics().writeJson(os);
                os << "}";
                std::string line = os.str();
                fanToSubscribers(shard, line,
                                 [](const Subscription &sub) {
                                     return sub.filter.metrics;
                                 });
            }
        }
    }

    // Idle closes: no complete request and nothing in flight.
    if (config_.idleTimeoutMs == 0)
        return;
    std::vector<int> idle;
    for (auto &[fd, client] : shard.clients) {
        // A subscriber is a deliberate long-lived listener, never
        // idle; lastActivityNs can postdate now_ns (accepted after
        // this loop iteration captured the clock): not idle.
        if (!client.sub && client.inflight == 0 &&
            client.outOff >= client.outBuf.size() &&
            now_ns > client.lastActivityNs &&
            now_ns - client.lastActivityNs >
                config_.idleTimeoutMs * 1'000'000)
            idle.push_back(fd);
    }
    for (int fd : idle)
        closeClient(shard, fd, /*counted_idle=*/true);
}

void
DaemonServer::sendLine(Shard &shard, Client &client,
                       const std::string &line)
{
    client.outBuf += line;
    client.outBuf += '\n';
    flushClient(shard, client);
}

void
DaemonServer::flushClient(Shard &shard, Client &client)
{
    int fd = client.fd;
    while (client.outOff < client.outBuf.size()) {
        // Deterministic socket-level write fault.
        if (FailpointRegistry::instance().fire("daemon.write") !=
            FailpointAction::None) {
            shard.counters.writeErrors.add();
            closeClient(shard, fd);
            return;
        }
        ssize_t n = ::write(fd, client.outBuf.data() + client.outOff,
                            client.outBuf.size() - client.outOff);
        if (n > 0) {
            client.outOff += static_cast<size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            // Slow reader: the kernel buffer is full AND our backlog
            // for this client exceeds the bound. Waiting longer only
            // grows daemon memory at the reader's pace — drop it.
            if (client.outBuf.size() - client.outOff >
                config_.maxClientOutBufBytes) {
                shard.counters.slowReaderCloses.add();
                vpprof_warn_limited(
                    4, "vpprofd: dropping slow reader (",
                    client.outBuf.size() - client.outOff,
                    " bytes unflushed)");
                closeClient(shard, fd);
                return;
            }
            return;  // wait for POLLOUT
        }
        if (n < 0 && errno == EINTR)
            continue;
        shard.counters.writeErrors.add();
        closeClient(shard, fd);
        return;
    }
    client.outBuf.clear();
    client.outOff = 0;
}

void
DaemonServer::closeClient(Shard &shard, int fd, bool counted_idle)
{
    auto it = shard.clients.find(fd);
    if (it == shard.clients.end())
        return;
    uint64_t serial = it->second.serial;
    shard.clientFdBySerial.erase(serial);
    shard.clients.erase(it);
    shard.clientCount.store(shard.clients.size(),
                            std::memory_order_relaxed);
    // Count before closing: a client that sees EOF and then reads the
    // stats must already find its disconnect counted.
    shard.counters.disconnects.add();
    if (counted_idle)
        shard.counters.idleCloses.add();
    ::close(fd);

    // Cancel the departed client's QUEUED jobs: nobody is left to
    // read the answers, so running them only burns executor lanes
    // other clients are waiting for. Running jobs finish (the
    // executor owns them); their completions are dropped on arrival.
    // Serials are daemon-unique (striped), so matching by serial only
    // ever removes this shard's jobs.
    std::vector<Job> purged;
    {
        std::lock_guard<std::mutex> lock(jobMutex_);
        for (auto jit = jobQueue_.begin(); jit != jobQueue_.end();) {
            if (jit->clientSerial == serial) {
                purged.push_back(std::move(*jit));
                jit = jobQueue_.erase(jit);
            } else {
                ++jit;
            }
        }
    }
    for (const Job &job : purged) {
        shard.counters.cancelled.add();
        JobEvent event;
        event.kind = JobEventKind::Cancelled;
        event.requestId = job.req.id;
        event.traceId = job.traceId;
        event.clientSerial = serial;
        event.cmd = job.req.cmd;
        event.workload = job.req.workload;
        event.detail = "client disconnected";
        recordJobEvent(shard, std::move(event));
    }
}

DaemonStatsSnapshot
DaemonServer::shardStatsSnapshot(size_t shard_index) const
{
    const Shard &shard = *shards_.at(shard_index);
    const ShardCounters &c = shard.counters;
    DaemonStatsSnapshot st;
    st.connections = c.connections.value();
    st.disconnects = c.disconnects.value();
    st.idleCloses = c.idleCloses.value();
    st.acceptFailures = c.acceptFailures.value();
    st.requests = c.requests.value();
    st.badRequests = c.badRequests.value();
    st.immediate = c.immediate.value();
    st.jobsAdmitted = c.jobsAdmitted.value();
    st.jobsCompleted = c.jobsCompleted.value();
    st.jobsFailed = c.jobsFailed.value();
    st.rejectedOverloaded = c.rejectedOverloaded.value();
    st.rejectedQuota = c.rejectedQuota.value();
    st.rejectedDraining = c.rejectedDraining.value();
    st.writeErrors = c.writeErrors.value();
    st.progressEvents = c.progressEvents.value();
    st.deadlineExceeded = c.deadlineExceeded.value();
    st.cancelled = c.cancelled.value();
    st.slowReaderCloses = c.slowReaderCloses.value();
    st.watchdogFlags = c.watchdogFlags.value();
    st.subscribes = c.subscribes.value();
    st.eventsEmitted = c.eventsEmitted.value();
    st.eventsDropped = c.eventsDropped.value();
    {
        std::lock_guard<std::mutex> lock(jobMutex_);
        for (const Job &job : jobQueue_)
            if (job.shard == shard_index)
                ++st.queued;
        st.running = runningByShard_[shard_index];
    }
    st.clients = shard.clientCount.load(std::memory_order_relaxed);
    return st;
}

DaemonStatsSnapshot
DaemonServer::statsSnapshot() const
{
    DaemonStatsSnapshot total;
    for (size_t i = 0; i < shards_.size(); ++i)
        total.accumulate(shardStatsSnapshot(i));
    return total;
}

std::string
DaemonServer::statsFields()
{
    // ONE serializer for every stats surface: the daemon block uses
    // DaemonStatsSnapshot::writeJsonFields over the accumulated
    // per-shard snapshots, the trace block reuses
    // TraceRepoStats::writeJsonFields — exactly what --stats-json and
    // BENCH_session.json print. The slo block aggregates the
    // per-shard trackers (copied under their locks) the same way
    // cluster-stats later aggregates processes: sums for monotone
    // counters, worst-shard for window readings.
    DaemonStatsSnapshot daemon_stats = statsSnapshot();
    TraceRepoStats repo_stats = session_.traces().stats();
    std::vector<SloTracker> slos;
    slos.reserve(shards_.size());
    for (auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->sloMutex);
        slos.push_back(shard->slo);
    }
    std::ostringstream os;
    os << "\"shards\": " << shards_.size() << ", \"daemon\": {";
    daemon_stats.writeJsonFields(os);
    os << "}, \"slo\": {";
    writeAggregateSloFields(os, slos);
    os << "}, \"log\": {\"warnings_emitted\": " << warningsEmitted()
       << ", \"warnings_suppressed\": " << warningsSuppressed()
       << "}, \"trace\": " << repoStatsJson(repo_stats);
    return os.str();
}

} // namespace daemon
} // namespace vpprof
