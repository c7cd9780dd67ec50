#include "serve/socket_server.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/logging.hh"

namespace mmgpu::serve
{

namespace
{

/** poll() slice while stalled, so a shutdown fd is noticed fast. */
constexpr int writePollMs = 100;

/** Smallest line cap an operator may configure; below this even a
 *  bare ping request would not fit. */
constexpr std::size_t minLineCap = 512;

std::uint64_t
envUint(const char *name, std::uint64_t fallback, std::uint64_t lo,
        std::uint64_t hi)
{
    const char *text = std::getenv(name);
    if (text == nullptr || *text == '\0')
        return fallback;
    char *end = nullptr;
    unsigned long long parsed = std::strtoull(text, &end, 0);
    if (end == text || *end != '\0' || parsed < lo || parsed > hi) {
        warn("ignoring ", name, "='", text, "' (want an integer in [",
             lo, ", ", hi, "])");
        return fallback;
    }
    return parsed;
}

} // namespace

SocketServerOptions
SocketServerOptions::fromEnv()
{
    SocketServerOptions options;
    options.lineCap =
        static_cast<std::size_t>(envUint("MMGPU_SERVE_LINE_CAP",
                                         options.lineCap, minLineCap,
                                         maxRequestBytes));
    options.writeBudgetMs = static_cast<int>(
        envUint("MMGPU_SERVE_WRITE_BUDGET_SEC",
                static_cast<std::uint64_t>(options.writeBudgetMs) /
                    1000,
                1, 3600) *
        1000);
    return options;
}

SocketServer::ConnState::~ConnState()
{
    ::close(fd);
}

bool
SocketServer::ConnState::writeLine(const std::string &line)
{
    std::lock_guard<std::mutex> lock(writeMutex);
    if (!alive.load())
        return false;
    std::string framed = line;
    framed.push_back('\n');
    std::size_t written = 0;
    int stalled_ms = 0;
    while (written < framed.size()) {
        // MSG_DONTWAIT: never park a worker thread inside send() — a
        // stalled client must cost its connection, not a shard, and
        // stop() must always be able to wake us via shutdown().
        // MSG_NOSIGNAL: a vanished client must surface as EPIPE, not
        // a process-killing SIGPIPE.
        // writeMutex is held by design: it only serializes writers
        // on ONE connection, the send is non-blocking, and the stall
        // budget below bounds the hold time. No other lock nests
        // with it. (This is the audited survivor of the historical
        // stop-vs-stalled-writer deadlock.)
        ssize_t n = ::send(fd, framed.data() + written, // mmgpu-lint: allow(no-blocking-under-lock)
                           framed.size() - written,
                           MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n > 0) {
            written += static_cast<std::size_t>(n);
            stalled_ms = 0;
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            if (stalled_ms >= writeBudgetMs) {
                // Client stopped reading: drop it. shutdown() also
                // wakes this connection's reader out of recv().
                alive.store(false);
                ::shutdown(fd, SHUT_RDWR);
                return false;
            }
            pollfd pfd{};
            pfd.fd = fd;
            pfd.events = POLLOUT;
            // Bounded by writePollMs and only under this
            // connection's writeMutex — see the send() note above.
            ::poll(&pfd, 1, writePollMs); // mmgpu-lint: allow(no-blocking-under-lock)
            stalled_ms += writePollMs;
            if (!alive.load())
                return false;
            continue;
        }
        alive.store(false);
        return false;
    }
    return true;
}

SocketServer::SocketServer(SimService &service, std::string path,
                           SocketServerOptions options)
    : service_(service), path_(std::move(path)), options_(options)
{
    // Validate even programmatic options: a zero/oversized cap is a
    // config bug, not something to crash or silently obey.
    if (options_.lineCap < minLineCap ||
        options_.lineCap > maxRequestBytes) {
        warn("serve: line cap ", options_.lineCap,
             " out of range; clamping");
        options_.lineCap =
            std::clamp(options_.lineCap, minLineCap, maxRequestBytes);
    }
    if (options_.writeBudgetMs <= 0) {
        warn("serve: non-positive write budget; using 10000 ms");
        options_.writeBudgetMs = 10000;
    }
    chaos_ = std::make_shared<ChaosState>();
    if (options_.faultPlan != nullptr) {
        chaos_->resetEveryWrites =
            options_.faultPlan->serve.connResetEveryWrites;
    }
}

SocketServer::~SocketServer()
{
    stop();
}

Result<void>
SocketServer::start()
{
    mmgpu_assert(!running_, "SocketServer::start() called twice");

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path_.size() >= sizeof(addr.sun_path)) {
        return SimError::config("socket path too long: " + path_);
    }
    std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        return SimError::io(std::string("socket(): ") +
                            std::strerror(errno));
    }
    ::unlink(path_.c_str()); // stale socket file from a dead daemon
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        SimError error = SimError::io("bind(" + path_ +
                                      "): " + std::strerror(errno));
        ::close(listenFd_);
        listenFd_ = -1;
        return error;
    }
    if (::listen(listenFd_, 16) != 0) {
        SimError error = SimError::io(std::string("listen(): ") +
                                      std::strerror(errno));
        ::close(listenFd_);
        listenFd_ = -1;
        ::unlink(path_.c_str());
        return error;
    }
    running_ = true;
    stop_.store(false);

    // Tell the service what front end it is running behind, so
    // `--stats` echoes the enforced caps.
    JsonValue info = JsonValue::object();
    info.set("socket", path_);
    info.set("line-cap", options_.lineCap);
    info.set("write-budget-ms", options_.writeBudgetMs);
    service_.setFrontendInfo(std::move(info));

    acceptor_ = std::thread([this] { acceptLoop(); });
    return Result<void>::success();
}

void
SocketServer::stop()
{
    if (!running_)
        return;
    running_ = false;
    stop_.store(true);
    if (acceptor_.joinable())
        acceptor_.join();
    ::close(listenFd_);
    listenFd_ = -1;

    // Shut every live connection so blocked readers wake with EOF
    // and stalled writers wake with EPIPE. Deliberately NOT under
    // the connection's writeMutex: a stalled writeLine() holds it,
    // and shutdown() on an fd is safe concurrently with send() —
    // taking the mutex here would deadlock stop() against the very
    // writer it is trying to unblock.
    std::map<std::uint64_t, std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        for (const auto &weak : conns_) {
            if (std::shared_ptr<ConnState> conn = weak.lock()) {
                conn->alive.store(false);
                ::shutdown(conn->fd, SHUT_RDWR);
            }
        }
        threads.swap(connThreads_);
        conns_.clear();
        finishedConns_.clear();
    }
    for (auto &[id, thread] : threads)
        if (thread.joinable())
            thread.join();
    ::unlink(path_.c_str());
}

void
SocketServer::acceptLoop()
{
    while (!stop_.load()) {
        // Reap on every pass (the 100 ms poll timeout drives this
        // even with no new connections) so a long-lived daemon
        // serving many short connections never accumulates
        // exited-but-joinable reader threads.
        reapFinished();
        pollfd pfd{};
        pfd.fd = listenFd_;
        pfd.events = POLLIN;
        int ready = ::poll(&pfd, 1, 100);
        if (ready <= 0)
            continue; // timeout (stop_ check) or EINTR
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        accepted_.fetch_add(1);
        auto conn = std::make_shared<ConnState>(
            fd, options_.writeBudgetMs);
        std::lock_guard<std::mutex> lock(connMutex_);
        std::uint64_t id = nextConnId_++;
        conns_.push_back(conn);
        connThreads_.emplace(id, std::thread([this, id, conn] {
                                 connectionLoop(id, conn);
                             }));
    }
}

void
SocketServer::reapFinished()
{
    std::vector<std::thread> finished;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        for (std::uint64_t id : finishedConns_) {
            auto it = connThreads_.find(id);
            if (it == connThreads_.end())
                continue;
            finished.push_back(std::move(it->second));
            connThreads_.erase(it);
        }
        finishedConns_.clear();
        conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                    [](const auto &weak) {
                                        return weak.expired();
                                    }),
                     conns_.end());
    }
    // Join outside connMutex_: the exiting thread's last act is to
    // enqueue its id under that mutex.
    for (std::thread &thread : finished)
        if (thread.joinable())
            thread.join();
}

std::size_t
SocketServer::trackedConnectionThreads() const
{
    std::lock_guard<std::mutex> lock(connMutex_);
    return connThreads_.size();
}

void
SocketServer::maybeInjectReset(ChaosState &chaos,
                               const std::shared_ptr<ConnState> &conn)
{
    if (chaos.resetEveryWrites == 0)
        return;
    std::uint64_t writes = chaos.writes.fetch_add(1) + 1;
    if (writes % chaos.resetEveryWrites != 0)
        return;
    // Hard-close *after* the response went out: the client can still
    // read what is buffered, then hits EOF/EPIPE and must reconnect —
    // exactly the failure a dying NAT or restarted proxy produces.
    chaos.resets.fetch_add(1);
    conn->alive.store(false);
    ::shutdown(conn->fd, SHUT_RDWR);
}

void
SocketServer::connectionLoop(std::uint64_t id,
                             std::shared_ptr<ConnState> conn)
{
    // Per-connection quota identity: requests that do not name a
    // "client" are accounted against their connection.
    const std::string default_client =
        "conn-" + std::to_string(id);
    std::string pending;
    char buffer[4096];
    while (true) {
        ssize_t n = ::recv(conn->fd, buffer, sizeof(buffer), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break; // EOF or error: client is gone

        pending.append(buffer, static_cast<std::size_t>(n));

        // A client streaming garbage without a newline must not
        // balloon daemon memory: cap the partial line too.
        if (pending.find('\n') == std::string::npos &&
            pending.size() > options_.lineCap) {
            conn->writeLine(
                Response::error(
                    "", SimError::parse(
                            "request line exceeds " +
                            std::to_string(options_.lineCap) +
                            " bytes"))
                    .encode());
            break;
        }

        std::size_t start = 0;
        for (std::size_t nl = pending.find('\n', start);
             nl != std::string::npos;
             nl = pending.find('\n', start)) {
            std::string line =
                pending.substr(start, nl - start);
            start = nl + 1;
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (line.empty())
                continue;
            if (line.size() > options_.lineCap) {
                conn->writeLine(
                    Response::error(
                        parseRequestId(line),
                        SimError::parse(
                            "request line exceeds " +
                            std::to_string(options_.lineCap) +
                            " bytes"))
                        .encode());
                continue;
            }
            service_.submitLine(
                line,
                [conn, chaos = chaos_](const Response &response) {
                    if (conn->writeLine(response.encode()))
                        maybeInjectReset(*chaos, conn);
                },
                default_client);
        }
        pending.erase(0, start);
    }
    conn->alive.store(false);
    std::lock_guard<std::mutex> lock(connMutex_);
    finishedConns_.push_back(id);
}

} // namespace mmgpu::serve
