/**
 * @file
 * Unix-domain-socket front end of the simulation service.
 *
 * One JSON document per line, both directions (serve/request.hh).
 * Each accepted connection gets a reader thread that frames lines,
 * enforces the per-request size cap mid-line, and hands complete
 * lines to SimService::submitLine(); responses are written back on
 * whatever worker thread completes them, serialized per connection
 * by a write mutex — so clients may pipeline requests and receive
 * responses out of order (correlate by "id").
 *
 * Failure containment: a malformed line gets an error response, an
 * oversized line gets an error response and the connection dropped,
 * and a client that disappears mid-request (EOF, EPIPE) just has its
 * pending responses discarded — the daemon and the simulation keep
 * running, and the memoized result still serves the next asker. A
 * client that pipelines requests but never reads responses cannot
 * wedge a worker either: response writes are non-blocking with a
 * bounded stall budget, after which the connection is dropped.
 * Finished reader threads are reaped by the accept loop as it runs,
 * so a long-lived daemon serving many short connections does not
 * accumulate joinable threads.
 */

#ifndef MMGPU_SERVE_SOCKET_SERVER_HH
#define MMGPU_SERVE_SOCKET_SERVER_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.hh"
#include "common/thread_safety.hh"
#include "fault/fault_plan.hh"
#include "serve/service.hh"

namespace mmgpu::serve
{

/**
 * Front-end tuning knobs, overridable from the environment so an
 * operator can tighten containment without a rebuild. Both knobs are
 * validated (malformed/out-of-range values warn and keep defaults)
 * and echoed under "frontend" in `--stats`, so the running daemon
 * always reports the caps it actually enforces.
 */
struct SocketServerOptions
{
    /**
     * Per-request line cap enforced by the framing loop, including
     * mid-line (a client streaming garbage without a newline is cut
     * off at this size). Clamped to [512, maxRequestBytes] — the
     * protocol parser enforces maxRequestBytes regardless, so only
     * tightening is meaningful.
     */
    std::size_t lineCap = maxRequestBytes;

    /** Longest a response write may stall on a full socket buffer (a
     *  client that pipelines but never reads) before the connection
     *  is dropped instead of blocking a worker thread. */
    int writeBudgetMs = 10000;

    /** Chaos plan for connection-reset injection (not owned; may be
     *  null). */
    const fault::FaultPlan *faultPlan = nullptr;

    /**
     * Defaults overridden by `MMGPU_SERVE_LINE_CAP` (bytes) and
     * `MMGPU_SERVE_WRITE_BUDGET_SEC` (seconds, converted to ms).
     * Invalid values warn and keep the default.
     */
    static SocketServerOptions fromEnv();
};

/** Accept loop + per-connection line framing over AF_UNIX. */
class SocketServer
{
  public:
    /**
     * @param service Request engine (not owned; outlives the server).
     * @param path Socket filesystem path (< ~100 chars; a stale file
     *        at the path is unlinked on start()).
     * @param options Front-end knobs (validated in the constructor).
     */
    SocketServer(SimService &service, std::string path,
                 SocketServerOptions options = {});

    /** Stops and joins if still running. */
    ~SocketServer();

    SocketServer(const SocketServer &) = delete;
    SocketServer &operator=(const SocketServer &) = delete;

    /** Bind, listen, and spawn the accept loop. */
    Result<void> start();

    /**
     * Stop accepting, shut every live connection, join all threads,
     * and unlink the socket file. Idempotent.
     */
    void stop();

    /** The socket path. */
    const std::string &path() const { return path_; }

    /** Connections accepted since start(). */
    std::uint64_t connectionsAccepted() const
    {
        return accepted_.load();
    }

    /** Reader threads currently tracked (finished ones are reaped
     *  lazily by the accept loop; tests poll this). */
    std::size_t trackedConnectionThreads() const;

    /** The validated knobs this server runs with. */
    const SocketServerOptions &options() const { return options_; }

    /** Injected connection resets performed so far (chaos). */
    std::uint64_t injectedResets() const
    {
        return chaos_->resets.load();
    }

  private:
    /** Per-connection shared state; the fd closes when the last
     *  holder (reader thread or pending response) lets go. */
    struct ConnState
    {
        ConnState(int fd, int write_budget_ms)
            : fd(fd), writeBudgetMs(write_budget_ms)
        {
        }
        ~ConnState();

        /**
         * Write one line; false (and dead) on a broken peer or a
         * client stalled past the write budget. Never blocks
         * indefinitely: sends are non-blocking, waits are bounded
         * poll() slices, and a concurrent shutdown() of the fd (see
         * stop()) wakes the writer immediately.
         */
        bool writeLine(const std::string &line);

        const int fd;
        const int writeBudgetMs;       //!< stall budget (options)
        std::mutex writeMutex;         //!< serializes writers only
        std::atomic<bool> alive{true}; //!< cleared outside the mutex
    };

    void acceptLoop();
    void connectionLoop(std::uint64_t id,
                        std::shared_ptr<ConnState> conn);

    /** Join reader threads that announced exit; prune dead conns. */
    void reapFinished();

    /**
     * Connection-reset chaos state, shared (by shared_ptr) with
     * every response callback: callbacks may outlive the server (a
     * worker can deliver after stop()), so they must never touch
     * `this` — only `conn` and this little block.
     */
    struct ChaosState
    {
        std::uint64_t resetEveryWrites = 0; //!< 0 = disabled
        std::atomic<std::uint64_t> writes{0};
        std::atomic<std::uint64_t> resets{0};
    };

    /** Chaos: hard-close @p conn when the plan says so. */
    static void maybeInjectReset(ChaosState &chaos,
                                 const std::shared_ptr<ConnState> &conn);

    SimService &service_;
    const std::string path_;
    SocketServerOptions options_;
    std::shared_ptr<ChaosState> chaos_;
    int listenFd_ = -1;
    std::thread acceptor_;
    std::atomic<bool> stop_{false};
    std::atomic<std::uint64_t> accepted_{0};
    bool running_ = false;

    mutable std::mutex connMutex_;
    std::uint64_t nextConnId_ MMGPU_GUARDED_BY(connMutex_) = 0;
    std::map<std::uint64_t, std::thread> connThreads_
        MMGPU_GUARDED_BY(connMutex_);
    /** Connection ids awaiting join. */
    std::vector<std::uint64_t> finishedConns_
        MMGPU_GUARDED_BY(connMutex_);
    std::vector<std::weak_ptr<ConnState>> conns_
        MMGPU_GUARDED_BY(connMutex_);
};

} // namespace mmgpu::serve

#endif // MMGPU_SERVE_SOCKET_SERVER_HH
