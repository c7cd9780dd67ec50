/**
 * @file
 * Bounded priority admission queue of the simulation service.
 *
 * Admission is the service's backpressure point, with three gates
 * checked in order:
 *
 *  1. *Per-client quota* — a token bucket per client id (wire field
 *     `client`, defaulting to the connection) refilled at
 *     quotaRatePerSec up to quotaBurst. A client out of tokens is
 *     rejected with QuotaExceeded and a Retry-After hint naming its
 *     own reserved refill slot (rejections form a virtual queue, one
 *     refill period apart), so one flooding client cannot consume
 *     the whole queue while a light client starves — and its retries
 *     come back staggered rather than in lockstep.
 *  2. *Load shedding* — past shedWatermark × maxDepth pending jobs,
 *     low-priority work (priority >= 2, the batch tier) is shed with
 *     a Retry-After hint derived from the observed per-job service
 *     pace (EWMA fed by noteServiced()), keeping headroom for
 *     interactive probes during overload.
 *  3. *Depth bound* — the queue holds at most `maxDepth` pending
 *     requests; a push against a full queue is rejected immediately
 *     rather than blocking the socket reader or growing memory
 *     without bound.
 *
 * Within the bound, ordering is strict priority (0 = high, 1 =
 * normal, 2 = batch) with FIFO among equals, implemented as a map
 * keyed on (priority, admission ticket) so a flood of batch work can
 * never starve an interactive probe. Work re-queued after a shard
 * crash re-enters through requeue(), which bypasses every gate: the
 * job was already accepted once, and dropping it would turn a
 * supervised crash into a client-visible error.
 */

#ifndef MMGPU_SERVE_ADMISSION_HH
#define MMGPU_SERVE_ADMISSION_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/thread_safety.hh"
#include "serve/request.hh"

namespace mmgpu::serve
{

/** One admitted request, stamped with its admission order and time. */
struct Job
{
    Request request;
    std::uint64_t ticket = 0;    //!< admission order (FIFO tiebreak)
    std::int64_t admittedMs = 0; //!< wallclock::nowMs() at admission
    std::uint64_t take = 0;      //!< 1-based pop order, set by pop()
};

/** Outcome of an admission attempt. */
enum class Admit : std::uint8_t
{
    Accepted,      //!< queued; a worker will pick it up
    QueueFull,     //!< bounded depth exceeded — reject, don't block
    QuotaExceeded, //!< this client's token bucket is empty
    Shedding,      //!< overloaded; low-priority work is shed
    Stopped,       //!< the service is shutting down
};

/** Admission policy knobs beyond the depth bound. */
struct AdmissionOptions
{
    /** Bound on pending jobs (> 0). */
    std::size_t maxDepth = 64;

    /** Token-bucket refill per client per second; 0 disables
     *  per-client quotas entirely. */
    double quotaRatePerSec = 0.0;

    /** Token-bucket capacity (burst allowance) per client. */
    double quotaBurst = 16.0;

    /** Depth fraction past which priority >= 2 work is shed. */
    double shedWatermark = 0.85;
};

/** Bounded, priority-ordered, thread-safe admission queue. */
class AdmissionQueue
{
  public:
    /** @param max_depth Bound on pending jobs (> 0); quotas and
     *  shedding keep their defaults (quotas off). */
    explicit AdmissionQueue(std::size_t max_depth);

    explicit AdmissionQueue(const AdmissionOptions &options);

    /**
     * Admit @p request (non-blocking). On Accepted the job is queued
     * and one waiting pop() wakes; every other verdict leaves the
     * queue untouched. When non-null, @p retry_after_ms receives a
     * client backoff hint for QuotaExceeded/Shedding/QueueFull (0
     * for the other verdicts).
     */
    Admit tryPush(Request request, std::int64_t now_ms,
                  std::uint64_t *retry_after_ms = nullptr);

    /**
     * Re-queue crash-recovered work, bypassing depth, quota, and
     * shed gates (it was admitted once already). Keeps the original
     * ticket so the job re-enters at its old position among equals.
     * @return false when the queue is stopped — the caller must
     *         answer the job's sinks itself.
     */
    bool requeue(Job job);

    /**
     * Block until a job is available or the queue is stopped.
     * @return the highest-priority / oldest job, stamped with its
     *         take (pop) index, or nullopt once stopped *and* drained.
     */
    std::optional<Job> pop();

    /**
     * Feed the shed-hint pace estimator: @p service_ms is how long
     * the last completed job took end to end. An EWMA (alpha 1/8)
     * of these turns queue depth into a Retry-After estimate.
     */
    void noteServiced(std::int64_t service_ms);

    /**
     * Stop admitting; wake every blocked pop(). Jobs already queued
     * still drain (pop() keeps returning them) so accepted work is
     * never silently dropped.
     */
    void stop();

    /** True once stop() was called. */
    bool stopped() const { return stopped_.load(); }

    /** Pending jobs right now. */
    std::size_t depth() const;

    /** Jobs accepted since construction. */
    std::uint64_t accepted() const { return accepted_.load(); }

    /** Pushes rejected for depth since construction. */
    std::uint64_t rejected() const { return rejected_.load(); }

    /** Pushes rejected by per-client quotas since construction. */
    std::uint64_t quotaRejected() const
    {
        return quotaRejected_.load();
    }

    /** Pushes shed for overload since construction. */
    std::uint64_t shedRejected() const { return shedRejected_.load(); }

    /** Crash-recovered jobs re-queued since construction. */
    std::uint64_t requeued() const { return requeued_.load(); }

  private:
    /** Token bucket state for one client id. */
    struct Bucket
    {
        double tokens = 0.0;
        std::int64_t lastMs = 0;
        /** Virtual-queue tail: the wall time the latest Retry-After
         *  hint promised a token for. Each rejection reserves the
         *  next slot so a rejected burst retries staggered, one
         *  refill apart, instead of in lockstep. */
        double promisedUntilMs = 0.0;
    };

    AdmissionOptions options_;
    mutable std::mutex mutex_;
    std::condition_variable cv_ MMGPU_GUARDED_BY(mutex_);
    /** (priority, ticket) -> job; map order is the service order. */
    std::map<std::pair<int, std::uint64_t>, Job> queue_
        MMGPU_GUARDED_BY(mutex_);
    std::unordered_map<std::string, Bucket> buckets_
        MMGPU_GUARDED_BY(mutex_);
    std::uint64_t nextTicket_ MMGPU_GUARDED_BY(mutex_) = 0;
    std::uint64_t takes_ MMGPU_GUARDED_BY(mutex_) = 0;
    /** 0 until the first sample. */
    double serviceEwmaMs_ MMGPU_GUARDED_BY(mutex_) = 0.0;
    std::atomic<bool> stopped_{false};
    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<std::uint64_t> quotaRejected_{0};
    std::atomic<std::uint64_t> shedRejected_{0};
    std::atomic<std::uint64_t> requeued_{0};
};

} // namespace mmgpu::serve

#endif // MMGPU_SERVE_ADMISSION_HH
