#include "serve/admission.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace mmgpu::serve
{

namespace
{

/** Ceiling on any Retry-After hint we hand out. */
constexpr std::uint64_t maxRetryHintMs = 30000;

/** Shed-hint pace assumed before noteServiced() has any samples. */
constexpr double fallbackServiceMs = 250.0;

} // namespace

AdmissionQueue::AdmissionQueue(std::size_t max_depth)
    : AdmissionQueue([max_depth] {
          AdmissionOptions options;
          options.maxDepth = max_depth;
          return options;
      }())
{
}

AdmissionQueue::AdmissionQueue(const AdmissionOptions &options)
    : options_(options)
{
    mmgpu_assert(options_.maxDepth > 0,
                 "admission queue needs depth > 0");
    mmgpu_assert(options_.quotaRatePerSec >= 0.0,
                 "negative quota rate");
    options_.shedWatermark =
        std::clamp(options_.shedWatermark, 0.0, 1.0);
}

Admit
AdmissionQueue::tryPush(Request request, std::int64_t now_ms,
                        std::uint64_t *retry_after_ms)
{
    if (retry_after_ms != nullptr)
        *retry_after_ms = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopped_.load())
            return Admit::Stopped;

        // Gate 1: per-client token bucket.
        if (options_.quotaRatePerSec > 0.0) {
            Bucket &bucket = buckets_[request.client];
            if (bucket.lastMs == 0 && bucket.tokens == 0.0)
                bucket.tokens = options_.quotaBurst; // first sight
            double refill =
                static_cast<double>(now_ms - bucket.lastMs) / 1000.0 *
                options_.quotaRatePerSec;
            if (refill > 0.0)
                bucket.tokens = std::min(options_.quotaBurst,
                                         bucket.tokens + refill);
            bucket.lastMs = now_ms;
            if (bucket.tokens < 1.0) {
                quotaRejected_.fetch_add(1);
                if (retry_after_ms != nullptr) {
                    // Virtual queue: each rejection reserves its own
                    // future token slot, so a burst of rejected
                    // requests gets staggered hints instead of all
                    // thundering back at the same instant and losing
                    // to the same empty bucket again.
                    double per_token_ms =
                        1000.0 / options_.quotaRatePerSec;
                    double ready_ms =
                        static_cast<double>(now_ms) +
                        (1.0 - bucket.tokens) * per_token_ms;
                    double slot_ms = std::max(
                        ready_ms, bucket.promisedUntilMs);
                    bucket.promisedUntilMs = slot_ms + per_token_ms;
                    *retry_after_ms = std::min(
                        maxRetryHintMs,
                        static_cast<std::uint64_t>(std::ceil(
                            slot_ms -
                            static_cast<double>(now_ms))));
                }
                return Admit::QuotaExceeded;
            }
            bucket.tokens -= 1.0;
        }

        // Gate 2: shed batch-tier work past the high-water mark.
        std::size_t watermark = static_cast<std::size_t>(
            options_.shedWatermark *
            static_cast<double>(options_.maxDepth));
        if (request.priority >= 2 && queue_.size() >= watermark &&
            watermark < options_.maxDepth) {
            shedRejected_.fetch_add(1);
            if (retry_after_ms != nullptr) {
                double pace = serviceEwmaMs_ > 0.0 ? serviceEwmaMs_
                                                   : fallbackServiceMs;
                double excess = static_cast<double>(
                    queue_.size() - watermark + 1);
                *retry_after_ms = std::min(
                    maxRetryHintMs,
                    static_cast<std::uint64_t>(
                        std::ceil(excess * pace)));
            }
            return Admit::Shedding;
        }

        // Gate 3: hard depth bound.
        if (queue_.size() >= options_.maxDepth) {
            rejected_.fetch_add(1);
            if (retry_after_ms != nullptr) {
                double pace = serviceEwmaMs_ > 0.0 ? serviceEwmaMs_
                                                   : fallbackServiceMs;
                *retry_after_ms = std::min(
                    maxRetryHintMs,
                    static_cast<std::uint64_t>(std::ceil(pace)));
            }
            return Admit::QueueFull;
        }

        Job job;
        job.ticket = nextTicket_++;
        job.admittedMs = now_ms;
        int priority = request.priority;
        job.request = std::move(request);
        queue_.emplace(std::make_pair(priority, job.ticket),
                       std::move(job));
        accepted_.fetch_add(1);
        cv_.notify_one();
    }
    return Admit::Accepted;
}

bool
AdmissionQueue::requeue(Job job)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopped_.load())
            return false;
        int priority = job.request.priority;
        std::uint64_t ticket = job.ticket;
        queue_.emplace(std::make_pair(priority, ticket),
                       std::move(job));
        requeued_.fetch_add(1);
        cv_.notify_one();
    }
    return true;
}

std::optional<Job>
AdmissionQueue::pop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock,
             [this] { return stopped_.load() || !queue_.empty(); });
    if (queue_.empty())
        return std::nullopt; // stopped and drained
    auto first = queue_.begin();
    Job job = std::move(first->second);
    queue_.erase(first);
    job.take = ++takes_;
    return job;
}

void
AdmissionQueue::noteServiced(std::int64_t service_ms)
{
    if (service_ms < 0)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    double sample = static_cast<double>(service_ms);
    serviceEwmaMs_ = serviceEwmaMs_ == 0.0
                         ? sample
                         : serviceEwmaMs_ + (sample - serviceEwmaMs_) / 8.0;
}

void
AdmissionQueue::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopped_.store(true);
        cv_.notify_all();
    }
}

std::size_t
AdmissionQueue::depth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
}

} // namespace mmgpu::serve
