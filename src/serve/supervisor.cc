#include "serve/supervisor.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mmgpu::serve
{

ShardSupervisor::ShardSupervisor(const SupervisorOptions &options)
    : options_(options)
{
    if (options_.maxStrikes == 0)
        options_.maxStrikes = 1;
    if (options_.backoffBaseMs == 0)
        options_.backoffBaseMs = 1;
    if (options_.backoffCapMs < options_.backoffBaseMs)
        options_.backoffCapMs = options_.backoffBaseMs;
}

ShardSupervisor::Outcome
ShardSupervisor::onCrash(unsigned shard, std::uint64_t fingerprint,
                         const std::string &message,
                         std::uint64_t wall_ms)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++crashes_;

    unsigned strike = ++strikes_[fingerprint];

    Outcome outcome;
    outcome.strike = strike;
    if (strike >= options_.maxStrikes) {
        outcome.verdict = CrashVerdict::Poison;
        quarantine_.insert(fingerprint);
        ++poisonings_;
    } else {
        outcome.verdict = CrashVerdict::Requeue;
        ++requeues_;
    }

    // Per-shard exponential backoff: doubles per consecutive crash,
    // reset by the first clean job (onHealthy).
    std::uint64_t &backoff = shardBackoffMs_[shard];
    backoff = backoff == 0
                  ? options_.backoffBaseMs
                  : std::min(backoff * 2, options_.backoffCapMs);
    outcome.backoffMs = backoff;
    backoffMsTotal_ += backoff;

    SupervisorEvent event;
    event.wallMs = wall_ms;
    event.shard = shard;
    event.fingerprint = fingerprint;
    event.strike = strike;
    event.verdict = outcome.verdict;
    event.message = message;
    events_.push_back(std::move(event));
    while (events_.size() > options_.eventLogCap)
        events_.pop_front();

    return outcome;
}

void
ShardSupervisor::onHealthy(unsigned shard)
{
    std::lock_guard<std::mutex> lock(mutex_);
    shardBackoffMs_.erase(shard);
}

bool
ShardSupervisor::quarantined(std::uint64_t fingerprint) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return quarantine_.count(fingerprint) != 0;
}

SupervisorStats
ShardSupervisor::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    SupervisorStats stats;
    stats.crashes = crashes_;
    stats.requeues = requeues_;
    stats.poisonings = poisonings_;
    stats.quarantined = quarantine_.size();
    stats.backoffMsTotal = backoffMsTotal_;
    return stats;
}

std::vector<SupervisorEvent>
ShardSupervisor::events() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return {events_.begin(), events_.end()};
}

CircuitBreaker::CircuitBreaker(std::size_t classes,
                               const BreakerOptions &options)
    : options_(options), classes_(classes)
{
    if (options_.window == 0)
        options_.window = 1;
    if (options_.minSamples == 0)
        options_.minSamples = 1;
    for (ClassState &state : classes_)
        state.ring.assign(options_.window, 0);
}

void
CircuitBreaker::resetLocked(ClassState &state) const
{
    state.ring.assign(options_.window, 0);
    state.head = 0;
    state.count = 0;
    state.errors = 0;
    state.openUntilMs = 0;
}

void
CircuitBreaker::record(std::size_t cls, bool ok,
                       std::uint64_t wall_ms)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (cls >= classes_.size())
        return;
    ClassState &state = classes_[cls];

    // Close (with a clean slate) once the cooldown elapsed; while
    // open, in-flight stragglers must not re-trip the fresh window.
    if (state.openUntilMs != 0) {
        if (wall_ms < state.openUntilMs)
            return;
        resetLocked(state);
    }

    std::uint8_t leaving = state.ring[state.head];
    std::uint8_t entering = ok ? 0 : 1;
    if (state.count == options_.window)
        state.errors -= leaving;
    else
        ++state.count;
    state.ring[state.head] = entering;
    state.head = (state.head + 1) % options_.window;
    state.errors += entering;

    if (state.count >= options_.minSamples &&
        static_cast<double>(state.errors) >=
            options_.tripRatio * static_cast<double>(state.count)) {
        state.openUntilMs = wall_ms + options_.cooldownMs;
        ++trips_;
    }
}

bool
CircuitBreaker::open(std::size_t cls, std::uint64_t wall_ms) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (cls >= classes_.size())
        return false;
    const ClassState &state = classes_[cls];
    return state.openUntilMs != 0 && wall_ms < state.openUntilMs;
}

std::uint64_t
CircuitBreaker::retryAfterMs(std::size_t cls,
                             std::uint64_t wall_ms) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (cls >= classes_.size())
        return 0;
    const ClassState &state = classes_[cls];
    if (state.openUntilMs == 0 || wall_ms >= state.openUntilMs)
        return 0;
    return state.openUntilMs - wall_ms;
}

std::uint64_t
CircuitBreaker::trips() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return trips_;
}

} // namespace mmgpu::serve
