#include "common/logging.hh"

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <utility>

namespace mmgpu
{

namespace
{

// The harness runs simulations on worker threads (ParallelRunner);
// reporting must neither tear the enable flag nor interleave lines.
std::atomic<bool> informEnabled{true};
std::mutex &
logMutex()
{
    static std::mutex mutex;
    return mutex;
}

/** What a panic throws inside catchPanic(); nothing else catches it. */
struct Crash
{
    std::string message;
};

/** Depth of the catchPanic() scopes open on this thread. */
thread_local int catchDepth = 0;

} // namespace

void
setInformEnabled(bool enabled)
{
    informEnabled.store(enabled, std::memory_order_relaxed);
}

std::optional<std::string>
catchPanic(const std::function<void()> &body)
{
    struct Depth
    {
        Depth() { ++catchDepth; }
        ~Depth() { --catchDepth; }
        Depth(const Depth &) = delete;
        Depth &operator=(const Depth &) = delete;
    } depth;
    try {
        body();
    } catch (Crash &crash) {
        return std::move(crash.message);
    }
    return std::nullopt;
}

namespace detail
{

void
panicImpl(const char *file, int line, const std::string &msg)
{
    {
        std::lock_guard<std::mutex> lock(logMutex());
        std::cerr << "panic: " << msg << "\n  @ " << file << ":"
                  << line << std::endl;
    }
    if (catchDepth > 0)
        throw Crash{msg};
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    {
        std::lock_guard<std::mutex> lock(logMutex());
        std::cerr << "fatal: " << msg << "\n  @ " << file << ":"
                  << line << std::endl;
    }
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    std::lock_guard<std::mutex> lock(logMutex());
    std::cerr << "warn: " << msg << std::endl;
}

void
informImpl(const std::string &msg)
{
    if (!informEnabled.load(std::memory_order_relaxed))
        return;
    std::lock_guard<std::mutex> lock(logMutex());
    std::cerr << "info: " << msg << std::endl;
}

} // namespace detail

} // namespace mmgpu
