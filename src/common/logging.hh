/**
 * @file
 * gem5-style status and error reporting.
 *
 * Severity contract (mirrors gem5's logging.hh):
 *  - panic():  an internal invariant was violated — a framework bug.
 *              Aborts so a debugger/core dump can catch it, unless
 *              the thread is inside a catchPanic() scope: there it
 *              unwinds (destructors run) to that scope, which turns
 *              it into an error.
 *  - fatal():  the simulation cannot continue because of a user error
 *              (bad configuration, impossible parameters). Exits(1).
 *  - warn():   something works, but not as well as it should.
 *  - inform(): plain status for the user.
 */

#ifndef MMGPU_COMMON_LOGGING_HH
#define MMGPU_COMMON_LOGGING_HH

#include <functional>
#include <optional>
#include <sstream>
#include <string>

namespace mmgpu
{

namespace detail
{

/**
 * Report an internal bug: unwind to the innermost catchPanic() scope
 * of this thread, or call std::abort() when there is none.
 */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Terminate with a user-error message; calls std::exit(1). */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Emit a warning to stderr. */
void warnImpl(const std::string &msg);

/** Emit an informational message to stderr. */
void informImpl(const std::string &msg);

/** Fold a variadic pack into one string via operator<<. */
template <typename... Args>
std::string
fold(Args &&...args)
{
    std::ostringstream os;
    // void-cast: an empty pack folds to plain `os`, which -Wall
    // flags as a statement with no effect.
    static_cast<void>((os << ... << args));
    return os.str();
}

} // namespace detail

/** Report an internal invariant violation and abort. */
template <typename... Args>
[[noreturn]] void
panicAt(const char *file, int line, Args &&...args)
{
    detail::panicImpl(file, line,
                      detail::fold(std::forward<Args>(args)...));
}

/** Report an unrecoverable user/configuration error and exit. */
template <typename... Args>
[[noreturn]] void
fatalAt(const char *file, int line, Args &&...args)
{
    detail::fatalImpl(file, line,
                      detail::fold(std::forward<Args>(args)...));
}

/** Report a recoverable anomaly. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::fold(std::forward<Args>(args)...));
}

/** Report simulation status. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::informImpl(detail::fold(std::forward<Args>(args)...));
}

/** Toggle inform() output (benches silence it for clean tables). */
void setInformEnabled(bool enabled);

/**
 * Run @p body as a supervised scope: a panic on this thread inside
 * it unwinds to here, running every destructor on the way, and is
 * returned as its text. @return nullopt when @p body returned.
 * Scopes nest (the innermost catches). Panics on other threads, and
 * panics raised inside a destructor or other noexcept function,
 * still abort.
 */
std::optional<std::string> catchPanic(const std::function<void()> &body);

} // namespace mmgpu

#define mmgpu_panic(...) ::mmgpu::panicAt(__FILE__, __LINE__, __VA_ARGS__)
#define mmgpu_fatal(...) ::mmgpu::fatalAt(__FILE__, __LINE__, __VA_ARGS__)

/** Assert an invariant that indicates a framework bug when violated. */
#define mmgpu_assert(cond, ...)                                          \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::mmgpu::panicAt(__FILE__, __LINE__, "assertion failed: ",    \
                             #cond, " ", ##__VA_ARGS__);                  \
        }                                                                 \
    } while (0)

#endif // MMGPU_COMMON_LOGGING_HH
