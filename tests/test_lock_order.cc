/**
 * @file
 * The runtime lock-order check is ThreadSanitizer's deadlock
 * detector: it reports two mutexes taken in opposite orders from one
 * thread's nesting alone, even when no schedule ever deadlocks. This
 * test stages that ABBA order in a child process and asserts TSan's
 * report, so the check stays armed wherever the tree is built with
 * -DMMGPU_SANITIZE=thread (scripts/ci.sh runs it under tier2). Other
 * builds have no detector to check and skip.
 *
 * The staged inversion is exactly what the static lock-order rule
 * exists to reject; suppressed file-wide.
 * mmgpu-lint: allow-file(lock-order)
 */

#include <cstdlib>
#include <mutex>

#include <gtest/gtest.h>

namespace
{

#if defined(__SANITIZE_THREAD__)
constexpr bool tsanBuild = true;
#else
constexpr bool tsanBuild = false;
#endif

/** TSan's exit status when it reported anything. */
constexpr int tsanExitCode = 66;

/** Take @p a then @p b, and later @p b then @p a, on this thread. */
void
lockAbba(std::mutex &a, std::mutex &b)
{
    {
        std::lock_guard<std::mutex> la(a);
        std::lock_guard<std::mutex> lb(b);
    }
    {
        std::lock_guard<std::mutex> lb(b);
        std::lock_guard<std::mutex> la(a);
    }
}

TEST(LockOrderDeathTest, TsanReportsAbbaInversion)
{
    if (!tsanBuild)
        GTEST_SKIP() << "needs a -DMMGPU_SANITIZE=thread build";
    // Re-exec the binary for the child: TSan runs its own background
    // thread, and a fork-only child of a threaded process is unsafe.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            std::mutex a;
            std::mutex b;
            lockAbba(a, b);
            std::exit(0);
        },
        ::testing::ExitedWithCode(tsanExitCode), "lock-order-inversion");
}

} // namespace
