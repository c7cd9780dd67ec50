/**
 * @file
 * Unit tests for the gem5-style logging facilities.
 */

#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "common/logging.hh"

namespace
{

using namespace mmgpu;

TEST(Logging, FoldConcatenatesHeterogeneousArguments)
{
    EXPECT_EQ(detail::fold("x=", 42, " y=", 2.5, " z"), "x=42 y=2.5 z");
    EXPECT_EQ(detail::fold(), "");
}

TEST(LoggingDeathTest, FatalExitsWithCodeOne)
{
    EXPECT_EXIT(mmgpu_fatal("user misconfigured ", 7),
                ::testing::ExitedWithCode(1), "user misconfigured 7");
}

TEST(LoggingDeathTest, PanicAborts)
{
    EXPECT_DEATH(mmgpu_panic("internal bug"), "internal bug");
}

TEST(LoggingDeathTest, AssertPassesOnTrue)
{
    mmgpu_assert(1 + 1 == 2, "arithmetic works");
    SUCCEED();
}

TEST(LoggingDeathTest, AssertAbortsOnFalseWithExpressionText)
{
    EXPECT_DEATH(mmgpu_assert(2 + 2 == 5, "message ", 99),
                 "2 \\+ 2 == 5");
}

TEST(Logging, CatchPanicReturnsThePanicTextOrNothing)
{
    std::optional<std::string> crash =
        catchPanic([] { mmgpu_panic("caught ", 42); });
    EXPECT_EQ(crash, "caught 42");

    crash = catchPanic([] { mmgpu_assert(2 + 2 == 5, "sum"); });
    ASSERT_TRUE(crash.has_value());
    EXPECT_NE(crash->find("2 + 2 == 5"), std::string::npos);

    int ran = 0;
    EXPECT_FALSE(catchPanic([&] { ++ran; }).has_value());
    EXPECT_EQ(ran, 1);
}

TEST(Logging, CatchPanicRunsDestructorsOnTheWayOut)
{
    struct Flag
    {
        bool *set;
        ~Flag() { *set = true; }
    };
    bool destroyed = false;
    std::optional<std::string> crash = catchPanic([&] {
        Flag flag{&destroyed};
        mmgpu_panic("unwind me");
    });
    EXPECT_TRUE(crash.has_value());
    EXPECT_TRUE(destroyed);
}

TEST(Logging, NestedCatchPanicScopesCatchInnermostFirst)
{
    std::optional<std::string> inner;
    std::optional<std::string> outer = catchPanic([&] {
        inner = catchPanic([] { mmgpu_panic("inner"); });
        // The inner scope closed; this panic belongs to the outer.
        mmgpu_panic("outer");
    });
    EXPECT_EQ(inner, "inner");
    EXPECT_EQ(outer, "outer");
}

TEST(LoggingDeathTest, PanicAbortsOnceEveryCatchScopeHasClosed)
{
    EXPECT_EQ(catchPanic([] { mmgpu_panic("caught"); }), "caught");
    EXPECT_DEATH(mmgpu_panic("after the scope"), "after the scope");
}

TEST(Logging, WarnAndInformDoNotTerminate)
{
    warn("just a warning: ", 1);
    setInformEnabled(false);
    inform("suppressed");
    setInformEnabled(true);
    inform("visible");
    SUCCEED();
}

} // namespace
