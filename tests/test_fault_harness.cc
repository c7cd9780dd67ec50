/**
 * @file
 * Harness robustness under injected faults: a poisoned sweep point
 * (forced failure or hang) must be isolated — reported in the
 * DrainReport while every other point completes — watchdogs must
 * cancel hangs, checkpointed sweeps must resume from disk without
 * recompute, and degraded-mode (link-fault) sweeps must stay
 * bit-identical across worker counts.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "fault/fault_plan.hh"
#include "harness/parallel_runner.hh"
#include "harness/run_cache.hh"
#include "harness/study.hh"

namespace
{

using namespace mmgpu;
using namespace mmgpu::harness;

namespace fs = std::filesystem;

/** Shared context: calibration runs once for the whole suite. */
StudyContext &
context()
{
    static StudyContext instance;
    return instance;
}

trace::KernelProfile
tinyWorkload(const char *name, unsigned seed,
             trace::AccessPattern pattern = trace::AccessPattern::Stencil)
{
    trace::KernelProfile profile;
    profile.name = name;
    profile.cls = trace::WorkloadClass::Compute;
    profile.ctaCount = 64;
    profile.warpsPerCta = 2;
    profile.iterations = 3;
    profile.seed = seed;
    profile.segments.push_back({"seg", 1 * units::MiB});
    trace::SegmentAccess access;
    access.segment = 0;
    access.pattern = pattern;
    access.haloFraction = 0.1;
    access.perIteration = 2;
    profile.loads.push_back(access);
    profile.compute.push_back({isa::Opcode::FFMA32, 4});
    return profile;
}

std::vector<trace::KernelProfile>
sweepWorkloads()
{
    return {
        tinyWorkload("fh1", 21),
        tinyWorkload("fh2", 22),
        tinyWorkload("fh3", 23),
    };
}

TEST(FaultHarness, PoisonedPointIsIsolatedAndReported)
{
    auto config = sim::multiGpmConfig(2, sim::BwSetting::Bw2x);
    auto workloads = sweepWorkloads();

    fault::FaultPlan plan;
    plan.harness.failPoints.push_back(config.name + "|fh2");

    ScalingRunner runner(context());
    runner.attachPersistentCache(nullptr);
    runner.setFaultPlan(&plan);
    ParallelRunner pool(runner, 2);
    pool.enqueueStudy(config, workloads);
    std::size_t total = pool.pending();
    DrainReport report = pool.drain();

    EXPECT_FALSE(report.ok());
    ASSERT_EQ(report.failures.size(), 1u);
    const PointFailure &failure = report.failures.front();
    EXPECT_EQ(failure.key.config, config);
    EXPECT_EQ(failure.key.profile, workloads[1]);
    EXPECT_EQ(failure.error.code, ErrCode::InjectedFault);
    EXPECT_EQ(report.completed, total - 1);
    EXPECT_EQ(runKeyName(failure.key), config.name + "|fh2");

    // Every other point is served from the memo cache.
    for (const auto &profile : workloads) {
        EXPECT_TRUE(runner.cached(sim::baselineConfig(), profile));
        if (profile.name != "fh2") {
            EXPECT_TRUE(runner.cached(config, profile));
        }
    }

    // An injected fault is transient, so it is not memoized: the
    // re-query computes the point again, and fails again (instead of
    // crashing) because the plan still names it.
    EXPECT_FALSE(runner.cached(config, workloads[1]));
    auto again = runner.tryRun(config, workloads[1]);
    ASSERT_FALSE(again.ok());
    EXPECT_EQ(again.error().code, ErrCode::InjectedFault);
}

TEST(FaultHarness, InvalidConfigFailsAsConfigError)
{
    auto broken = sim::multiGpmConfig(2, sim::BwSetting::Bw2x);
    broken.interGpmBytesPerCycle = 0.0;

    ScalingRunner runner(context());
    runner.attachPersistentCache(nullptr);
    auto result = runner.tryRun(broken, tinyWorkload("fh-cfg", 31));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, ErrCode::Config);
    EXPECT_NE(result.error().message.find("zero inter-GPM"),
              std::string::npos);
}

TEST(FaultHarness, WatchdogCancelsInjectedHang)
{
    auto config = sim::multiGpmConfig(2, sim::BwSetting::Bw2x);
    auto workloads = sweepWorkloads();

    fault::FaultPlan plan;
    plan.harness.hangPoints.push_back(config.name + "|fh1");
    plan.harness.hangSeconds = 30.0; // would stall without a watchdog

    ScalingRunner runner(context());
    runner.attachPersistentCache(nullptr);
    runner.setFaultPlan(&plan);
    ParallelRunner pool(runner, 2);
    pool.setWatchdog(0.2);
    pool.enqueueStudy(config, workloads);
    std::size_t total = pool.pending();

    auto begin = std::chrono::steady_clock::now();
    DrainReport report = pool.drain();
    double elapsed = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - begin)
                         .count();

    // The watchdog fired long before the 30 s hang would end.
    EXPECT_LT(elapsed, 15.0);
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures.front().error.code, ErrCode::Timeout);
    EXPECT_EQ(report.failures.front().key.profile.name, "fh1");
    EXPECT_EQ(report.completed, total - 1);

    // A timeout is not the point's answer: once the hang is gone, the
    // same runner simulates it.
    runner.setFaultPlan(nullptr);
    auto again = runner.tryRun(config, workloads[0]);
    ASSERT_TRUE(again.ok()) << again.error().describe();
    EXPECT_GT(again.value()->perf.execCycles, 0.0);
}

TEST(FaultHarness, ShortHangCompletesWithoutWatchdog)
{
    auto config = sim::multiGpmConfig(2, sim::BwSetting::Bw2x);
    auto workloads = sweepWorkloads();

    fault::FaultPlan plan;
    plan.harness.hangPoints.push_back(config.name + "|fh3");
    plan.harness.hangSeconds = 0.05; // elapses on its own

    ScalingRunner runner(context());
    runner.attachPersistentCache(nullptr);
    runner.setFaultPlan(&plan);
    ParallelRunner pool(runner, 2);
    pool.enqueueStudy(config, workloads);
    DrainReport report = pool.drain();

    // No watchdog: the hang runs its course and the point completes.
    EXPECT_TRUE(report.ok());
    EXPECT_TRUE(runner.cached(config, workloads[2]));
}

TEST(FaultHarness, CheckpointedSweepResumesWithoutRecompute)
{
    fs::remove_all("fault_harness_scratch");
    std::string path = "fault_harness_scratch/runs.json";
    auto config = sim::multiGpmConfig(2, sim::BwSetting::Bw2x);
    auto workloads = sweepWorkloads();

    std::size_t points = 0;
    {
        // First sweep checkpoints after every completed point —
        // destroying the runner without a final flush() models an
        // interrupted process.
        RunCache disk(path);
        ScalingRunner runner(context());
        runner.attachPersistentCache(&disk);
        ParallelRunner pool(runner, 2);
        pool.setCheckpointEvery(1);
        pool.enqueueStudy(config, workloads);
        points = pool.pending();
        DrainReport report = pool.drain();
        EXPECT_TRUE(report.ok());
        EXPECT_EQ(report.completed, points);
    }

    // Resume: a fresh cache bound to the checkpoint file serves every
    // point from disk — zero recompute.
    RunCache resumed(path);
    EXPECT_EQ(resumed.size(), points);
    ScalingRunner runner(context());
    runner.attachPersistentCache(&resumed);
    ParallelRunner pool(runner, 2);
    pool.enqueueStudy(config, workloads);
    pool.drain();
    EXPECT_EQ(resumed.hits(), points);

    fs::remove_all("fault_harness_scratch");
}

TEST(FaultHarness, DegradedSweepBitIdenticalAcrossWorkerCounts)
{
    // An 8-GPM ring with one failed clockwise link: reroutes engage,
    // and the degraded sweep must still be bit-identical whether run
    // serially or on 2 or 8 workers.
    auto config = sim::multiGpmConfig(8, sim::BwSetting::Bw1x,
                                      noc::Topology::Ring,
                                      sim::IntegrationDomain::OnBoard);
    config.linkFaults.faults.push_back(fault::LinkFault{0, 0, 0.0});
    // Random-pattern workloads: (N-1)/N of their traffic is remote,
    // so some of it is guaranteed to cross the failed link. (The
    // stencil workloads above stay GPM-local at this size — their
    // halos never leave the first-touch owner's pages.)
    std::vector<trace::KernelProfile> workloads = {
        tinyWorkload("fh-rand1", 21, trace::AccessPattern::Random),
        tinyWorkload("fh-rand2", 22, trace::AccessPattern::Random),
        tinyWorkload("fh-rand3", 23, trace::AccessPattern::Random),
    };

    auto sweep = [&](unsigned workers) {
        std::vector<RunOutcome> outcomes;
        ScalingRunner runner(context());
        runner.attachPersistentCache(nullptr);
        ParallelRunner pool(runner, workers);
        pool.enqueueStudy(config, workloads);
        EXPECT_TRUE(pool.drain().ok());
        for (const auto &profile : workloads)
            outcomes.push_back(runner.run(config, profile));
        return outcomes;
    };

    auto serial = sweep(1);
    auto two = sweep(2);
    auto eight = sweep(8);
    ASSERT_EQ(serial.size(), two.size());
    ASSERT_EQ(serial.size(), eight.size());
    bool any_rerouted = false;
    for (std::size_t i = 0; i < serial.size(); ++i) {
        for (const auto *other : {&two[i], &eight[i]}) {
            EXPECT_EQ(serial[i].perf.execCycles,
                      other->perf.execCycles);
            EXPECT_EQ(serial[i].perf.link.byteHops,
                      other->perf.link.byteHops);
            EXPECT_EQ(serial[i].perf.link.rerouted,
                      other->perf.link.rerouted);
            EXPECT_EQ(serial[i].energy.interModule,
                      other->energy.interModule);
        }
        any_rerouted |= serial[i].perf.link.rerouted > 0;
    }
    // The failed link actually forced traffic the long way around.
    EXPECT_TRUE(any_rerouted);
}

TEST(FaultHarnessDeathTest, RunOnPoisonedPointIsFatal)
{
    // run() (the infallible API) on a point the fault plan poisons
    // must exit with the structured error in the message — benches
    // that cannot isolate failures still die with a diagnosis.
    auto config = sim::multiGpmConfig(2, sim::BwSetting::Bw2x);
    auto workload = tinyWorkload("fh-fatal", 41);

    fault::FaultPlan plan;
    plan.harness.failPoints.push_back("fh-fatal");

    ScalingRunner runner(context());
    runner.attachPersistentCache(nullptr);
    runner.setFaultPlan(&plan);
    EXPECT_EXIT(runner.run(config, workload),
                ::testing::ExitedWithCode(1), "injected-fault");
}

} // namespace
