/**
 * @file
 * Integration tests for the experiment harness (study context,
 * scaling runner, EDPSE studies).
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "harness/run_cache.hh"
#include "harness/study.hh"

namespace
{

using namespace mmgpu;
using namespace mmgpu::harness;

/** Shared context: calibration runs once for the whole suite. */
StudyContext &
context()
{
    static StudyContext instance;
    return instance;
}

trace::KernelProfile
tinyWorkload(const char *name, trace::WorkloadClass cls)
{
    trace::KernelProfile profile;
    profile.name = name;
    profile.cls = cls;
    profile.ctaCount = 128;
    profile.warpsPerCta = 2;
    profile.iterations = 4;
    profile.seed = 5;
    profile.segments.push_back({"seg", 2 * units::MiB});
    trace::SegmentAccess access;
    access.segment = 0;
    access.pattern = trace::AccessPattern::BlockStream;
    access.perIteration = 2;
    profile.loads.push_back(access);
    profile.compute.push_back({isa::Opcode::FFMA32, 6});
    return profile;
}

/** The pin-reallocation ablation's edit (DRAM pins traded for link
 *  pins), made without renaming the configuration. */
sim::GpuConfig
repinned(sim::GpuConfig config)
{
    config.memory.dramBytesPerCycle -= 192.0;
    config.interGpmBytesPerCycle += 192.0;
    return config;
}

TEST(Study, InputsFromMirrorsPerfResult)
{
    sim::PerfResult perf;
    perf.instrs[0] = 42;
    perf.mem.txns[1] = 7;
    perf.smStallCycles = 3.5;
    perf.execSeconds = 0.25;
    perf.link.messageBytes = 100;
    perf.link.switchBytes = 50;
    auto inputs = inputsFrom(perf, 8);
    EXPECT_EQ(inputs.warpInstrs[0], 42u);
    EXPECT_EQ(inputs.txns[1], 7u);
    EXPECT_DOUBLE_EQ(inputs.smStallCycles, 3.5);
    EXPECT_DOUBLE_EQ(inputs.execTime, 0.25);
    EXPECT_EQ(inputs.gpmCount, 8u);
    EXPECT_EQ(inputs.linkBytes, 100u);
    EXPECT_EQ(inputs.switchBytes, 50u);
}

TEST(Study, ParamsFollowDomainAndTopology)
{
    auto on_pkg = context().paramsFor(
        sim::multiGpmConfig(4, sim::BwSetting::Bw2x));
    EXPECT_DOUBLE_EQ(on_pkg.linkPjPerBit, 0.54);
    EXPECT_DOUBLE_EQ(on_pkg.constGrowthFraction, 0.5);
    EXPECT_DOUBLE_EQ(on_pkg.switchPjPerBit, 0.0);

    auto on_board_switch = context().paramsFor(sim::multiGpmConfig(
        4, sim::BwSetting::Bw1x, noc::Topology::Switch,
        sim::IntegrationDomain::OnBoard));
    EXPECT_DOUBLE_EQ(on_board_switch.linkPjPerBit, 10.0);
    EXPECT_DOUBLE_EQ(on_board_switch.switchPjPerBit, 10.0);
    EXPECT_DOUBLE_EQ(on_board_switch.constGrowthFraction, 1.0);
}

TEST(Study, RunnerMemoizes)
{
    ScalingRunner runner(context());
    auto workload = tinyWorkload("memo", trace::WorkloadClass::Compute);
    const RunOutcome &a = runner.run(sim::baselineConfig(), workload);
    const RunOutcome &b = runner.run(sim::baselineConfig(), workload);
    EXPECT_EQ(&a, &b); // same cached object
}

TEST(Study, SameNameConfigEditIsANewPoint)
{
    ScalingRunner runner(context());
    runner.attachPersistentCache(nullptr);
    auto workload = tinyWorkload("edit", trace::WorkloadClass::Memory);
    auto config = sim::multiGpmConfig(4, sim::BwSetting::Bw1x);
    const RunOutcome &before = runner.run(config, workload);
    const sim::GpuConfig edited = repinned(config);
    const RunOutcome &after = runner.run(edited, workload);

    ScalingRunner fresh(context());
    fresh.attachPersistentCache(nullptr);
    const RunOutcome &expected = fresh.run(edited, workload);
    EXPECT_NE(before.perf.execCycles, expected.perf.execCycles);
    EXPECT_EQ(after.perf, expected.perf);
    EXPECT_EQ(after.energy, expected.energy);
}

TEST(Study, EditedConfigMissBuildsItsOwnMachineAndCachesItsResult)
{
    namespace fs = std::filesystem;
    fs::remove_all("study_scratch");
    RunCache disk("study_scratch/runs.json");
    ScalingRunner runner(context());
    runner.attachPersistentCache(&disk);
    auto workload = tinyWorkload("repin", trace::WorkloadClass::Memory);
    auto config = sim::multiGpmConfig(4, sim::BwSetting::Bw1x);
    runner.run(config, workload); // pools a machine built for config

    // A memo miss (new link-energy scale) on the same-name edit.
    const sim::GpuConfig edited = repinned(config);
    const RunOutcome &served = runner.run(edited, workload, 1.5);

    ScalingRunner fresh(context());
    fresh.attachPersistentCache(nullptr);
    const RunOutcome &expected = fresh.run(edited, workload, 1.5);
    EXPECT_EQ(served.perf, expected.perf);
    EXPECT_EQ(served.energy, expected.energy);

    sim::PerfResult perf;
    joule::EnergyBreakdown energy;
    ASSERT_TRUE(disk.lookup(
        runFingerprint(edited, workload, 1.5, -1.0,
                       context().calibrationFingerprint()),
        perf, energy));
    EXPECT_EQ(perf, expected.perf);
    EXPECT_EQ(energy, expected.energy);
    fs::remove_all("study_scratch");
}

TEST(Study, SimulatorPanicBecomesAnErrorAndFreesItsMachine)
{
    ScalingRunner runner(context());
    runner.attachPersistentCache(nullptr);
    // No loads and no compute: every warp trace is empty, which the
    // trace generator asserts against in the middle of the run.
    auto broken = tinyWorkload("broken", trace::WorkloadClass::Compute);
    broken.loads.clear();
    broken.compute.clear();
    Result<const RunOutcome *> failed =
        runner.tryRun(sim::baselineConfig(), broken);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.error().code, ErrCode::Unavailable);
    EXPECT_EQ(failed.error().describe().rfind(
                  "unavailable: simulation panicked: ", 0),
              0u)
        << failed.error().describe();

    // The unwind freed the crashed machine (a leak check fails the
    // process otherwise); the runner builds a fresh one for the next
    // point.
    auto healthy = tinyWorkload("healthy", trace::WorkloadClass::Compute);
    Result<const RunOutcome *> next =
        runner.tryRun(sim::baselineConfig(), healthy);
    ASSERT_TRUE(next.ok());
    EXPECT_GT(next.value()->perf.execCycles, 0.0);
}

TEST(Study, EnergyPositiveAndDecomposed)
{
    ScalingRunner runner(context());
    auto workload = tinyWorkload("energy", trace::WorkloadClass::Memory);
    const RunOutcome &run =
        runner.run(sim::multiGpmConfig(2, sim::BwSetting::Bw2x),
                   workload);
    EXPECT_GT(run.energy.total(), 0.0);
    EXPECT_GT(run.energy.constant, 0.0);
    EXPECT_GT(run.energy.smBusy, 0.0);
    EXPECT_GE(run.energy.interModule, 0.0);
    EXPECT_GT(run.point().delay, 0.0);
}

TEST(Study, ScalingStudyComputesConsistentEdpse)
{
    ScalingRunner runner(context());
    std::vector<trace::KernelProfile> workloads = {
        tinyWorkload("w1", trace::WorkloadClass::Compute),
        tinyWorkload("w2", trace::WorkloadClass::Memory),
    };
    workloads[1].seed = 6;
    auto config = sim::multiGpmConfig(2, sim::BwSetting::Bw2x);
    auto points = scalingStudy(runner, config, workloads);
    ASSERT_EQ(points.size(), 2u);
    for (const auto &point : points) {
        // EDPSE identity: speedup / (N * energy ratio) * 100.
        EXPECT_NEAR(point.edpse,
                    point.speedup / (2.0 * point.energyRatio) * 100.0,
                    1e-6);
        EXPECT_GT(point.speedup, 1.0);
    }
}

TEST(Study, MeanOfFiltersAndAverages)
{
    std::vector<ScalingPoint> points(3);
    points[0] = {"a", trace::WorkloadClass::Compute, 2.0, 1.0, 100.0};
    points[1] = {"b", trace::WorkloadClass::Memory, 4.0, 1.0, 50.0};
    points[2] = {"c", trace::WorkloadClass::Memory, 6.0, 1.0, 70.0};
    EXPECT_DOUBLE_EQ(meanOf(points, &ScalingPoint::speedup), 4.0);
    EXPECT_DOUBLE_EQ(meanOf(points, &ScalingPoint::edpse,
                            trace::WorkloadClass::Memory),
                     60.0);
    EXPECT_DOUBLE_EQ(meanOf(points, &ScalingPoint::speedup,
                            trace::WorkloadClass::Compute),
                     2.0);
}

TEST(Study, LinkEnergyScaleRaisesInterModuleOnly)
{
    ScalingRunner runner(context());
    auto workload = tinyWorkload("link", trace::WorkloadClass::Memory);
    workload.loads[0].pattern = trace::AccessPattern::Random;
    auto config = sim::multiGpmConfig(4, sim::BwSetting::Bw1x,
                                      noc::Topology::Ring,
                                      sim::IntegrationDomain::OnBoard);
    const RunOutcome &base = runner.run(config, workload, 1.0);
    const RunOutcome &scaled = runner.run(config, workload, 4.0);
    EXPECT_NEAR(scaled.energy.interModule,
                4.0 * base.energy.interModule,
                base.energy.interModule * 0.01);
    EXPECT_DOUBLE_EQ(scaled.energy.constant, base.energy.constant);
    EXPECT_DOUBLE_EQ(scaled.perf.execCycles, base.perf.execCycles);
}

} // namespace
