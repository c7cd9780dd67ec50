/**
 * @file
 * Integration tests for the event-driven GPU simulator.
 *
 * These use purpose-built small profiles (not the Table II catalog)
 * so each test isolates one behaviour and runs in milliseconds.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>

#include "common/fields.hh"
#include "sim/gpu_sim.hh"
#include "telemetry/telemetry.hh"
#include "trace/warp_trace.hh"
#include "trace/workloads.hh"

namespace
{

using namespace mmgpu;
using namespace mmgpu::sim;
using trace::AccessPattern;
using trace::KernelProfile;
using trace::SegmentAccess;

KernelProfile
smallProfile(AccessPattern pattern, unsigned ctas = 64,
             unsigned launches = 1)
{
    KernelProfile profile;
    profile.name = "sim-test";
    profile.ctaCount = ctas;
    profile.warpsPerCta = 2;
    profile.iterations = 4;
    profile.launches = launches;
    profile.seed = 99;
    profile.segments.push_back({"data", 1 * units::MiB});
    SegmentAccess access;
    access.segment = 0;
    access.pattern = pattern;
    access.perIteration = 2;
    profile.loads.push_back(access);
    profile.compute.push_back({isa::Opcode::FFMA32, 4});
    profile.compute.push_back({isa::Opcode::IADD32, 2});
    return profile;
}

TEST(GpuSim, BitIdenticalAcrossRuns)
{
    KernelProfile profile = smallProfile(AccessPattern::Random);
    GpuSim sim_a(baselineConfig());
    GpuSim sim_b(baselineConfig());
    PerfResult a = sim_a.run(profile);
    PerfResult b = sim_b.run(profile);
    EXPECT_DOUBLE_EQ(a.execCycles, b.execCycles);
    EXPECT_EQ(a.totalWarpInstrs(), b.totalWarpInstrs());
    EXPECT_EQ(a.mem.txns, b.mem.txns);
    EXPECT_DOUBLE_EQ(a.smBusyCycles, b.smBusyCycles);
}

TEST(GpuSim, GpuSimIsReusableAcrossRuns)
{
    KernelProfile profile = smallProfile(AccessPattern::BlockStream);
    GpuSim sim(baselineConfig());
    PerfResult first = sim.run(profile);
    PerfResult second = sim.run(profile);
    EXPECT_DOUBLE_EQ(first.execCycles, second.execCycles);
}

TEST(GpuSim, ReuseRebuildsEveryAccumulator)
{
    // run() documents that it rebuilds the machine: a second run of
    // the same profile must reproduce the *entire* PerfResult, not
    // just the end time — any accumulator surviving a run shows up
    // here as drift. Multi-GPM with remote traffic and writebacks
    // exercises every counter family.
    KernelProfile profile = smallProfile(AccessPattern::Random, 128);
    SegmentAccess store;
    store.segment = 0;
    store.pattern = AccessPattern::Random;
    store.perIteration = 1;
    profile.stores.push_back(store);

    GpuSim sim(multiGpmConfig(4, BwSetting::Bw2x));
    PerfResult a = sim.run(profile);
    PerfResult b = sim.run(profile);
    EXPECT_DOUBLE_EQ(a.execCycles, b.execCycles);
    EXPECT_EQ(a.instrs, b.instrs);
    EXPECT_EQ(a.mem.txns, b.mem.txns);
    EXPECT_EQ(a.mem.l1SectorMisses, b.mem.l1SectorMisses);
    EXPECT_EQ(a.mem.l2SectorMisses, b.mem.l2SectorMisses);
    EXPECT_EQ(a.mem.remoteSectors, b.mem.remoteSectors);
    EXPECT_EQ(a.mem.localSectors, b.mem.localSectors);
    EXPECT_EQ(a.mem.writebackSectors, b.mem.writebackSectors);
    EXPECT_EQ(a.link.byteHops, b.link.byteHops);
    EXPECT_EQ(a.link.messageBytes, b.link.messageBytes);
    EXPECT_EQ(a.link.transfers, b.link.transfers);
    EXPECT_DOUBLE_EQ(a.linkQueueing, b.linkQueueing);
    EXPECT_DOUBLE_EQ(a.linkBusy, b.linkBusy);
    EXPECT_DOUBLE_EQ(a.smBusyCycles, b.smBusyCycles);
    EXPECT_DOUBLE_EQ(a.smStallCycles, b.smStallCycles);
    EXPECT_DOUBLE_EQ(a.smOccupiedCycles, b.smOccupiedCycles);
    EXPECT_EQ(a.l1Accesses, b.l1Accesses);
    EXPECT_EQ(a.l1SectorHits, b.l1SectorHits);
    EXPECT_EQ(a.l2Accesses, b.l2Accesses);
    EXPECT_EQ(a.l2SectorHits, b.l2SectorHits);
    EXPECT_DOUBLE_EQ(a.dramQueueing, b.dramQueueing);
    EXPECT_DOUBLE_EQ(a.dramBusy, b.dramBusy);
}

TEST(GpuSim, InstructionCountsMatchProfileExactly)
{
    KernelProfile profile = smallProfile(AccessPattern::BlockStream);
    GpuSim sim(baselineConfig());
    PerfResult result = sim.run(profile);
    Count warps = profile.totalWarps();
    Count per_op = static_cast<Count>(profile.iterations) * warps;
    EXPECT_EQ(result.instrs[static_cast<std::size_t>(
                  isa::Opcode::FFMA32)],
              4 * per_op);
    EXPECT_EQ(result.instrs[static_cast<std::size_t>(
                  isa::Opcode::IADD32)],
              2 * per_op);
    EXPECT_EQ(result.instrs[static_cast<std::size_t>(
                  isa::Opcode::LD_GLOBAL)],
              2 * per_op);
}

TEST(GpuSim, LoadTransactionConservation)
{
    KernelProfile profile = smallProfile(AccessPattern::Random);
    GpuSim sim(baselineConfig());
    PerfResult result = sim.run(profile);
    // One L1->RF transaction per warp-level load.
    Count loads = result.instrs[static_cast<std::size_t>(
        isa::Opcode::LD_GLOBAL)];
    EXPECT_EQ(result.mem.txns[static_cast<std::size_t>(
                  isa::TxnLevel::L1ToReg)],
              loads);
    // Sector flows are conserved: DRAM fills can never exceed
    // L1-side sector traffic plus writebacks.
    Count l2_txns = result.mem.txns[static_cast<std::size_t>(
        isa::TxnLevel::L2ToL1)];
    Count dram_txns = result.mem.txns[static_cast<std::size_t>(
        isa::TxnLevel::DramToL2)];
    EXPECT_GT(l2_txns, 0u);
    EXPECT_LE(dram_txns,
              l2_txns + result.mem.writebackSectors);
}

TEST(GpuSim, SingleGpmHasNoRemoteTraffic)
{
    KernelProfile profile = smallProfile(AccessPattern::Random);
    GpuSim sim(baselineConfig());
    PerfResult result = sim.run(profile);
    EXPECT_EQ(result.mem.remoteSectors, 0u);
    EXPECT_EQ(result.link.byteHops, 0u);
    EXPECT_DOUBLE_EQ(result.remoteFraction(), 0.0);
}

TEST(GpuSim, BlockStreamLocalizesUnderFirstTouch)
{
    KernelProfile profile = smallProfile(AccessPattern::BlockStream,
                                         256);
    GpuSim sim(multiGpmConfig(4, BwSetting::Bw2x));
    PerfResult result = sim.run(profile);
    EXPECT_LT(result.remoteFraction(), 0.05);
}

TEST(GpuSim, RandomPatternIsMostlyRemote)
{
    KernelProfile profile = smallProfile(AccessPattern::Random, 256);
    GpuSim sim(multiGpmConfig(4, BwSetting::Bw2x));
    PerfResult result = sim.run(profile);
    // Uniform random over 4 GPMs: ~3/4 remote (minus L2 reuse).
    EXPECT_GT(result.remoteFraction(), 0.5);
    EXPECT_GT(result.link.byteHops, 0u);
    EXPECT_GT(result.link.messageBytes, 0u);
}

TEST(GpuSim, MultiGpmIsFasterOnParallelWork)
{
    KernelProfile profile = smallProfile(AccessPattern::BlockStream,
                                         512);
    GpuSim one(baselineConfig());
    GpuSim four(multiGpmConfig(4, BwSetting::Bw2x));
    double t1 = one.run(profile).execCycles;
    double t4 = four.run(profile).execCycles;
    EXPECT_GT(t1 / t4, 2.0);
    EXPECT_LT(t1 / t4, 5.0);
}

TEST(GpuSim, MonolithicBeatsOrMatchesRingAtSameResources)
{
    KernelProfile profile = smallProfile(AccessPattern::Random, 512);
    GpuSim mono(monolithicConfig(4));
    GpuSim ring(multiGpmConfig(4, BwSetting::Bw2x));
    double t_mono = mono.run(profile).execCycles;
    double t_ring = ring.run(profile).execCycles;
    EXPECT_LE(t_mono, t_ring * 1.05);
}

TEST(GpuSim, HigherBandwidthNeverHurts)
{
    KernelProfile profile = smallProfile(AccessPattern::Random, 512);
    GpuSim low(multiGpmConfig(8, BwSetting::Bw1x));
    GpuSim high(multiGpmConfig(8, BwSetting::Bw4x));
    double t_low = low.run(profile).execCycles;
    double t_high = high.run(profile).execCycles;
    EXPECT_LE(t_high, t_low * 1.02);
}

TEST(GpuSim, BusyBoundedByOccupied)
{
    KernelProfile profile = smallProfile(AccessPattern::Stencil);
    GpuSim sim(baselineConfig());
    PerfResult result = sim.run(profile);
    EXPECT_GT(result.smBusyCycles, 0.0);
    EXPECT_LE(result.smBusyCycles,
              result.smOccupiedCycles + 1e-9);
    EXPECT_GE(result.smStallCycles, 0.0);
}

TEST(GpuSim, MultiLaunchAddsOverheadGaps)
{
    KernelProfile one_launch = smallProfile(AccessPattern::BlockStream);
    KernelProfile two_launch = smallProfile(AccessPattern::BlockStream,
                                            64, 2);
    GpuSim sim(baselineConfig());
    double t1 = sim.run(one_launch).execCycles;
    double t2 = sim.run(two_launch).execCycles;
    EXPECT_GT(t2, 1.5 * t1);
}

TEST(GpuSim, IterativeKernelsHitL2OnLaterLaunches)
{
    KernelProfile profile = smallProfile(AccessPattern::BlockStream,
                                         64, 3);
    GpuSim sim(baselineConfig());
    PerfResult result = sim.run(profile);
    // 1 MiB working set fits the 2 MiB L2: launches 2 and 3 must
    // hit, so the sector hit rate is at least ~2/3 of accesses.
    double hit_rate =
        static_cast<double>(result.l2SectorHits) /
        (result.l2SectorHits + result.mem.l2SectorMisses);
    EXPECT_GT(hit_rate, 0.55);
}

TEST(GpuSim, DivergenceInflatesSectorTraffic)
{
    KernelProfile coalesced = smallProfile(AccessPattern::Random);
    KernelProfile divergent = coalesced;
    divergent.loads[0].divergence = 1.0;
    GpuSim sim(baselineConfig());
    Count coalesced_txns =
        sim.run(coalesced).mem.txns[static_cast<std::size_t>(
            isa::TxnLevel::L2ToL1)];
    Count divergent_txns =
        sim.run(divergent).mem.txns[static_cast<std::size_t>(
            isa::TxnLevel::L2ToL1)];
    EXPECT_GT(divergent_txns, coalesced_txns * 3 / 2);
}

TEST(GpuSim, StoresGenerateWritebackTraffic)
{
    KernelProfile profile = smallProfile(AccessPattern::BlockStream);
    SegmentAccess store;
    store.segment = 0;
    store.pattern = AccessPattern::BlockStream;
    store.perIteration = 1;
    profile.stores.push_back(store);
    GpuSim sim(baselineConfig());
    PerfResult result = sim.run(profile);
    EXPECT_GT(result.mem.writebackSectors, 0u);
}

TEST(GpuSim, SwitchOutperformsRingUnderIrregularTraffic)
{
    KernelProfile profile = smallProfile(AccessPattern::Random, 1024);
    profile.iterations = 6;
    GpuSim ring(multiGpmConfig(16, BwSetting::Bw1x,
                               noc::Topology::Ring,
                               IntegrationDomain::OnBoard));
    GpuSim sw(multiGpmConfig(16, BwSetting::Bw1x,
                             noc::Topology::Switch,
                             IntegrationDomain::OnBoard));
    double t_ring = ring.run(profile).execCycles;
    double t_switch = sw.run(profile).execCycles;
    EXPECT_LT(t_switch, t_ring);
}

TEST(GpuSim, RemoteWritebacksTravelTheNetwork)
{
    // Stores against remote-homed pages produce writeback messages
    // on the inter-GPM network (at eviction or kernel boundary).
    KernelProfile profile = smallProfile(AccessPattern::BlockStream,
                                         128);
    SegmentAccess store;
    store.segment = 0;
    store.pattern = AccessPattern::Random; // scattered dirty lines
    store.perIteration = 2;
    profile.stores.push_back(store);

    GpuSim machine(multiGpmConfig(4, BwSetting::Bw2x));
    PerfResult result = machine.run(profile);
    EXPECT_GT(result.mem.writebackSectors, 0u);
    EXPECT_GT(result.link.messageBytes, 0u);
}

TEST(GpuSim, SoftwareCoherenceForcesRemoteRefetchAcrossLaunches)
{
    // A read-only working set that fits every L2: on one GPM the
    // second launch hits the (persistent) L2; on four GPMs the
    // remote-homed lines are purged at the kernel boundary and must
    // be re-fetched, so DRAM traffic nearly doubles with a second
    // launch.
    KernelProfile one_launch = smallProfile(AccessPattern::Broadcast,
                                            128, 1);
    one_launch.segments[0].bytes = 256 * units::KiB;
    KernelProfile two_launch = one_launch;
    two_launch.launches = 2;

    auto dram_txns = [](const PerfResult &r) {
        return r.mem.txns[static_cast<std::size_t>(
            isa::TxnLevel::DramToL2)];
    };

    GpuSim mono(baselineConfig());
    Count mono_1 = dram_txns(mono.run(one_launch));
    Count mono_2 = dram_txns(mono.run(two_launch));
    EXPECT_LT(mono_2, mono_1 * 3 / 2); // launch 2 mostly hits L2

    GpuSim multi(multiGpmConfig(4, BwSetting::Bw2x));
    Count multi_1 = dram_txns(multi.run(one_launch));
    Count multi_2 = dram_txns(multi.run(two_launch));
    EXPECT_GT(multi_2, multi_1 * 17 / 10); // remote purge -> refetch
}

TEST(GpuSim, SwitchTrafficCountsFabricBytes)
{
    KernelProfile profile = smallProfile(AccessPattern::Random, 128);
    GpuSim machine(multiGpmConfig(4, BwSetting::Bw2x,
                                  noc::Topology::Switch,
                                  IntegrationDomain::OnBoard));
    PerfResult result = machine.run(profile);
    EXPECT_GT(result.link.switchBytes, 0u);
    // Through a switch every message crosses exactly two endpoint
    // links, so byte-hops are bounded by twice the message bytes.
    EXPECT_LE(result.link.byteHops,
              2 * result.link.messageBytes + 16);
}

TEST(GpuSim, StripedPlacementDestroysStreamLocality)
{
    KernelProfile profile = smallProfile(AccessPattern::BlockStream,
                                         256);
    auto config = multiGpmConfig(4, BwSetting::Bw2x);
    config.placement = PlacementPolicy::Striped;
    GpuSim striped(config);
    PerfResult result = striped.run(profile);
    // Striped pages spread 3/4 of a block-partitioned stream to
    // remote GPMs.
    EXPECT_GT(result.remoteFraction(), 0.5);
}

TEST(GpuSim, RoundRobinCtasWithOwnerPlacementStayCoherent)
{
    // First-touch-owner placement follows whatever CTA schedule is
    // in force, so round-robin scheduling keeps block-partitioned
    // data local too — the locality loss appears only when the two
    // mechanisms disagree (see the ablation bench).
    KernelProfile profile = smallProfile(AccessPattern::BlockStream,
                                         256);
    auto config = multiGpmConfig(4, BwSetting::Bw2x);
    config.ctaScheduling = sm::CtaSchedPolicy::RoundRobin;
    GpuSim machine(config);
    PerfResult result = machine.run(profile);
    EXPECT_LT(result.remoteFraction(), 0.10);
}

TEST(GpuSim, PolicyKnobsDoNotChangeWorkDone)
{
    KernelProfile profile = smallProfile(AccessPattern::Stencil, 128);
    auto base_config = multiGpmConfig(4, BwSetting::Bw2x);
    auto striped_config = base_config;
    striped_config.placement = PlacementPolicy::Striped;
    striped_config.ctaScheduling = sm::CtaSchedPolicy::RoundRobin;
    GpuSim base(base_config);
    GpuSim striped(striped_config);
    PerfResult a = base.run(profile);
    PerfResult b = striped.run(profile);
    EXPECT_EQ(a.totalWarpInstrs(), b.totalWarpInstrs());
}

// ------------------------------------------------------------- //
// Build-once / reset-per-run: a machine constructed once and reset
// between runs must be bit-identical to a machine rebuilt from
// scratch for every run — PerfResult for PerfResult, every field
// compared exactly by its defaulted operator==. These tests are the
// acceptance gate for the engine-layer refactor.

TEST(GpuSimReuse, ReusedMachineMatchesFreshMachineBitForBit)
{
    KernelProfile profile = smallProfile(AccessPattern::Random, 128);
    SegmentAccess store;
    store.segment = 0;
    store.pattern = AccessPattern::Random;
    store.perIteration = 1;
    profile.stores.push_back(store);

    GpuSim reused(multiGpmConfig(4, BwSetting::Bw2x));
    for (int run = 0; run < 3; ++run) {
        SCOPED_TRACE("run " + std::to_string(run));
        GpuSim fresh(multiGpmConfig(4, BwSetting::Bw2x));
        EXPECT_EQ(reused.run(profile), fresh.run(profile));
    }
}

TEST(GpuSimReuse, InterleavedProfilesDoNotContaminateEachOther)
{
    // One machine alternating between two very different workloads
    // (local streaming vs remote-heavy random, different CTA counts
    // and launch counts) must reproduce what fresh machines compute
    // for each — any run-scoped state surviving reset() shows up as
    // cross-profile contamination here.
    KernelProfile streaming =
        smallProfile(AccessPattern::BlockStream, 64, 2);
    KernelProfile scattered = smallProfile(AccessPattern::Random, 96);
    SegmentAccess store;
    store.segment = 0;
    store.pattern = AccessPattern::Random;
    store.perIteration = 1;
    scattered.stores.push_back(store);

    GpuSim machine(multiGpmConfig(4, BwSetting::Bw2x));
    const PerfResult stream_a = machine.run(streaming);
    const PerfResult scatter_a = machine.run(scattered);
    const PerfResult stream_b = machine.run(streaming);
    const PerfResult scatter_b = machine.run(scattered);

    GpuSim fresh_stream(multiGpmConfig(4, BwSetting::Bw2x));
    GpuSim fresh_scatter(multiGpmConfig(4, BwSetting::Bw2x));
    const PerfResult stream_ref = fresh_stream.run(streaming);
    const PerfResult scatter_ref = fresh_scatter.run(scattered);

    EXPECT_EQ(stream_a, stream_ref);
    EXPECT_EQ(stream_b, stream_ref);
    EXPECT_EQ(scatter_a, scatter_ref);
    EXPECT_EQ(scatter_b, scatter_ref);
}

TEST(GpuSimReuse, PolicyConfigsKeepTheirIdentityAcrossReuse)
{
    // Placement/scheduling policy state (page homes, CTA queues) is
    // launch- or run-scoped: reusing a striped machine must keep
    // producing striped numbers, not drift toward first-touch.
    KernelProfile profile =
        smallProfile(AccessPattern::BlockStream, 256);
    auto config = multiGpmConfig(4, BwSetting::Bw2x);
    config.placement = PlacementPolicy::Striped;
    GpuSim striped(config);
    const PerfResult first = striped.run(profile);
    const PerfResult second = striped.run(profile);
    EXPECT_EQ(first, second);
    EXPECT_GT(second.remoteFraction(), 0.5);
}

TEST(GpuSimReuse, TelemetryAttachDetachReattachOnOneMachine)
{
    // A reused machine must survive telemetry mode changes between
    // runs: attached -> detached (no dangling sinks into a dead
    // registry) -> reattached (hooks re-resolve against the new
    // registry). The instrumented runs must also not perturb the
    // numbers.
    KernelProfile profile = smallProfile(AccessPattern::Random, 96);
    GpuSim machine(multiGpmConfig(4, BwSetting::Bw2x));
    const PerfResult bare_first = machine.run(profile);

    {
        telemetry::Telemetry telemetry(
            telemetry::TelemetryConfig{512.0});
        machine.attachTelemetry(&telemetry);
        const PerfResult instrumented = machine.run(profile);
        EXPECT_EQ(instrumented, bare_first);
        const telemetry::Counter *warp_events =
            telemetry.counters().findCounter("sim/events_warp");
        ASSERT_NE(warp_events, nullptr);
        EXPECT_GT(warp_events->value, 0.0);
        machine.attachTelemetry(nullptr); // detach before it dies
    }

    const PerfResult bare_again = machine.run(profile);
    EXPECT_EQ(bare_again, bare_first);

    telemetry::Telemetry second(telemetry::TelemetryConfig{0.0});
    machine.attachTelemetry(&second);
    const PerfResult reattached = machine.run(profile);
    EXPECT_EQ(reattached, bare_first);
    const telemetry::Counter *mem_events =
        second.counters().findCounter("sim/events_mem");
    ASSERT_NE(mem_events, nullptr);
    EXPECT_GT(mem_events->value, 0.0);
}

TEST(GpuSim, SharedLoadsCountSharedTxns)
{
    KernelProfile profile = smallProfile(AccessPattern::BlockStream);
    profile.sharedLoadsPerIter = 3;
    GpuSim sim(baselineConfig());
    PerfResult result = sim.run(profile);
    Count expected = static_cast<Count>(3) * profile.iterations *
                     profile.totalWarps();
    EXPECT_EQ(result.mem.txns[static_cast<std::size_t>(
                  isa::TxnLevel::SharedToReg)],
              expected);
}

// ---------------------------------------------------------------- //
// Trace goldens                                                    //
// ---------------------------------------------------------------- //

/** Exact bit pattern as text — failures print readable hexfloats. */
std::string
hexFloat(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

SegmentAccess
shapedAccess(unsigned segment, AccessPattern pattern,
             unsigned per_iteration, double divergence, double irregular,
             double halo = 0.1, unsigned halo_stride = 64)
{
    SegmentAccess access;
    access.segment = segment;
    access.pattern = pattern;
    access.perIteration = per_iteration;
    access.divergence = divergence;
    access.irregular = irregular;
    access.haloFraction = halo;
    access.haloStride = halo_stride;
    return access;
}

/**
 * Every trace shape in one profile: all five access patterns, with
 * divergence, irregular redirects and halos (one halo stride wider
 * than the grid), shared loads, a compute mix, 6 loads + 3 stores
 * (more accesses than any Table II profile) over segments from
 * 1000 B to 3 MiB, and two launches.
 */
KernelProfile
everyShapeProfile()
{
    KernelProfile p;
    p.name = "every-shape";
    p.ctaCount = 48;
    p.warpsPerCta = 4;
    p.iterations = 5;
    p.launches = 2;
    p.mlp = 6;
    p.seed = 2026;
    p.sharedLoadsPerIter = 2;
    p.compute = {{isa::Opcode::FFMA32, 6},
                 {isa::Opcode::SQRT32, 1},
                 {isa::Opcode::IADD32, 3}};
    p.segments = {{"grid", 3 * units::MiB},
                  {"table", 768 * units::KiB + 100},
                  {"params", 64 * units::KiB},
                  {"tiny", 1000}};
    p.loads = {
        shapedAccess(0, AccessPattern::BlockStream, 2, 0.1, 0.05),
        shapedAccess(0, AccessPattern::Stencil, 1, 0.2, 0.1, 0.3, 5),
        shapedAccess(1, AccessPattern::Random, 1, 0.3, 0.0),
        shapedAccess(1, AccessPattern::Chase, 1, 0.0, 0.0),
        shapedAccess(2, AccessPattern::Broadcast, 1, 0.05, 0.15),
        shapedAccess(3, AccessPattern::Stencil, 1, 0.0, 0.2, 0.5, 70),
    };
    p.stores = {
        shapedAccess(2, AccessPattern::BlockStream, 1, 0.0, 0.0),
        shapedAccess(0, AccessPattern::Stencil, 1, 0.1, 0.0, 0.2, 3),
        shapedAccess(3, AccessPattern::Random, 1, 0.5, 0.0),
    };
    p.validate();
    return p;
}

void
expectPerfGolden(const PerfResult &result)
{
    Fnv1a digest;
    hashFields(digest, result);
    EXPECT_EQ(digest.digest(), 0x3544073e518b5549ull);
    EXPECT_EQ(hexFloat(result.execCycles), "0x1.48b6p+13");
    EXPECT_EQ(hexFloat(result.smBusyCycles), "0x1.b3p+14");
    EXPECT_EQ(hexFloat(result.smStallCycles), "0x1.f295p+13");
    EXPECT_EQ(hexFloat(result.smOccupiedCycles), "0x1.56254p+15");
    EXPECT_EQ(hexFloat(result.dramQueueing), "0x1.ab1dcp+18");
    EXPECT_EQ(hexFloat(result.linkQueueing), "0x1.ad28cp+16");
    EXPECT_EQ(result.totalWarpInstrs(), 42240u);
}

// Goldens recorded before warps of a launch shared one trace program:
// every op of every warp, and the run's results on a fresh and on a
// reused machine (whose per-warp stream state was last sized for a
// one-access profile), must keep these exact bits.
TEST(TraceGoldens, EveryShapeKeepsItsStreamAndResultBits)
{
    const KernelProfile profile = everyShapeProfile();
    const trace::SegmentLayout layout(profile);
    Fnv1a ops;
    Count op_count = 0;
    for (unsigned launch = 0; launch < profile.launches; ++launch) {
        for (unsigned cta = 0; cta < profile.ctaCount; ++cta) {
            for (unsigned warp = 0; warp < profile.warpsPerCta; ++warp) {
                trace::WarpTrace trace(profile, layout, launch, cta,
                                       warp);
                isa::TraceOp op;
                do {
                    op = trace.next();
                    ops.addLow(static_cast<std::uint64_t>(op.kind), 1)
                        .addLow(static_cast<std::uint64_t>(op.op), 1)
                        .add(op.addr)
                        .addLow(op.sectors, 1);
                    ++op_count;
                } while (op.kind != isa::TraceOpKind::Exit);
            }
        }
    }
    EXPECT_EQ(op_count, 25728u);
    EXPECT_EQ(ops.digest(), 0x59b726b4559b7591ull);

    const GpuConfig config = multiGpmConfig(4, BwSetting::Bw1x);
    GpuSim fresh(config);
    const PerfResult first = fresh.run(profile);
    {
        SCOPED_TRACE("fresh machine");
        expectPerfGolden(first);
    }

    GpuSim reused(config);
    std::optional<KernelProfile> one_access = trace::findWorkload("CoMD");
    ASSERT_TRUE(one_access.has_value());
    ASSERT_EQ(one_access->loads.size() + one_access->stores.size(), 1u);
    reused.run(*one_access);
    const PerfResult second = reused.run(profile);
    {
        SCOPED_TRACE("machine that first ran CoMD");
        expectPerfGolden(second);
    }
}

} // namespace
