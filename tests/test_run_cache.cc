/**
 * @file
 * Tests for the persistent on-disk run cache: bit-exact round-trips,
 * graceful handling of missing/corrupt/stale files, and the
 * fingerprint keying.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/fields.hh"
#include "common/wallclock.hh"
#include "harness/run_cache.hh"
#include "harness/study.hh"
#include "sim/gpu_config.hh"
#include "trace/workloads.hh"

namespace
{

using namespace mmgpu;
using namespace mmgpu::harness;

namespace fs = std::filesystem;

/** Fresh scratch path per test (ctest runs tests concurrently). */
std::string
scratchPath(const char *name)
{
    fs::path dir = fs::path("run_cache_scratch") / name;
    fs::remove_all(dir);
    return (dir / "runs.json").string();
}

/** A PerfResult exercising every serialized field with awkward
 *  doubles (non-terminating binary fractions, tiny magnitudes). */
sim::PerfResult
fussyPerf()
{
    sim::PerfResult perf;
    perf.configName = "cfg \"quoted\"";
    perf.workloadName = "wl\\backslash";
    perf.execCycles = 123456789.000000123;
    perf.execSeconds = 0.1; // not representable in binary
    for (std::size_t i = 0; i < perf.instrs.size(); ++i)
        perf.instrs[i] = 0x123456789abcdefull + i;
    for (std::size_t i = 0; i < perf.mem.txns.size(); ++i)
        perf.mem.txns[i] = 7 * i + 1;
    perf.mem.l1SectorMisses = 11;
    perf.mem.l2SectorMisses = 22;
    perf.mem.remoteSectors = 33;
    perf.mem.localSectors = 44;
    perf.mem.writebackSectors = 55;
    perf.link.byteHops = 66;
    perf.link.messageBytes = 77;
    perf.link.switchBytes = 88;
    perf.link.transfers = 99;
    perf.link.rerouted = 111;
    perf.link.arrivals = 112;
    perf.link.deliveredBytes = 113;
    perf.link.reconfigs = 114;
    perf.smBusyCycles = 1.0 / 3.0;
    perf.smStallCycles = 2.0 / 7.0;
    perf.smOccupiedCycles = 1e-300; // subnormal-adjacent
    perf.l1Accesses = 101;
    perf.l1SectorHits = 102;
    perf.l2Accesses = 103;
    perf.l2SectorHits = 104;
    perf.dramQueueing = 3.141592653589793;
    perf.linkQueueing = 2.718281828459045;
    perf.linkBusy = 0x1.fffffffffffffp+100;
    perf.dramBusy = 5e-324; // smallest subnormal
    return perf;
}

joule::EnergyBreakdown
fussyEnergy()
{
    joule::EnergyBreakdown energy;
    energy.smBusy = 1.0 / 9.0;
    energy.smIdle = 1.0 / 11.0;
    energy.constant = 123.456e-5;
    energy.shmToReg = 0.0;
    energy.l1ToReg = 1e22;
    energy.l2ToL1 = 0.30000000000000004;
    energy.dramToL2 = 6.02214076e23;
    energy.interModule = 1.6021766e-19;
    return energy;
}

/**
 * Nudges one leaf of a field-listed record: a depth-first walk over
 * the field lists (common/fields.hh) numbers every scalar, string,
 * sequence element and vector length, and changes leaf number
 * @p target — a double by one ulp, so a codec that rounds shows up.
 */
class Nudge
{
  public:
    explicit Nudge(std::size_t target) : target_(target) {}

    template <typename T>
    void
    visit(const std::string &path, T &value)
    {
        if constexpr (FieldListed<T>) {
            T::fields(value, [&](const char *name, auto &field) {
                visit(path + "." + name, field);
            });
        } else if constexpr (std::is_same_v<T, std::string>) {
            leaf(path, [&] { value += "'"; });
        } else if constexpr (std::ranges::range<T>) {
            for (std::size_t i = 0; i < value.size(); ++i)
                visit(path + "[" + std::to_string(i) + "]", value[i]);
            if constexpr (requires { value.emplace_back(); })
                leaf(path + ".size", [&] { value.emplace_back(); });
        } else if constexpr (std::is_floating_point_v<T>) {
            leaf(path, [&] {
                value = std::nextafter(
                    value, std::numeric_limits<T>::infinity());
            });
        } else if constexpr (std::is_enum_v<T>) {
            leaf(path, [&] {
                value = static_cast<T>(
                    static_cast<std::underlying_type_t<T>>(value) + 1);
            });
        } else {
            leaf(path, [&] { ++value; });
        }
    }

    /** Path of the nudged leaf; empty when the walk had fewer leaves. */
    const std::string &nudged() const { return nudged_; }

  private:
    template <typename Change>
    void
    leaf(const std::string &path, Change &&change)
    {
        if (seen_++ == target_) {
            change();
            nudged_ = path;
        }
    }

    std::size_t target_;
    std::size_t seen_ = 0;
    std::string nudged_;
};

TEST(RunCache, RoundTripIsBitExact)
{
    std::string path = scratchPath("roundtrip");
    sim::PerfResult perf = fussyPerf();
    joule::EnergyBreakdown energy = fussyEnergy();

    {
        RunCache cache(path);
        EXPECT_EQ(cache.size(), 0u);
        cache.insert(0xdeadbeefcafef00dull, perf, energy);
        EXPECT_TRUE(cache.flush());
    }

    RunCache reloaded(path);
    ASSERT_EQ(reloaded.size(), 1u);
    sim::PerfResult perf2;
    joule::EnergyBreakdown energy2;
    ASSERT_TRUE(
        reloaded.lookup(0xdeadbeefcafef00dull, perf2, energy2));
    EXPECT_EQ(perf, perf2);
    EXPECT_EQ(energy, energy2);
    EXPECT_FALSE(reloaded.lookup(0x1234ull, perf2, energy2));
    EXPECT_EQ(reloaded.hits(), 1u);
    EXPECT_EQ(reloaded.misses(), 1u);

    fs::remove_all("run_cache_scratch/roundtrip");
}

TEST(RunCache, CorruptFileIsAMissNotACrash)
{
    std::string path = scratchPath("corrupt");
    fs::create_directories(fs::path(path).parent_path());
    {
        std::ofstream os(path);
        os << "{\"schema\": 1, \"entries\": [this is not json";
    }

    RunCache cache(path);
    EXPECT_EQ(cache.size(), 0u);
    sim::PerfResult perf;
    joule::EnergyBreakdown energy;
    EXPECT_FALSE(cache.lookup(1, perf, energy));

    // The cache stays usable: inserts overwrite the corrupt file.
    cache.insert(1, fussyPerf(), fussyEnergy());
    EXPECT_TRUE(cache.flush());
    RunCache reloaded(path);
    EXPECT_EQ(reloaded.size(), 1u);

    fs::remove_all("run_cache_scratch/corrupt");
}

TEST(RunCache, StaleSchemaIsInvalidated)
{
    std::string path = scratchPath("schema");
    fs::create_directories(fs::path(path).parent_path());
    {
        std::ofstream os(path);
        os << "{\"schema\": 999, \"entries\": []}";
    }
    RunCache cache(path);
    EXPECT_EQ(cache.size(), 0u);
    fs::remove_all("run_cache_scratch/schema");
}

TEST(RunCache, MissingFileIsEmpty)
{
    RunCache cache("run_cache_scratch/missing/does_not_exist.json");
    EXPECT_EQ(cache.size(), 0u);
}

TEST(RunCache, FlushMergesSiblingEntries)
{
    std::string path = scratchPath("merge");
    RunCache a(path);
    RunCache b(path);
    a.insert(1, fussyPerf(), fussyEnergy());
    b.insert(2, fussyPerf(), fussyEnergy());
    EXPECT_TRUE(a.flush());
    EXPECT_TRUE(b.flush()); // must not drop key 1

    RunCache merged(path);
    EXPECT_EQ(merged.size(), 2u);
    fs::remove_all("run_cache_scratch/merge");
}

TEST(RunCache, FingerprintCoversEveryInput)
{
    auto config = sim::multiGpmConfig(4, sim::BwSetting::Bw2x);
    auto workloads = trace::scalingWorkloads();
    const trace::KernelProfile &profile = workloads.front();

    std::uint64_t base = runFingerprint(config, profile, 1.0, -1.0, 7);
    EXPECT_EQ(runFingerprint(config, profile, 1.0, -1.0, 7), base);

    // Any changed input must move the key.
    EXPECT_NE(runFingerprint(config, profile, 2.0, -1.0, 7), base);
    EXPECT_NE(runFingerprint(config, profile, 1.0, 0.5, 7), base);
    EXPECT_NE(runFingerprint(config, profile, 1.0, -1.0, 8), base);

    auto other_config = sim::multiGpmConfig(8, sim::BwSetting::Bw2x);
    EXPECT_NE(runFingerprint(other_config, profile, 1.0, -1.0, 7),
              base);

    trace::KernelProfile reseeded = profile;
    reseeded.seed += 1;
    EXPECT_NE(runFingerprint(config, reseeded, 1.0, -1.0, 7), base);

    trace::KernelProfile stretched = profile;
    stretched.iterations += 1;
    EXPECT_NE(runFingerprint(config, stretched, 1.0, -1.0, 7), base);
}

TEST(FieldLists, EveryInputFieldMovesFingerprintAndRunKey)
{
    // A base point whose every sequence holds an element, so the walk
    // reaches the fields of LinkFault, ComputeMix, SegmentAccess and
    // DataSegment too.
    RunKey base{sim::multiGpmConfig(4, sim::BwSetting::Bw2x),
                trace::scalingWorkloads().front()};
    base.config.linkFaults.faults.push_back({1, 0, 0.5});
    base.profile.stores = base.profile.loads;
    ASSERT_FALSE(base.profile.compute.empty());
    ASSERT_FALSE(base.profile.loads.empty());
    ASSERT_FALSE(base.profile.segments.empty());
    auto fingerprint = [](const RunKey &key) {
        return runFingerprint(key.config, key.profile,
                              key.linkEnergyScale,
                              key.constGrowthOverride, 7);
    };

    std::size_t leaves = 0;
    for (;; ++leaves) {
        RunKey key = base;
        auto &[config, profile, scale, growth] = key;
        Nudge nudge(leaves);
        nudge.visit("config", config);
        nudge.visit("profile", profile);
        nudge.visit("linkEnergyScale", scale);
        nudge.visit("constGrowthOverride", growth);
        if (nudge.nudged().empty())
            break;
        SCOPED_TRACE(nudge.nudged());
        EXPECT_NE(fingerprint(key), fingerprint(base));
        EXPECT_TRUE(key != base);
        EXPECT_TRUE(key < base || base < key);
    }
    EXPECT_GT(leaves, 60u);
}

TEST(FieldLists, LinkFaultOrderAndDeratingMoveTheFingerprint)
{
    // The fault list is hashed in order, like every sequence field:
    // the same faults in another order are another point, and so is
    // a derated fault. The nudge walk above changes one value at a
    // time, so it never reorders.
    sim::GpuConfig faulted = sim::multiGpmConfig(4, sim::BwSetting::Bw2x);
    faulted.linkFaults.faults.push_back({0, 0, 0.0});
    faulted.linkFaults.faults.push_back({1, 1, 0.5});
    sim::GpuConfig reordered = faulted;
    std::swap(reordered.linkFaults.faults[0],
              reordered.linkFaults.faults[1]);
    sim::GpuConfig derated = faulted;
    derated.linkFaults.faults[0].capacityScale = 0.25;
    const trace::KernelProfile &profile =
        trace::scalingWorkloads().front();
    auto fingerprint = [&](const sim::GpuConfig &config) {
        return runFingerprint(config, profile, 1.0, -1.0, 7);
    };

    EXPECT_EQ(fingerprint(faulted), fingerprint(sim::GpuConfig{faulted}));
    EXPECT_NE(fingerprint(faulted), fingerprint(reordered));
    EXPECT_NE(fingerprint(faulted), fingerprint(derated));
}

TEST(FieldLists, EveryResultFieldRoundTripsAndBreaksEquality)
{
    std::string path = scratchPath("fields");
    const sim::PerfResult perf = fussyPerf();
    const joule::EnergyBreakdown energy = fussyEnergy();

    std::vector<sim::PerfResult> perfs;
    std::vector<joule::EnergyBreakdown> energies;
    std::vector<std::string> paths;
    for (;;) {
        sim::PerfResult p = perf;
        joule::EnergyBreakdown e = energy;
        Nudge nudge(paths.size());
        nudge.visit("perf", p);
        nudge.visit("energy", e);
        if (nudge.nudged().empty())
            break;
        EXPECT_TRUE(p != perf || e != energy) << nudge.nudged();
        perfs.push_back(p);
        energies.push_back(e);
        paths.push_back(nudge.nudged());
    }
    EXPECT_GT(paths.size(), 60u);

    {
        RunCache cache(path);
        for (std::size_t i = 0; i < paths.size(); ++i)
            cache.insert(i, perfs[i], energies[i]);
    } // no flush: every entry lives only in the journal

    auto expectServed = [&](RunCache &cache) {
        for (std::size_t i = 0; i < paths.size(); ++i) {
            SCOPED_TRACE(paths[i]);
            sim::PerfResult p;
            joule::EnergyBreakdown e;
            ASSERT_TRUE(cache.lookup(i, p, e));
            EXPECT_EQ(p, perfs[i]);
            EXPECT_EQ(e, energies[i]);
        }
    };
    {
        RunCache replayed(path);
        EXPECT_EQ(replayed.walReplayed(), paths.size());
        expectServed(replayed);
        EXPECT_TRUE(replayed.flush()); // snapshot; journal truncated
    }
    RunCache reopened(path);
    EXPECT_EQ(reopened.walReplayed(), 0u);
    expectServed(reopened);

    fs::remove_all("run_cache_scratch/fields");
}

TEST(RunCache, CrashLosesNothingThanksToJournal)
{
    std::string path = scratchPath("crash");

    // The "crashing" process: entry 1 reaches the snapshot via an
    // explicit flush (which truncates the journal), entry 2 lives
    // only in memory + journal when the process dies without running
    // destructors or the atexit flush — the kill -9 model.
    pid_t pid = fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
        RunCache doomed(path);
        doomed.insert(1, fussyPerf(), fussyEnergy());
        bool flushed = doomed.flush();
        doomed.insert(2, fussyPerf(), fussyEnergy());
        _exit(flushed ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);

    // The survivor replays the journal: BOTH entries come back
    // bit-exactly — a crash loses zero completed simulations.
    RunCache survivor(path);
    EXPECT_EQ(survivor.size(), 2u);
    EXPECT_EQ(survivor.walReplayed(), 1u); // only the unflushed one
    sim::PerfResult perf;
    joule::EnergyBreakdown energy;
    EXPECT_TRUE(survivor.lookup(1, perf, energy));
    EXPECT_EQ(fussyPerf(), perf);
    EXPECT_TRUE(survivor.lookup(2, perf, energy));
    EXPECT_EQ(fussyPerf(), perf);

    // And stays writable: post-crash work merges on top, and the
    // flush folds the replayed record into the snapshot and empties
    // the journal.
    survivor.insert(3, fussyPerf(), fussyEnergy());
    EXPECT_TRUE(survivor.flush());
    std::error_code ec;
    EXPECT_EQ(fs::file_size(survivor.walPath(), ec), 0u);
    RunCache merged(path);
    EXPECT_EQ(merged.size(), 3u);
    EXPECT_EQ(merged.walReplayed(), 0u);

    fs::remove_all("run_cache_scratch/crash");
}

TEST(RunCache, CrashLosesUnflushedInsertsWithJournalDisabled)
{
    std::string path = scratchPath("crash_nowal");
    setenv("MMGPU_CACHE_WAL", "0", 1);

    pid_t pid = fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
        RunCache doomed(path);
        doomed.insert(1, fussyPerf(), fussyEnergy());
        bool flushed = doomed.flush();
        doomed.insert(2, fussyPerf(), fussyEnergy());
        _exit(flushed ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);

    // Flush-only durability: the survivor sees exactly the flushed
    // state — never a torn file (flush is write-tmp + rename), and
    // the lost insert is simply recomputed.
    RunCache survivor(path);
    EXPECT_FALSE(survivor.walEnabled());
    EXPECT_EQ(survivor.size(), 1u);
    sim::PerfResult perf;
    joule::EnergyBreakdown energy;
    EXPECT_TRUE(survivor.lookup(1, perf, energy));
    EXPECT_FALSE(survivor.lookup(2, perf, energy));

    unsetenv("MMGPU_CACHE_WAL");
    fs::remove_all("run_cache_scratch/crash_nowal");
}

TEST(RunCache, TornJournalRecordIsDroppedNotContagious)
{
    std::string path = scratchPath("torn");
    {
        RunCache cache(path);
        cache.armWalTear(2); // the second append dies mid-payload
        cache.insert(1, fussyPerf(), fussyEnergy());
        cache.insert(2, fussyPerf(), fussyEnergy()); // torn
        cache.insert(3, fussyPerf(), fussyEnergy());
        // No flush: everything must come back from the journal.
    }

    // Replay drops exactly the torn record — its neighbours survive
    // because each append leads with the newline that terminates a
    // torn predecessor.
    RunCache reloaded(path);
    EXPECT_EQ(reloaded.size(), 2u);
    EXPECT_EQ(reloaded.walReplayed(), 2u);
    sim::PerfResult perf;
    joule::EnergyBreakdown energy;
    EXPECT_TRUE(reloaded.lookup(1, perf, energy));
    EXPECT_EQ(fussyPerf(), perf);
    EXPECT_FALSE(reloaded.lookup(2, perf, energy));
    EXPECT_TRUE(reloaded.lookup(3, perf, energy));

    fs::remove_all("run_cache_scratch/torn");
}

TEST(RunCache, StopAutoFlushPerformsFinalFlushAndTruncatesJournal)
{
    std::string path = scratchPath("finalflush");
    {
        RunCache cache(path);
        cache.startAutoFlush(3600.0); // never fires on its own
        cache.insert(7, fussyPerf(), fussyEnergy());
        cache.stopAutoFlush(); // must flush + truncate, not just join

        std::error_code ec;
        EXPECT_EQ(fs::file_size(cache.walPath(), ec), 0u);
    }

    // The snapshot alone (journal disabled) holds the entry.
    setenv("MMGPU_CACHE_WAL", "0", 1);
    RunCache probe(path);
    unsetenv("MMGPU_CACHE_WAL");
    EXPECT_EQ(probe.size(), 1u);

    fs::remove_all("run_cache_scratch/finalflush");
}

TEST(RunCache, AutoFlushPersistsEntriesInTheBackground)
{
    std::string path = scratchPath("autoflush");
    RunCache cache(path);
    cache.startAutoFlush(0.05);
    cache.insert(42, fussyPerf(), fussyEnergy());

    // No explicit flush(): the background thread must land it in the
    // snapshot (probes read with the journal disabled, so a WAL
    // append alone cannot satisfy them).
    std::int64_t deadline = wallclock::nowMs() + 10000;
    bool persisted = false;
    while (!persisted && wallclock::nowMs() < deadline) {
        setenv("MMGPU_CACHE_WAL", "0", 1);
        RunCache probe(path);
        unsetenv("MMGPU_CACHE_WAL");
        persisted = probe.size() == 1;
        if (!persisted)
            wallclock::sleepMs(20);
    }
    EXPECT_TRUE(persisted);
    EXPECT_GE(cache.autoFlushes(), 1u);

    cache.stopAutoFlush();
    std::uint64_t passes = cache.autoFlushes();
    wallclock::sleepMs(150);
    EXPECT_EQ(cache.autoFlushes(), passes); // stop means stopped

    fs::remove_all("run_cache_scratch/autoflush");
}

TEST(RunCache, AutoFlushEnvKnobParsesDefensively)
{
    unsetenv("MMGPU_CACHE_FLUSH_SEC");
    EXPECT_EQ(RunCache::autoFlushSecondsFromEnv(), 0.0);
    setenv("MMGPU_CACHE_FLUSH_SEC", "", 1);
    EXPECT_EQ(RunCache::autoFlushSecondsFromEnv(), 0.0);
    setenv("MMGPU_CACHE_FLUSH_SEC", "nonsense", 1);
    EXPECT_EQ(RunCache::autoFlushSecondsFromEnv(), 0.0);
    setenv("MMGPU_CACHE_FLUSH_SEC", "-5", 1);
    EXPECT_EQ(RunCache::autoFlushSecondsFromEnv(), 0.0);
    setenv("MMGPU_CACHE_FLUSH_SEC", "2.5x", 1);
    EXPECT_EQ(RunCache::autoFlushSecondsFromEnv(), 0.0);
    setenv("MMGPU_CACHE_FLUSH_SEC", "2.5", 1);
    EXPECT_EQ(RunCache::autoFlushSecondsFromEnv(), 2.5);
    unsetenv("MMGPU_CACHE_FLUSH_SEC");
}

} // namespace
