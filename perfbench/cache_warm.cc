/**
 * @file
 * cache_warm: the read path of the persistent run cache.
 *
 * Set-up simulates a small real sweep (14 workloads x {1,2,4}-GPM,
 * 2x-BW: 42 points) into a bench-private cache, flushes the first half
 * to the file and leaves the second half only in the write-ahead log.
 * Every timed round then does what a restarted daemon or bench binary
 * does: construct a RunCache on that path (load plus WAL replay),
 * attach a fresh ScalingRunner, look every point up in a seeded order
 * through run() (fingerprint, lookup, copy-out, memo insert) and
 * aggregate the scaling studies through scalingStudy(). The whole
 * round is the cold (restart-to-served) sample; the part after the
 * cache is open is the warm sample. Both are host-adjusted: each round
 * is followed by the reference (see referenceSeconds) and its times are
 * scaled by it to the nominal host speed.
 * Zero points may simulate and zero lookups may miss.
 */

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <random>

#include "harness/parallel_runner.hh"
#include "harness/run_cache.hh"
#include "perfbench.hh"
#include "trace.hh"

namespace perfbench
{

using namespace mmgpu;

namespace
{

/** Set-ups behind setup_s (each simulates the 42 points). */
constexpr unsigned setupRepetitions = 2;

/** Rounds a traced run makes untraced and then traced. */
constexpr std::size_t tracedRounds = 200;

struct Round
{
    double servedSeconds = 0.0; //!< open + serve: the cold sample
    double warmSeconds = 0.0;   //!< serve from the open cache
    double reference = 0.0;     //!< the reference, run right after
    double warpInstrs = 0.0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

bool
sameStudy(const std::vector<harness::ScalingPoint> &a,
          const std::vector<harness::ScalingPoint> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double x[] = {a[i].speedup, a[i].energyRatio, a[i].edpse,
                            a[i].ed2pse, a[i].perfPerWattSE};
        const double y[] = {b[i].speedup, b[i].energyRatio, b[i].edpse,
                            b[i].ed2pse, b[i].perfPerWattSE};
        if (a[i].workload != b[i].workload ||
            std::memcmp(x, y, sizeof(x)) != 0)
            return false;
    }
    return true;
}

} // namespace

Report
runCacheWarm(const Args &args)
{
    Report report;
    std::vector<sim::GpuConfig> configs = {
        sim::baselineConfig(),
        sim::multiGpmConfig(2, sim::BwSetting::Bw2x),
        sim::multiGpmConfig(4, sim::BwSetting::Bw2x)};
    std::vector<Point> points;
    for (const auto &config : configs)
        for (const auto &profile : suite())
            points.push_back({config, profile});
    const std::size_t flushed = points.size() / 2;

    TimedContext ctx;
    std::string path;
    Outcomes expected;
    std::vector<std::vector<harness::ScalingPoint>> studies;
    double setup_drain = 0.0;
    const unsigned workers = hostWorkers();
    for (unsigned k = 0; k < setupRepetitions; ++k) {
        Clock::time_point start = Clock::now();
        ctx = calibrate();
        std::string dir = args.dir + "/warm" + std::to_string(k);
        std::filesystem::create_directories(dir);
        path = dir + "/runs.json";
        expected.clear();
        studies.clear();
        setup_drain = 0.0;
        {
            harness::RunCache cache(path);
            harness::ScalingRunner runner(*ctx.context);
            runner.attachPersistentCache(&cache);
            for (std::size_t half = 0; half < 2; ++half) {
                harness::ParallelRunner pool(runner, workers);
                std::size_t begin = half ? flushed : 0;
                std::size_t end = half ? points.size() : flushed;
                for (std::size_t i = begin; i < end; ++i)
                    pool.enqueue(points[i].config, points[i].profile);
                Clock::time_point drain_start = Clock::now();
                harness::DrainReport drained;
                {
                    Scope span("harness.drain");
                    drained = pool.drain();
                }
                setup_drain += secondsSince(drain_start);
                if (!drained.ok())
                    report.mismatch("set-up point failed");
                // The first half goes to the file; the second stays in
                // the WAL (no flush, and no auto-flush thread).
                if (half == 0 && !cache.flush())
                    report.mismatch("set-up flush failed");
            }
            for (const Point &point : points)
                expected[point.key()] =
                    runner.run(point.config, point.profile);
            for (std::size_t c = 1; c < configs.size(); ++c)
                studies.push_back(
                    harness::scalingStudy(runner, configs[c], suite()));
        }
        report.setupSeconds.push_back(secondsSince(start));
        report.calibrateSeconds.push_back(ctx.calibrateSeconds);
    }
    const harness::StudyContext &context = *ctx.context;

    std::mt19937_64 rng(args.seed);
    std::vector<std::size_t> order(points.size());
    std::vector<std::size_t> study_order(configs.size() - 1);
    auto round = [&](Round &out) {
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::shuffle(order.begin(), order.end(), rng);
        for (std::size_t i = 0; i < study_order.size(); ++i)
            study_order[i] = i;
        std::shuffle(study_order.begin(), study_order.end(), rng);

        std::vector<const harness::RunOutcome *> served(points.size());
        std::vector<std::vector<harness::ScalingPoint>> aggregated(
            study_order.size());
        Clock::time_point start = Clock::now();
        std::unique_ptr<harness::RunCache> cache;
        {
            Scope span("harness.cache_open");
            cache = std::make_unique<harness::RunCache>(path);
        }
        Clock::time_point opened = Clock::now();
        harness::ScalingRunner runner(context);
        runner.attachPersistentCache(cache.get());
        for (std::size_t i : order) {
            Scope span("harness.run");
            served[i] = &runner.run(points[i].config, points[i].profile);
        }
        for (std::size_t c : study_order) {
            Scope span("harness.scaling_study");
            aggregated[c] =
                harness::scalingStudy(runner, configs[c + 1], suite());
        }
        Clock::time_point done = Clock::now();
        out.servedSeconds = std::chrono::duration<double>(done - start).count();
        out.warmSeconds =
            std::chrono::duration<double>(done - opened).count();
        out.reference = referenceSeconds();

        // Check outside the clock: every answer is what set-up
        // inserted, nothing missed, the WAL half was replayed.
        out.hits = cache->hits();
        out.misses = cache->misses();
        report.attempted += points.size();
        report.failed += out.misses;
        if (out.misses != 0)
            report.mismatch("cache_warm lookup missed");
        if (cache->walReplayed() != points.size() - flushed)
            report.mismatch("WAL replay count " +
                            std::to_string(cache->walReplayed()));
        for (std::size_t i = 0; i < points.size(); ++i) {
            out.warpInstrs +=
                static_cast<double>(served[i]->perf.totalWarpInstrs());
            if (!sameBits(*served[i], expected.at(points[i].key())))
                report.mismatch("cache read differs from insert: " +
                                points[i].key());
        }
        for (std::size_t c = 0; c < studies.size(); ++c)
            if (!sameStudy(aggregated[c], studies[c]))
                report.mismatch("scaling study differs from set-up: " +
                                configs[c + 1].name);
    };

    // A traced run only needs enough untraced rounds to compare the
    // traced ones with.
    std::vector<Round> rounds;
    if (args.trace) {
        rounds.resize(tracedRounds);
        for (Round &r : rounds)
            round(r);
    } else {
        runRounds(args.seconds, [&] {
            rounds.emplace_back();
            round(rounds.back());
        });
    }

    std::uint64_t hits = 0, misses = 0;
    std::vector<double> cold, warm, raw_cold, reference;
    for (const Round &r : rounds) {
        hits += r.hits;
        misses += r.misses;
        cold.push_back(hostAdjusted(r.servedSeconds, r.reference));
        warm.push_back(hostAdjusted(r.warmSeconds, r.reference));
        raw_cold.push_back(r.servedSeconds);
        reference.push_back(r.reference);
    }
    const double cold_p50 = median(cold);
    report.e2e["points_per_s"] = static_cast<double>(points.size()) / cold_p50;
    report.e2e["sim_minstr_per_s"] =
        rounds.front().warpInstrs / cold_p50 / 1e6;
    report.e2e["cold_p50_ms"] = 1e3 * cold_p50;
    report.e2e["warm_p50_ms"] = 1e3 * median(warm);
    report.e2e["warm_p99_ms"] = 1e3 * quantile(warm, 0.99);
    report.notes["rounds"] = static_cast<double>(rounds.size());
    report.notes["raw_cold_p50_ms"] = 1e3 * median(raw_cold);
    report.notes["reference_p50_ms"] = 1e3 * median(reference);

    seal(report, expected);

    if (args.trace) {
        std::vector<Round> traced(tracedRounds);
        tracedPhase("cache_warm.timed", report, [&] {
            for (Round &r : traced)
                round(r);
        });
        std::vector<double> traced_cold;
        for (const Round &r : traced) {
            traced_cold.push_back(
                hostAdjusted(r.servedSeconds, r.reference));
            hits += r.hits;
            misses += r.misses;
        }
        report.layers["trace.overhead_frac"] =
            median(traced_cold) / cold_p50 - 1.0;
        report.notes["trace.overhead_ms"] =
            1e3 * (median(traced_cold) - cold_p50);
        std::vector<double> point_seconds = replay(
            context, points, expected, args.dir + "/replay", report);
        double serial = 0.0;
        for (double s : point_seconds)
            serial += s;
        report.layers["harness.par_eff"] =
            serial / (workers * setup_drain);
        report.layers["harness.cache_hits"] = static_cast<double>(hits);
        report.layers["harness.cache_misses"] = static_cast<double>(misses);
    }
    return report;
}

} // namespace perfbench
