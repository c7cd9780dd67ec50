/**
 * @file
 * sweep_cold: the Figure 6 sweep, cold.
 *
 * 14 scaling workloads x {1,2,4,8,16,32}-GPM, 2x-BW ring on-package:
 * 84 points, enqueued config-major (as the figure benches do through
 * enqueueStudy) into one ParallelRunner with one worker per hardware
 * thread and drained. Every round starts from a fresh memo and a fresh
 * bench-private run cache with reads off, so every point simulates.
 * Set-up is calibration plus one warm-up point on the direct path.
 *
 * The cold phase never reads the cache. After the drain the cache is
 * flushed, and Figure 6's warm pass is repeated 1500 times on the file
 * it wrote: a fresh runner reads all 84 points back (run(), one
 * thread; each call is a warm latency sample) and aggregates every
 * cell (scalingStudy). Each pass is followed by the reference (see
 * referenceSeconds), and its samples are host-adjusted by it.
 */

#include <filesystem>

#include "harness/parallel_runner.hh"
#include "harness/run_cache.hh"
#include "perfbench.hh"
#include "trace.hh"

namespace perfbench
{

using namespace mmgpu;

namespace
{

constexpr int warmPasses = 1500;

/** Warm passes of a traced round (each pass is 90 spans). */
constexpr int tracedWarmPasses = 200;

/** Set-ups (calibration plus a warm-up point) made before the sweep;
 *  an untraced run makes as many again after it, so that setup_s,
 *  their median, samples the host at both ends of the run. */
constexpr unsigned setupRepetitions = 4;

/** Passes run untraced and then traced to measure tracing overhead. */
constexpr int overheadPasses = 50;

struct Sweep
{
    std::vector<sim::GpuConfig> configs;
    std::vector<Point> points; //!< the 84 unique points, enqueue order
};

Sweep
makeSweep()
{
    Sweep sweep;
    for (unsigned n : sim::tableThreeGpmCounts())
        sweep.configs.push_back(
            sim::multiGpmConfig(n, sim::BwSetting::Bw2x));
    for (const auto &profile : suite())
        sweep.points.push_back({sim::baselineConfig(), profile});
    for (const auto &config : sweep.configs)
        for (const auto &profile : suite())
            sweep.points.push_back({config, profile});
    return sweep;
}

/** What one round measured. */
struct Round
{
    double drainSeconds = 0.0;
    std::vector<double> warmSeconds; //!< per run() call, host-adjusted
    double warpInstrs = 0.0;
    std::string written; //!< the cache file the round wrote
};

/** @p passes warm passes over @p written; appends the host-adjusted
 *  seconds of every run() call to @p seconds. */
void
warm(const harness::StudyContext &context, const Sweep &sweep,
     harness::RunCache &written, int passes, std::vector<double> &seconds)
{
    std::vector<double> calls;
    for (int pass = 0; pass < passes; ++pass) {
        calls.clear();
        harness::ScalingRunner runner(context);
        runner.attachPersistentCache(&written);
        for (const Point &point : sweep.points) {
            Clock::time_point t = Clock::now();
            Scope span("harness.run");
            runner.run(point.config, point.profile);
            calls.push_back(secondsSince(t));
        }
        for (const auto &config : sweep.configs) {
            Scope span("harness.scaling_study");
            harness::scalingStudy(runner, config, suite());
        }
        const double reference = referenceSeconds();
        for (double call : calls)
            seconds.push_back(hostAdjusted(call, reference));
    }
}

double
sum(const std::vector<double> &values)
{
    double total = 0.0;
    for (double v : values)
        total += v;
    return total;
}

} // namespace

Report
runSweepCold(const Args &args)
{
    Report report;
    const Sweep sweep = makeSweep();

    const unsigned workers = hostWorkers();
    TimedContext ctx = calibrateAndWarmUp(report, setupRepetitions);
    const harness::StudyContext &context = *ctx.context;

    Outcomes outcomes;
    int round_index = 0;
    std::uint64_t cold_reads = 0;
    // One cold round: fresh memo, fresh run cache (reads off, writes
    // on), config-major enqueue, drain, then the warm passes.
    auto round = [&](Round &out) {
        std::string dir =
            args.dir + "/sweep" + std::to_string(round_index++);
        std::filesystem::create_directories(dir);
        out.written = dir + "/runs.json";
        harness::RunCache cache(out.written);
        harness::ScalingRunner runner(context);
        runner.attachPersistentCache(&cache);
        runner.setPersistentReads(false);

        Clock::time_point start = Clock::now();
        harness::DrainReport drained;
        {
            harness::ParallelRunner pool(runner, workers);
            {
                Scope span("harness.enqueue");
                for (const auto &config : sweep.configs)
                    pool.enqueueStudy(config, suite());
            }
            Scope span("harness.drain");
            drained = pool.drain();
        }
        out.drainSeconds = secondsSince(start);
        report.attempted += sweep.points.size();
        report.failed += drained.failures.size();
        for (const auto &failure : drained.failures)
            report.mismatch("point failed: " +
                            harness::runKeyName(failure.key));

        for (const Point &point : sweep.points) {
            const harness::RunOutcome &outcome =
                runner.run(point.config, point.profile);
            out.warpInstrs +=
                static_cast<double>(outcome.perf.totalWarpInstrs());
            auto [it, fresh] = outcomes.try_emplace(point.key(), outcome);
            if (!fresh && !sameBits(it->second, outcome))
                report.mismatch("round differs from round 0: " +
                                point.key());
        }
        {
            Scope span("harness.cache_flush");
            if (!cache.flush())
                report.mismatch("bench-private cache flush failed");
        }
        cold_reads += cache.hits() + cache.misses();

        harness::RunCache written(out.written);
        warm(context, sweep, written,
             args.trace ? tracedWarmPasses : warmPasses, out.warmSeconds);
        if (written.misses() != 0)
            report.mismatch("warm pass missed the written cache");
    };

    if (!args.trace) {
        std::vector<Round> rounds;
        runRounds(args.seconds, [&] {
            rounds.emplace_back();
            round(rounds.back());
        });
        calibrateAndWarmUp(report, setupRepetitions);
        double drain_total = 0.0, instrs = 0.0;
        std::vector<double> drains, warm_seconds;
        for (const Round &r : rounds) {
            drain_total += r.drainSeconds;
            instrs += r.warpInstrs;
            drains.push_back(r.drainSeconds);
            warm_seconds.insert(warm_seconds.end(), r.warmSeconds.begin(),
                                r.warmSeconds.end());
        }
        double points =
            static_cast<double>(sweep.points.size() * rounds.size());
        report.e2e["points_per_s"] = points / drain_total;
        report.e2e["sim_minstr_per_s"] = instrs / drain_total / 1e6;
        report.e2e["cold_p50_ms"] = 1e3 * median(drains);
        report.e2e["warm_p50_ms"] = 1e3 * median(warm_seconds);
        report.e2e["warm_p99_ms"] = 1e3 * quantile(warm_seconds, 0.99);
        report.notes["rounds"] = static_cast<double>(rounds.size());
        report.notes["warm_samples"] =
            static_cast<double>(warm_seconds.size());
    } else {
        // One traced round, then the overhead probe: the span-dense
        // warm passes again, untraced and traced (the drain carries
        // two spans, so its tracing cost is nil by construction).
        Round traced;
        tracedPhase("sweep_cold.timed", report, [&] { round(traced); });
        {
            // Traced between two untraced batches; their mean is the
            // baseline.
            harness::RunCache written(traced.written);
            std::vector<double> plain, spanned;
            warm(context, sweep, written, overheadPasses, plain);
            tracedPhase("sweep_cold.warm", report, [&] {
                warm(context, sweep, written, overheadPasses, spanned);
            });
            warm(context, sweep, written, overheadPasses, plain);
            double baseline = 0.5 * sum(plain);
            report.layers["trace.overhead_frac"] =
                sum(spanned) / baseline - 1.0;
            report.notes["trace.overhead_ms"] =
                1e3 * (sum(spanned) - baseline);
        }
        std::vector<double> point_seconds =
            replay(context, sweep.points, outcomes, args.dir + "/replay",
                   report);
        report.layers["harness.par_eff"] =
            sum(point_seconds) / (workers * traced.drainSeconds);
        report.notes["harness.serial_point_s"] = sum(point_seconds);
        // Reads are off in the cold phase: neither counter may move.
        report.layers["harness.cache_hits"] = 0.0;
        report.layers["harness.cache_misses"] =
            static_cast<double>(cold_reads);
    }
    if (cold_reads != 0)
        report.mismatch("the cold sweep read the persistent cache");
    seal(report, outcomes);
    return report;
}

} // namespace perfbench
