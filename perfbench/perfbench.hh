/**
 * @file
 * Shared vocabulary of the repository benchmark.
 *
 * The benchmark drives the simulator only through public functions of
 * its layers (harness::StudyContext, sim::GpuSim, joule::estimate,
 * harness::ParallelRunner / ScalingRunner / RunCache /
 * runFingerprint, serve::SimService) and times each call from the
 * outside. Every workload is one function that sets itself up, runs
 * its timed phase for a wall-clock budget, checks its answers and
 * fills a Report; main.cc turns the Report into the result file that
 * run.py reads.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/study.hh"
#include "sim/gpu_config.hh"
#include "trace/kernel_profile.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** Command-line arguments of one workload process. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0; //!< timed-phase budget
    bool trace = false;    //!< traced run (per-layer metrics)
    std::string dir;       //!< private scratch dir (caches, spans)
};

/** ParallelRunner workers: the CPUs this process may run on. */
unsigned hostWorkers();

/** One design point: a machine configuration and a workload. */
struct Point
{
    mmgpu::sim::GpuConfig config;
    mmgpu::trace::KernelProfile profile;

    /** Stable identity: config name, placement, workload. */
    std::string key() const;
};

/** The 14-workload strong-scaling suite (paper §V-A). */
const std::vector<mmgpu::trace::KernelProfile> &suite();

/** A Table II workload by name (fatal when unknown). */
mmgpu::trace::KernelProfile workload(const std::string &name);

/** Outcomes keyed by Point::key(). */
using Outcomes = std::map<std::string, mmgpu::harness::RunOutcome>;

/** True when @p a and @p b agree bit for bit in every digested
 *  field. */
bool sameBits(const mmgpu::harness::RunOutcome &a,
              const mmgpu::harness::RunOutcome &b);

/** Nearest-rank @p q quantile (0..1); 0 for an empty sample. */
double quantile(std::vector<double> values, double q);

/** Median of @p values. */
double median(std::vector<double> values);

/**
 * Host-speed reference: a fixed piece of work of the same kind as the
 * run cache's read path (hexfloat formatting, string keys, an ordered
 * map), timed; @return its wall seconds. It calls no simulator code,
 * so a change to the simulator cannot move it.
 *
 * On a shared host the speed of millisecond work swings by half, in
 * phases of seconds, with what the neighbours run; a whole run can
 * land in a slow phase. A workload whose timed operation lasts about
 * a millisecond runs the reference right after each operation and
 * reports hostAdjusted() times: the ratio of the two moved by a few
 * percent across such phases where the raw times moved by 30-50%.
 */
double referenceSeconds();

/** The reference's wall time on a quiet core of a 4-vCPU Intel Xeon
 *  VM: the host speed hostAdjusted() scales to. */
constexpr double referenceNominalSeconds = 0.5e-3;

/** @p seconds, measured next to a reference that took
 *  @p reference_seconds, expressed at the nominal host speed. */
inline double
hostAdjusted(double seconds, double reference_seconds)
{
    return seconds / reference_seconds * referenceNominalSeconds;
}

/** What a workload measured and checked. */
struct Report
{
    /** End-to-end metrics (always filled; main.cc adds setup_s). */
    std::map<std::string, double> e2e;

    /** Per-layer metrics (filled in traced runs). */
    std::map<std::string, double> layers;

    /** Human-readable per-layer extras that are not in the
     *  BENCHMARK.json set (workload-specific timings). */
    std::map<std::string, double> notes;

    std::uint64_t attempted = 0; //!< operations attempted
    std::uint64_t failed = 0;    //!< failed or refused operations

    /** Same-answer gate findings; any entry fails the run. */
    std::vector<std::string> mismatches;

    /** Digest over the workload's seed-independent point set. */
    std::string digest;
    std::size_t digestPoints = 0;

    /** Wall seconds of each set-up repetition. */
    std::vector<double> setupSeconds;
    std::vector<double> calibrateSeconds;

    /** Record a mismatch (keeps the first few verbatim). */
    void mismatch(const std::string &what);
};

/**
 * Set @p report's digest (FNV-1a over the hexfloat text of every
 * PerfResult and EnergyBreakdown field, in key order) and its exact
 * simulated counts (the sim.*, mem.* and noc.* per-layer metrics)
 * from @p outcomes, the workload's seed-independent point set.
 */
void seal(Report &report, const Outcomes &outcomes);

/** A fresh calibrated context, timing the constructor. */
struct TimedContext
{
    std::unique_ptr<mmgpu::harness::StudyContext> context;
    double calibrateSeconds = 0.0;
};
TimedContext calibrate();

/**
 * Run @p body with tracing on, under a root span @p name, then check
 * the root tree's self-time accounting (layer self times plus the
 * unspanned remainder must add up to the root's wall clock) into
 * @p report. @return the root's wall seconds.
 */
double tracedPhase(const char *name, Report &report,
                   const std::function<void()> &body);

/**
 * Run @p round repeatedly until the next round would overrun
 * @p seconds of measured time (at least once). @return the wall
 * seconds of each round.
 */
std::vector<double> runRounds(double seconds,
                              const std::function<void()> &round);

/**
 * Set-up by calibration and a warm-up point, repeated
 * @p repetitions times into @p report: calibrate, then warm the
 * simulator up with one cheap point on the direct path (so the first
 * timed point does not carry the process's first-touch costs).
 * @return the last repetition's context (every repetition's is alike:
 * later ones only add samples to setup_s).
 */
TimedContext calibrateAndWarmUp(Report &report, unsigned repetitions);

/** Engine totals from a counters-only telemetry collector. */
struct EngineTotals
{
    double runSeconds = 0.0; //!< sum of GpuSim::run
    double eventsWarp = 0.0;
    double eventsMem = 0.0;
};

/**
 * Run @p points on one thread through the direct public path: GpuSim
 * (built when the machine identity changes, reused for consecutive
 * points) -> run -> paramsFor -> inputsFrom -> estimate, each call a
 * span. Appends each point's wall seconds (its build, if any, run and
 * estimate) to @p seconds when given. With
 * @p totals, a counters-only telemetry collector is attached to every
 * run and the engine's event counts and run time are summed into it.
 */
Outcomes runDirect(const mmgpu::harness::StudyContext &context,
                   const std::vector<Point> &points,
                   std::vector<double> *seconds, EngineTotals *totals);

/**
 * Persist @p outcomes through a fresh RunCache under @p dir and read
 * them back: runFingerprint, serve encoding, insert (with the WAL
 * append), flush, reopen, lookup, each call a span. A read that
 * differs from what was inserted is a mismatch.
 */
void cacheRoundTrip(const mmgpu::harness::StudyContext &context,
                    const std::vector<Point> &points,
                    const Outcomes &outcomes, const std::string &dir,
                    Report &report);

/** sim.run_s, sim.ns_per_event and engine.events_* from @p totals. */
void engineMetrics(const EngineTotals &totals, Report &report);

/** Record a mismatch for every outcome of @p got that is missing from
 *  @p expected or differs from it. */
void compareOutcomes(const Outcomes &got, const Outcomes &expected,
                     const char *what, Report &report);

/**
 * The traced replay: runDirect over @p points (with engine counters)
 * and cacheRoundTrip, traced under a "replay" root, each outcome
 * compared bit for bit with @p expected.
 * @return per-point single-thread seconds (build, run, estimate).
 */
std::vector<double> replay(const mmgpu::harness::StudyContext &context,
                           const std::vector<Point> &points,
                           const Outcomes &expected,
                           const std::string &dir, Report &report);

/** Fill the per-call per-layer means (gpujoule.*_us, sim.build_ms,
 *  harness.* timings, serve.*_us) from every span recorded. */
void spanMetrics(Report &report);

/** Per-workload entry points (one file each). */
Report runSweepCold(const Args &args);
Report runServeMixed(const Args &args);
Report runCacheWarm(const Args &args);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
