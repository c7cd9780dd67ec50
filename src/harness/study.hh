/**
 * @file
 * Experiment harness: glues the performance simulator, the GPUJoule
 * energy model, and the EDPSE metrics into the runs the paper's
 * evaluation section is made of.
 *
 * A StudyContext performs the calibration campaign once (Figure 3)
 * and then serves energy parameters for any simulated configuration.
 * A ScalingRunner executes (workload x configuration) runs with
 * memoization so a bench binary can assemble several views of the
 * same sweep cheaply.
 */

#ifndef MMGPU_HARNESS_STUDY_HH
#define MMGPU_HARNESS_STUDY_HH

#include <atomic>
#include <compare>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.hh"
#include "fault/fault_plan.hh"
#include "gpujoule/calibration.hh"
#include "gpujoule/energy_model.hh"
#include "gpujoule/multi_module.hh"
#include "harness/run_cache.hh"
#include "metrics/edpse.hh"
#include "sim/gpu_config.hh"
#include "sim/gpu_sim.hh"
#include "telemetry/telemetry.hh"
#include "trace/workloads.hh"

namespace mmgpu::harness
{

/** One simulated run with its energy estimate. */
struct RunOutcome
{
    sim::PerfResult perf;
    joule::EnergyBreakdown energy;

    /**
     * Telemetry recorded during the run: counters, per-GPM/per-link
     * timelines, and the derived power tracks. Null unless the
     * runner had telemetry enabled (ScalingRunner::enableTelemetry);
     * shared so memoized outcomes stay copyable.
     */
    std::shared_ptr<telemetry::Telemetry> telemetry;

    /** Energy/delay point for the metrics. */
    metrics::EnergyDelay
    point() const
    {
        return {energy.total(), perf.execSeconds};
    }
};

/**
 * Convert simulator counters into Eq. 4 inputs.
 * @param total_sms SM count of the configuration (for the gating
 *        extension's occupancy accounting; 0 leaves it untracked).
 */
joule::EnergyInputs inputsFrom(const sim::PerfResult &perf,
                               unsigned gpm_count,
                               unsigned total_sms = 0);

/**
 * Calibrated model shared by a whole study.
 *
 * Thread-safety: a StudyContext is strictly immutable once its
 * constructor returns — the calibration campaign runs inside the
 * constructor and every accessor (including paramsFor()) is const
 * and touches only that frozen state. Construct it before spawning
 * workers (bench::studyContext() guards this with std::call_once)
 * and any number of ParallelRunner threads may share it.
 */
class StudyContext
{
  public:
    /**
     * Build the reference device, calibrate GPUJoule against it, and
     * keep the result. Calibration runs once per process.
     */
    StudyContext();

    /**
     * Like the default constructor, but the calibration campaign
     * observes the device through a sensor degraded per @p plan
     * (fault studies and the CLI's --fault-seed path). The
     * calibrator switches to its outlier-robust protocol; the plan's
     * fingerprint is folded into calibrationFingerprint() so faulty
     * campaigns never share persistent-cache entries with healthy
     * ones.
     */
    explicit StudyContext(const fault::FaultPlan &plan);

    /** The calibration outcome (table, const power, EP_stall). */
    const joule::CalibrationResult &calibration() const { return calib; }

    /** The device spec used for calibration. */
    const joule::DeviceSpec &deviceSpec() const { return spec; }

    /** The virtual silicon the study calibrated against. */
    const power::SiliconGpu &device() const { return *device_; }

    /**
     * Energy parameters for @p config, honoring its integration
     * domain and topology.
     * @param link_energy_scale Multiplier on link pJ/bit (point
     *        studies).
     * @param const_growth_override Override of the constant-growth
     *        fraction; negative = domain default.
     */
    joule::EnergyParams
    paramsFor(const sim::GpuConfig &config,
              double link_energy_scale = 1.0,
              double const_growth_override = -1.0) const;

    /**
     * FNV-1a fingerprint of the calibration outcome, folded into
     * every persistent-cache key (a recalibrated energy model must
     * never serve stale cached energies).
     */
    std::uint64_t calibrationFingerprint() const { return calibFp_; }

  private:
    joule::DeviceSpec spec;
    std::unique_ptr<power::SiliconGpu> device_;
    joule::CalibrationResult calib;
    std::uint64_t calibFp_ = 0;
};

/**
 * Memo key of one run: its full inputs, ordered by the structs'
 * defaulted comparisons. Two points that differ in any input field
 * never share an entry, even under the same configuration name.
 */
struct RunKey
{
    sim::GpuConfig config;
    trace::KernelProfile profile;
    double linkEnergyScale = 1.0;
    double constGrowthOverride = -1.0;

    auto operator<=>(const RunKey &) const = default;
};

/** "config|workload" display form of a RunKey (failure reports). */
std::string runKeyName(const RunKey &key);

/**
 * Memoizing (workload x configuration) runner.
 *
 * Thread-safety: run() may be called from any number of threads
 * concurrently (this is what ParallelRunner does). The memo cache is
 * one mutex-protected std::map keyed by RunKey; each entry is its own
 * allocation, so the references run() returns stay valid while other
 * threads keep inserting, and one thread at a time computes any
 * given key (a per-entry mutex) while others block until the outcome
 * is ready. Telemetry/persistent-cache configuration calls are not
 * synchronized: make them before the first concurrent run() (benches
 * configure, then drain).
 *
 * Runs are additionally served from / recorded into the process-wide
 * persistent RunCache (attached by default unless MMGPU_NO_CACHE=1),
 * making finished sweeps free across bench binaries. Telemetry-
 * enabled runs always simulate (a disk hit cannot reconstruct
 * timelines) but still publish their perf/energy to the cache.
 *
 * Machines are pooled: GpuSim is build-once/reset-per-run, so
 * sweep points with equal GpuConfigs reuse an idle machine instead
 * of rebuilding the hierarchy, with bit-identical results at any
 * worker count.
 */
class ScalingRunner
{
  public:
    /** @param context Calibrated study context (not owned). */
    explicit ScalingRunner(const StudyContext &context);

    // Movable (bench::makeRunner returns by value); defined in
    // study.cc where the cache type is complete.
    ScalingRunner(ScalingRunner &&) noexcept;
    ScalingRunner &operator=(ScalingRunner &&) noexcept;
    ~ScalingRunner();

    /**
     * Simulate @p profile on @p config and estimate its energy.
     * Results are memoized on the full inputs (RunKey); the returned
     * reference stays valid for the runner's lifetime, including
     * under concurrent run() calls on other threads.
     */
    const RunOutcome &run(const sim::GpuConfig &config,
                          const trace::KernelProfile &profile,
                          double link_energy_scale = 1.0,
                          double const_growth_override = -1.0);

    /**
     * Like run(), but failures (invalid configurations, injected
     * harness faults, watchdog cancellation) come back as a SimError
     * instead of killing the process — what ParallelRunner uses to
     * isolate a poisoned point from the rest of a sweep. An error the
     * inputs determine (an invalid configuration, a simulator panic)
     * is memoized like an outcome and fails fast on re-query; a
     * transient one (a watchdog timeout, an injected fault) is not,
     * so the next call computes the point again. Errors are never
     * written to the persistent cache.
     *
     * @param cancel Optional cooperative cancellation flag (the
     *        watchdog sets it); polled while an injected hang waits.
     */
    Result<const RunOutcome *>
    tryRun(const sim::GpuConfig &config,
           const trace::KernelProfile &profile,
           double link_energy_scale = 1.0,
           double const_growth_override = -1.0,
           const std::atomic<bool> *cancel = nullptr);

    /**
     * Inject @p plan's harness faults (forced point failures and
     * hangs) into subsequent computations; nullptr detaches. The
     * plan must outlive the runner. Sensor faults are a calibration
     * concern (StudyContext); link faults ride in GpuConfig.
     */
    void setFaultPlan(const fault::FaultPlan *plan)
    {
        faultPlan_ = plan;
    }

    /**
     * Retire every idle pooled machine built for @p config. The
     * serve supervisor calls this after a shard crash: a machine the
     * crash may have left in a corrupt half-run state must never be
     * reused, so the next run of that config rebuilds from scratch.
     * A machine checked out by the crashing job is destroyed by the
     * unwind; it is never released back into the pool.
     * @return machines destroyed.
     */
    std::size_t invalidateMachines(const sim::GpuConfig &config);

    /** Retire every idle pooled machine of every config. */
    std::size_t invalidateAllMachines();

    /** @return true when the point is already memoized (completed). */
    bool cached(const sim::GpuConfig &config,
                const trace::KernelProfile &profile,
                double link_energy_scale = 1.0,
                double const_growth_override = -1.0) const;

    /**
     * Record telemetry on subsequent (non-memoized) runs.
     * @param timeline_dt_cycles Timeline bin width in core cycles;
     *        0 records counters/gauges only. Each outcome carries
     *        its own Telemetry instance (RunOutcome::telemetry),
     *        already finalized, with the energy breakdown gauges and
     *        — when the timeline is enabled — the derived
     *        "gpu/power_*" tracks filled in.
     */
    void
    enableTelemetry(double timeline_dt_cycles)
    {
        telemetryDt_ = timeline_dt_cycles;
        telemetryEnabled_ = true;
    }

    /** Stop recording telemetry on subsequent runs. */
    void disableTelemetry() { telemetryEnabled_ = false; }

    /**
     * Use @p cache instead of the process-wide persistent cache;
     * nullptr detaches persistence entirely. Tests use this for
     * isolation; benches use it to time cold passes.
     */
    void attachPersistentCache(RunCache *cache)
    {
        persistent_ = cache;
    }

    /** The persistent cache in use (nullptr when detached). */
    RunCache *persistentCache() const { return persistent_; }

    /**
     * Toggle persistent-cache *reads* (writes continue). Benches
     * disable reads to measure genuine simulation wall-clock while
     * still publishing results for later binaries.
     */
    void setPersistentReads(bool enabled)
    {
        persistentReads_ = enabled;
    }

    /** The study context. */
    const StudyContext &context() const { return *context_; }

  private:
    struct Cache;       // memo cache; defined in study.cc
    struct MachinePool; // idle build-once machines; in study.cc

    /**
     * Shared run()/tryRun() path: memoize the outcome or an error the
     * inputs determine; hand a transient error back unmemoized.
     */
    struct Entry;
    Result<const RunOutcome *>
    ensure(const sim::GpuConfig &config,
           const trace::KernelProfile &profile,
           double link_energy_scale, double const_growth_override,
           const std::atomic<bool> *cancel);

    Result<RunOutcome> compute(const sim::GpuConfig &config,
                               const trace::KernelProfile &profile,
                               double link_energy_scale,
                               double const_growth_override,
                               const std::atomic<bool> *cancel) const;

    /**
     * The machine-driving tail of compute(): acquire, run, estimate,
     * release, persist. compute() runs it inside catchPanic().
     */
    RunOutcome simulate(const sim::GpuConfig &config,
                        const trace::KernelProfile &profile,
                        double link_energy_scale,
                        double const_growth_override,
                        std::uint64_t fingerprint) const;

    const StudyContext *context_;
    std::unique_ptr<Cache> cache_;
    std::unique_ptr<MachinePool> machines_;
    RunCache *persistent_ = nullptr;
    const fault::FaultPlan *faultPlan_ = nullptr;
    bool persistentReads_ = true;
    bool telemetryEnabled_ = false;
    double telemetryDt_ = 0.0;
};

/**
 * Derive instantaneous-power tracks from a finalized telemetry
 * timeline and the calibrated energy parameters:
 *
 *  - "gpu/power_true_w": per-bin average true power from Eq. 4's
 *    dynamic terms (EPI x per-bin instruction activity, EPT x
 *    per-bin transaction activity, EP_stall x per-bin stall cycles)
 *    plus the GPM-scaled constant power. Inter-GPM link energy is
 *    not time-resolved and is excluded (it is a small term; the
 *    totals in the "energy/..." gauges include it).
 *  - "gpu/power_sensor_w": the same series sampled through the
 *    NVML-like on-board sensor model (15 ms refresh, response lag,
 *    quantization), reproducing the sensor artifacts of §IV-B2.
 *
 * No-op when @p telemetry has no timeline or an empty run.
 */
void addPowerTracks(telemetry::Telemetry &telemetry,
                    const joule::EnergyParams &params);

/** Per-workload scaling observation against the 1-GPM baseline. */
struct ScalingPoint
{
    std::string workload;
    trace::WorkloadClass cls = trace::WorkloadClass::Compute;
    double speedup = 0.0;     //!< t1 / tN
    double energyRatio = 0.0; //!< EN / E1
    double edpse = 0.0;       //!< percent (Eq. 2)
    double ed2pse = 0.0;      //!< percent (Eq. 3 with i = 2)
    double perfPerWattSE = 0.0; //!< perf/W scaling efficiency, %
};

/**
 * Run every workload in @p workloads on the 1-GPM baseline and on
 * @p config; return per-workload EDPSE/speedup/energy observations.
 *
 * The whole (baseline + scaled) sweep is submitted to a
 * ParallelRunner up front, so uncached points execute concurrently
 * (one worker per hardware thread; MMGPU_JOBS overrides) before the
 * serial aggregation pass reads them back from the memo cache.
 * Results are bit-identical to a serial execution.
 */
std::vector<ScalingPoint>
scalingStudy(ScalingRunner &runner, const sim::GpuConfig &config,
             const std::vector<trace::KernelProfile> &workloads,
             double link_energy_scale = 1.0,
             double const_growth_override = -1.0);

/** Arithmetic mean of a ScalingPoint field over a class filter. */
double meanOf(const std::vector<ScalingPoint> &points,
              double ScalingPoint::*field);
double meanOf(const std::vector<ScalingPoint> &points,
              double ScalingPoint::*field, trace::WorkloadClass cls);

} // namespace mmgpu::harness

#endif // MMGPU_HARNESS_STUDY_HH
