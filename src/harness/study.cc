#include "harness/study.hh"

#include <algorithm>
#include <map>
#include <mutex>
#include <optional>
#include <tuple>
#include <utility>

#include "common/contract.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/thread_safety.hh"
#include "common/wallclock.hh"
#include "gpujoule/reference_device.hh"
#include "harness/parallel_runner.hh"
#include "noc/topology_registry.hh"
#include "power/sensor.hh"

namespace mmgpu::harness
{

namespace
{

/**
 * A run's inputs by reference: the memo finds an entry without
 * copying the configuration or the profile, and copies them into a
 * RunKey only when it inserts.
 */
using RunRef = std::tuple<const sim::GpuConfig &,
                          const trace::KernelProfile &, const double &,
                          const double &>;

/**
 * The memo's order over RunKeys and RunRefs alike (heterogeneous
 * lookup): the two names first, then every input. The names tell
 * almost any two sweep points apart with one string compare each,
 * where the inputs' own order walks a whole GpuConfig before it
 * reaches the profile.
 */
struct RunKeyLess
{
    using is_transparent = void;

    static RunRef
    ref(const RunKey &key)
    {
        const auto &[config, profile, scale, growth] = key;
        return {config, profile, scale, growth};
    }

    static const RunRef &ref(const RunRef &run) { return run; }

    static auto
    ordered(const RunRef &run)
    {
        const auto &[config, profile, scale, growth] = run;
        return std::tie(config.name, profile.name, config, profile, scale,
                        growth);
    }

    template <typename A, typename B>
    bool
    operator()(const A &a, const B &b) const
    {
        return ordered(ref(a)) < ordered(ref(b));
    }
};

/**
 * The memo entry for @p run, or end(). One descent and an equality
 * check, where find() would order-compare the found entry's inputs a
 * second time.
 */
template <typename Map>
typename Map::iterator
findRun(Map &entries, const RunRef &run)
{
    auto it = entries.lower_bound(run);
    if (it != entries.end() && RunKeyLess::ref(it->first) == run)
        return it;
    return entries.end();
}

} // namespace

/**
 * One memoized point: one thread at a time computes it (the
 * per-entry mutex). The outcome, or a failure the inputs determine
 * (an invalid configuration, a simulator panic: the simulator is
 * deterministic, so a re-run fails the same way), is then shared by
 * every caller, and re-querying it answers at once. A transient
 * failure goes back to the caller that computed it and leaves the
 * entry open, so the next caller computes afresh.
 */
struct ScalingRunner::Entry
{
    std::mutex mutex;
    std::atomic<bool> done{false};
    RunOutcome outcome;
    std::optional<SimError> error;
};

namespace
{

/** A failure the point's inputs do not determine: a watchdog or
 *  budget cancel, or an injected harness fault. */
bool
transient(const SimError &error)
{
    return error.code == ErrCode::Timeout ||
           error.code == ErrCode::InjectedFault;
}

} // namespace

/**
 * The memo cache: one map under one mutex. The mutex covers only the
 * lookup or insertion (well under a microsecond); the per-entry
 * mutex serializes the simulation of one key (tenths of a second
 * and up) without blocking other keys. Each entry is its own
 * allocation, so the references run() hands out stay valid while
 * other threads insert, whatever the container does with its nodes.
 */
struct ScalingRunner::Cache
{
    std::mutex mutex;
    std::map<RunKey, std::unique_ptr<Entry>, RunKeyLess>
        entries MMGPU_GUARDED_BY(mutex);
};

/**
 * Pool of idle build-once machines, keyed by the configuration they
 * were built for. GpuSim resets every component before each run, so
 * a pooled machine produces bit-identical results to a freshly
 * constructed one (test_gpu_sim.cc proves this); pooling removes the
 * per-point hierarchy construction from sweeps. Energy overrides
 * don't build different machines.
 */
struct ScalingRunner::MachinePool
{
    /** Reuse an idle machine for @p config, or build one. */
    std::unique_ptr<sim::GpuSim>
    acquire(const sim::GpuConfig &config)
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            auto it = idle.find(config);
            if (it != idle.end() && !it->second.empty()) {
                std::unique_ptr<sim::GpuSim> machine =
                    std::move(it->second.back());
                it->second.pop_back();
                return machine;
            }
        }
        // Construction builds the whole hierarchy; keep it outside
        // the lock so a miss doesn't stall other workers.
        return std::make_unique<sim::GpuSim>(config);
    }

    /** Return @p machine to the idle pool (telemetry detached). */
    void
    release(std::unique_ptr<sim::GpuSim> machine)
    {
        std::lock_guard<std::mutex> lock(mutex);
        idle[machine->config()].push_back(std::move(machine));
    }

    /** Destroy every idle machine built for @p config. @return count. */
    std::size_t
    retire(const sim::GpuConfig &config)
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto it = idle.find(config);
        if (it == idle.end())
            return 0;
        std::size_t count = it->second.size();
        idle.erase(it);
        return count;
    }

    /** Destroy every idle machine in the pool. @return count. */
    std::size_t
    retireAll()
    {
        std::lock_guard<std::mutex> lock(mutex);
        std::size_t count = 0;
        for (auto &[config, machines] : idle)
            count += machines.size();
        idle.clear();
        return count;
    }

    std::mutex mutex;
    std::map<sim::GpuConfig, std::vector<std::unique_ptr<sim::GpuSim>>>
        idle MMGPU_GUARDED_BY(mutex);
};

std::string
runKeyName(const RunKey &key)
{
    return key.config.name + "|" + key.profile.name;
}

joule::EnergyInputs
inputsFrom(const sim::PerfResult &perf, unsigned gpm_count,
           unsigned total_sms)
{
    joule::EnergyInputs inputs;
    inputs.warpInstrs = perf.instrs;
    inputs.txns = perf.mem.txns;
    inputs.smStallCycles = perf.smStallCycles;
    inputs.execTime = perf.execSeconds;
    inputs.gpmCount = gpm_count;
    inputs.linkBytes = perf.link.messageBytes;
    inputs.switchBytes = perf.link.switchBytes;
    inputs.reconfigs = perf.link.reconfigs;
    inputs.smOccupiedCycles = perf.smOccupiedCycles;
    inputs.smCycleCapacity =
        static_cast<double>(total_sms) * perf.execCycles;
    return inputs;
}

StudyContext::StudyContext() : StudyContext(fault::FaultPlan{}) {}

StudyContext::StudyContext(const fault::FaultPlan &plan)
{
    device_ = std::make_unique<power::SiliconGpu>(
        joule::referenceK40Truth(spec));
    joule::Calibrator calibrator(*device_, spec);
    calibrator.attachFaults(plan);
    calib = calibrator.calibrate();
    if (!calib.converged)
        warn("study proceeding with unconverged calibration");
    calibFp_ = ::mmgpu::harness::calibrationFingerprint(calib);
    if (plan.sensor.enabled()) {
        // Salt the fingerprint with the plan so a degraded campaign
        // never shares persistent-cache entries with a healthy one,
        // even if the recovered tables happen to coincide.
        Fnv1a salted(calibFp_);
        salted.add(plan.fingerprint());
        calibFp_ = salted.digest();
    }
}

joule::EnergyParams
StudyContext::paramsFor(const sim::GpuConfig &config,
                        double link_energy_scale,
                        double const_growth_override) const
{
    joule::MultiModuleOptions options;
    options.onPackage =
        config.domain == sim::IntegrationDomain::OnPackage;
    const noc::TopologyDesc &topo = noc::topologyDesc(config.topology);
    options.switched = topo.usesSwitchFabric;
    options.circuitReconfig = topo.usesCircuitReconfig;
    options.linkEnergyScale = link_energy_scale;
    options.constGrowthOverride = const_growth_override;
    return joule::multiModuleParams(calib.table, calib.stallEnergy,
                                    calib.constPower, options);
}

ScalingRunner::ScalingRunner(const StudyContext &context)
    : context_(&context),
      cache_(std::make_unique<Cache>()),
      machines_(std::make_unique<MachinePool>()),
      persistent_(RunCache::processCache())
{
}

ScalingRunner::ScalingRunner(ScalingRunner &&) noexcept = default;
ScalingRunner &
ScalingRunner::operator=(ScalingRunner &&) noexcept = default;
ScalingRunner::~ScalingRunner() = default;

std::size_t
ScalingRunner::invalidateMachines(const sim::GpuConfig &config)
{
    return machines_->retire(config);
}

std::size_t
ScalingRunner::invalidateAllMachines()
{
    return machines_->retireAll();
}

Result<const RunOutcome *>
ScalingRunner::ensure(const sim::GpuConfig &config,
                      const trace::KernelProfile &profile,
                      double link_energy_scale,
                      double const_growth_override,
                      const std::atomic<bool> *cancel)
{
    const RunRef run{config, profile, link_energy_scale,
                     const_growth_override};
    Entry *entry;
    {
        std::lock_guard<std::mutex> lock(cache_->mutex);
        auto it = findRun(cache_->entries, run);
        if (it == cache_->entries.end())
            it = cache_->entries
                     .try_emplace(RunKey{config, profile,
                                         link_energy_scale,
                                         const_growth_override},
                                  std::make_unique<Entry>())
                     .first;
        entry = it->second.get();
    }
    // A finished entry answers without a lock. Otherwise the first
    // caller computes, and concurrent callers of the same key block
    // on the entry until it is done (or, after a transient failure,
    // compute it themselves).
    if (!entry->done.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(entry->mutex);
        if (!entry->done.load(std::memory_order_relaxed)) {
            Result<RunOutcome> computed =
                compute(config, profile, link_energy_scale,
                        const_growth_override, cancel);
            if (computed.ok())
                entry->outcome = std::move(computed.value());
            else if (transient(computed.error()))
                return computed.error();
            else
                entry->error = computed.error();
            entry->done.store(true, std::memory_order_release);
        }
    }
    if (entry->error)
        return *entry->error;
    return Result<const RunOutcome *>(&entry->outcome);
}

const RunOutcome &
ScalingRunner::run(const sim::GpuConfig &config,
                   const trace::KernelProfile &profile,
                   double link_energy_scale,
                   double const_growth_override)
{
    Result<const RunOutcome *> outcome =
        ensure(config, profile, link_energy_scale,
               const_growth_override, nullptr);
    if (!outcome.ok()) {
        mmgpu_fatal("run ", config.name, "|", profile.name,
                    " failed: ", outcome.error().describe());
    }
    return *outcome.value();
}

Result<const RunOutcome *>
ScalingRunner::tryRun(const sim::GpuConfig &config,
                      const trace::KernelProfile &profile,
                      double link_energy_scale,
                      double const_growth_override,
                      const std::atomic<bool> *cancel)
{
    return ensure(config, profile, link_energy_scale,
                  const_growth_override, cancel);
}

bool
ScalingRunner::cached(const sim::GpuConfig &config,
                      const trace::KernelProfile &profile,
                      double link_energy_scale,
                      double const_growth_override) const
{
    std::lock_guard<std::mutex> lock(cache_->mutex);
    auto it = findRun(cache_->entries,
                      RunRef{config, profile, link_energy_scale,
                             const_growth_override});
    return it != cache_->entries.end() &&
           it->second->done.load(std::memory_order_acquire);
}

Result<RunOutcome>
ScalingRunner::compute(const sim::GpuConfig &config,
                       const trace::KernelProfile &profile,
                       double link_energy_scale,
                       double const_growth_override,
                       const std::atomic<bool> *cancel) const
{
    // Invalid configurations surface as errors instead of the fatal
    // GpuSim would raise, so one bad point cannot kill a sweep.
    if (Result<void> checked = config.check(); !checked.ok())
        return checked.error();

    // Injected harness faults, matched by point name: a forced
    // failure reports immediately; a forced hang stalls until the
    // watchdog cancels it (or, with no watchdog, until the plan's
    // hang window elapses and the point proceeds normally).
    if (faultPlan_ != nullptr && faultPlan_->harness.enabled()) {
        const fault::HarnessFaultSpec &spec = faultPlan_->harness;
        if (fault::HarnessFaultSpec::matches(spec.failPoints,
                                             config.name,
                                             profile.name)) {
            return SimError::injectedFault(
                "fault plan failed point " + config.name + "|" +
                profile.name);
        }
        if (fault::HarnessFaultSpec::matches(spec.hangPoints,
                                             config.name,
                                             profile.name)) {
            const std::int64_t deadline =
                wallclock::nowMs() +
                static_cast<std::int64_t>(spec.hangSeconds * 1000.0);
            while (wallclock::nowMs() < deadline) {
                if (cancel != nullptr &&
                    cancel->load(std::memory_order_acquire)) {
                    return SimError::timeout(
                        "watchdog cancelled hung point " +
                        config.name + "|" + profile.name);
                }
                wallclock::sleepMs(10);
            }
        }
    }

    {
        RunOutcome outcome;
        std::uint64_t fingerprint = 0;
        if (persistent_ != nullptr) {
            fingerprint = runFingerprint(
                config, profile, link_energy_scale,
                const_growth_override,
                context_->calibrationFingerprint());
            // A disk hit cannot reconstruct telemetry timelines, so
            // telemetry-enabled runs always simulate.
            if (persistentReads_ && !telemetryEnabled_ &&
                persistent_->lookup(fingerprint, outcome.perf,
                                    outcome.energy))
                return outcome;
        }

        // A panic inside the simulator (contract audit, engine
        // assert) becomes this point's error, so one bad point fails
        // alone instead of aborting its sweep or its shard. The
        // unwind frees the machine the run was driving; it never
        // returns to the pool.
        std::optional<std::string> crash = catchPanic([&] {
            outcome = simulate(config, profile, link_energy_scale,
                               const_growth_override, fingerprint);
        });
        if (crash)
            return SimError::unavailable("simulation panicked: " +
                                         *crash);
        return outcome;
    }
}

RunOutcome
ScalingRunner::simulate(const sim::GpuConfig &config,
                        const trace::KernelProfile &profile,
                        double link_energy_scale,
                        double const_growth_override,
                        std::uint64_t fingerprint) const
{
    RunOutcome outcome;
    std::unique_ptr<sim::GpuSim> machine =
        machines_->acquire(config);
    if (telemetryEnabled_) {
        outcome.telemetry = std::make_shared<telemetry::Telemetry>(
            telemetry::TelemetryConfig{telemetryDt_});
        machine->attachTelemetry(outcome.telemetry.get());
    }
    outcome.perf = machine->run(profile);
    joule::EnergyParams params = context_->paramsFor(
        config, link_energy_scale, const_growth_override);
    joule::EnergyInputs inputs =
        inputsFrom(outcome.perf, config.gpmCount, config.totalSms());
    if (outcome.telemetry) {
        outcome.energy =
            joule::estimate(inputs, params, *outcome.telemetry);
        addPowerTracks(*outcome.telemetry, params);
        machine->attachTelemetry(nullptr);
    } else {
        outcome.energy = joule::estimate(inputs, params);
    }
    machines_->release(std::move(machine));
    if (persistent_ != nullptr)
        persistent_->insert(fingerprint, outcome.perf,
                            outcome.energy);
    return outcome;
}

void
addPowerTracks(telemetry::Telemetry &telemetry,
               const joule::EnergyParams &params)
{
    telemetry::Timeline *timeline = telemetry.timeline();
    if (timeline == nullptr || timeline->binCount() == 0)
        return;

    const telemetry::RunInfo &info = telemetry.runInfo();
    const telemetry::ActivitySampler *instr =
        telemetry.findActivity("instr");
    const telemetry::ActivitySampler *txn =
        telemetry.findActivity("txn");

    std::size_t bins = timeline->binCount();
    double dt_seconds = timeline->dt() / info.clockHz;
    double const_watts = params.constPowerPerGpm *
                         params.constScale(info.gpmCount);

    // Per-GPM SM activity tracks, for the EP_stall term: stall
    // cycles in a bin are the active-window cycles the SMs did not
    // spend issuing.
    std::vector<std::pair<const telemetry::TimelineTrack *,
                          const telemetry::TimelineTrack *>>
        sm_tracks;
    for (unsigned g = 0; g < info.gpmCount; ++g) {
        std::string prefix = "gpm" + std::to_string(g);
        sm_tracks.emplace_back(timeline->find(prefix + "/sm_busy"),
                               timeline->find(prefix + "/sm_active"));
    }

    using Kind = telemetry::TimelineTrack::Kind;
    telemetry::TimelineTrack &true_power =
        timeline->track("gpu/power_true_w", Kind::Level);
    power::PowerTimeline series;
    for (std::size_t b = 0; b < bins; ++b) {
        double joules = 0.0;
        if (instr) {
            for (std::size_t c = 0; c < instr->channels(); ++c) {
                joules += params.table.epi[c] * instr->at(b, c) *
                          isa::warpSize;
            }
        }
        if (txn) {
            for (std::size_t c = 0; c < txn->channels(); ++c)
                joules += params.table.ept[c] * txn->at(b, c);
        }
        double stall_cycles = 0.0;
        for (const auto &[busy, active] : sm_tracks) {
            if (busy && active) {
                stall_cycles += std::max(0.0, active->rawBin(b) -
                                                  busy->rawBin(b));
            }
        }
        joules += params.stallEnergyPerSmCycle * stall_cycles;

        double watts = const_watts + joules / dt_seconds;
        true_power.setBin(b, watts);
        series.addPhase(dt_seconds, watts);
    }

    // Replay the series through the on-board sensor model: what an
    // NVML poll at each bin midpoint would have reported.
    power::PowerSensor sensor;
    telemetry::TimelineTrack &sensed =
        timeline->track("gpu/power_sensor_w", Kind::Level);
    for (std::size_t b = 0; b < bins; ++b) {
        double t = (static_cast<double>(b) + 0.5) * dt_seconds;
        sensed.setBin(b, sensor.read(series, t));
    }
}

std::vector<ScalingPoint>
scalingStudy(ScalingRunner &runner, const sim::GpuConfig &config,
             const std::vector<trace::KernelProfile> &workloads,
             double link_energy_scale, double const_growth_override)
{
    // Submit the whole sweep up front: every uncached point runs
    // concurrently, and the aggregation loop below reads memoized
    // outcomes only.
    ParallelRunner pool(runner);
    pool.enqueueStudy(config, workloads, link_energy_scale,
                      const_growth_override);
    pool.drain();

    const sim::GpuConfig baseline = sim::baselineConfig();
    std::vector<ScalingPoint> points;
    points.reserve(workloads.size());
    for (const auto &profile : workloads) {
        const RunOutcome &one = runner.run(baseline, profile);
        const RunOutcome &scaled =
            runner.run(config, profile, link_energy_scale,
                       const_growth_override);

        ScalingPoint point;
        point.workload = profile.name;
        point.cls = profile.cls;
        point.speedup = metrics::speedup(one.perf.execSeconds,
                                         scaled.perf.execSeconds);
        point.energyRatio =
            scaled.energy.total() / one.energy.total();
        point.edpse = metrics::edpse(one.point(), scaled.point(),
                                     config.gpmCount);
        point.ed2pse = metrics::edipse(one.point(), scaled.point(),
                                       config.gpmCount, 2);
        // Performance-per-watt scaling efficiency: the fraction of
        // linear perf/W scaling realized (paper §V-D argues the
        // trends agree across these metric choices).
        double power_one = one.energy.total() / one.perf.execSeconds;
        double power_scaled =
            scaled.energy.total() / scaled.perf.execSeconds;
        point.perfPerWattSE = point.speedup /
                              (power_scaled / power_one) /
                              config.gpmCount * 100.0;
        points.push_back(point);
    }
    return points;
}

double
meanOf(const std::vector<ScalingPoint> &points,
       double ScalingPoint::*field)
{
    mmgpu_assert(!points.empty(), "mean of empty scaling study");
    double sum = 0.0;
    for (const auto &point : points)
        sum += point.*field;
    return sum / static_cast<double>(points.size());
}

double
meanOf(const std::vector<ScalingPoint> &points,
       double ScalingPoint::*field, trace::WorkloadClass cls)
{
    double sum = 0.0;
    unsigned count = 0;
    for (const auto &point : points) {
        if (point.cls == cls) {
            sum += point.*field;
            ++count;
        }
    }
    mmgpu_assert(count > 0, "no workloads in class");
    return sum / count;
}

} // namespace mmgpu::harness
