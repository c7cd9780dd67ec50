#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sched.h>

#include "common/hash.hh"
#include "common/logging.hh"
#include "gpujoule/energy_model.hh"
#include "harness/run_cache.hh"
#include "perfbench.hh"
#include "serve/request.hh"
#include "sim/gpu_sim.hh"
#include "telemetry/telemetry.hh"
#include "trace.hh"
#include "trace/workloads.hh"

namespace perfbench
{

using namespace mmgpu;

namespace
{

std::string
hex(double value)
{
    char buffer[48];
    std::snprintf(buffer, sizeof(buffer), "%a", value);
    return buffer;
}

/**
 * Canonical text of every result field: hexfloat doubles, decimal
 * counts. Two outcomes agree bit for bit iff their texts match.
 * link.arrivals and link.deliveredBytes are left out: the run cache
 * does not persist them (at the end of a run they equal transfers and
 * messageBytes, which the NoC conservation audit asserts), so a cache
 * read would never match a fresh run on them.
 */
std::string
canonical(const harness::RunOutcome &outcome)
{
    const sim::PerfResult &p = outcome.perf;
    const joule::EnergyBreakdown &e = outcome.energy;
    std::string text = p.configName + "|" + p.workloadName;
    auto num = [&](double v) { text += "|" + hex(v); };
    auto cnt = [&](Count c) { text += "|" + std::to_string(c); };
    num(p.execCycles);
    num(p.execSeconds);
    for (Count c : p.instrs)
        cnt(c);
    for (Count c : p.mem.txns)
        cnt(c);
    cnt(p.mem.l1SectorMisses);
    cnt(p.mem.l2SectorMisses);
    cnt(p.mem.remoteSectors);
    cnt(p.mem.localSectors);
    cnt(p.mem.writebackSectors);
    cnt(p.link.byteHops);
    cnt(p.link.messageBytes);
    cnt(p.link.switchBytes);
    cnt(p.link.transfers);
    cnt(p.link.rerouted);
    cnt(p.link.reconfigs);
    num(p.smBusyCycles);
    num(p.smStallCycles);
    num(p.smOccupiedCycles);
    cnt(p.l1Accesses);
    cnt(p.l1SectorHits);
    cnt(p.l2Accesses);
    cnt(p.l2SectorHits);
    num(p.dramQueueing);
    num(p.linkQueueing);
    num(p.linkBusy);
    num(p.dramBusy);
    for (double v : {e.smBusy, e.smIdle, e.constant, e.shmToReg, e.l1ToReg,
                     e.l2ToL1, e.dramToL2, e.interModule})
        num(v);
    return text;
}

std::string
digestOf(const Outcomes &outcomes)
{
    Fnv1a hash;
    for (const auto &[key, outcome] : outcomes) {
        hash.add(key);
        hash.add(canonical(outcome));
    }
    char buffer[24];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(hash.digest()));
    return buffer;
}

std::map<std::string, double>
exactCounts(const Outcomes &outcomes)
{
    double instrs = 0, cycles = 0, l1h = 0, l1m = 0, l2h = 0, l2m = 0;
    double remote = 0, local = 0, dramq = 0, bytes = 0, linkq = 0;
    for (const auto &[key, outcome] : outcomes) {
        const sim::PerfResult &p = outcome.perf;
        instrs += static_cast<double>(p.totalWarpInstrs());
        cycles += p.execCycles;
        l1h += static_cast<double>(p.l1SectorHits);
        l1m += static_cast<double>(p.mem.l1SectorMisses);
        l2h += static_cast<double>(p.l2SectorHits);
        l2m += static_cast<double>(p.mem.l2SectorMisses);
        remote += static_cast<double>(p.mem.remoteSectors);
        local += static_cast<double>(p.mem.localSectors);
        dramq += p.dramQueueing;
        bytes += static_cast<double>(p.link.messageBytes);
        linkq += p.linkQueueing;
    }
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    return {
        {"sim.warp_instrs", instrs},
        {"sim.exec_cycles", cycles},
        {"mem.l1_sector_hit_ratio", ratio(l1h, l1h + l1m)},
        {"mem.l2_sector_hit_ratio", ratio(l2h, l2h + l2m)},
        {"mem.remote_frac", ratio(remote, remote + local)},
        {"mem.dram_queue_cycles", dramq},
        {"noc.link_bytes", bytes},
        {"noc.link_queue_cycles", linkq},
    };
}

/** Where the reference leaves its result, so it is not optimised
 *  away. */
volatile double referenceSink = 0.0;

} // namespace

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string
Point::key() const
{
    return config.name + "|" + noc::topologyName(config.topology) + "|" +
           sim::placementPolicyName(config.placement) + "|" +
           profile.name;
}

const std::vector<trace::KernelProfile> &
suite()
{
    return trace::scalingWorkloads();
}

trace::KernelProfile
workload(const std::string &name)
{
    std::optional<trace::KernelProfile> found = trace::findWorkload(name);
    if (!found)
        mmgpu_fatal("perfbench: unknown workload ", name);
    return *found;
}

bool
sameBits(const harness::RunOutcome &a, const harness::RunOutcome &b)
{
    return canonical(a) == canonical(b);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t rank = static_cast<std::size_t>(
        q * static_cast<double>(values.size() - 1) + 0.5);
    return values[std::min(rank, values.size() - 1)];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
referenceSeconds()
{
    constexpr int keys = 1000;
    Clock::time_point start = Clock::now();
    {
        std::map<std::string, double> table;
        char buffer[48];
        for (int i = 0; i < keys; ++i) {
            std::snprintf(buffer, sizeof(buffer), "k%a", i * 1.37);
            table[buffer] = i;
        }
        double total = 0.0;
        for (int i = 0; i < keys; ++i) {
            std::snprintf(buffer, sizeof(buffer), "k%a", i * 1.37);
            total += table[buffer];
        }
        referenceSink = total;
    }
    return secondsSince(start);
}

void
seal(Report &report, const Outcomes &outcomes)
{
    report.digest = digestOf(outcomes);
    report.digestPoints = outcomes.size();
    for (const auto &[name, value] : exactCounts(outcomes))
        report.layers[name] = value;
}

void
Report::mismatch(const std::string &what)
{
    if (mismatches.size() < 20)
        mismatches.push_back(what);
    else if (mismatches.size() == 20)
        mismatches.push_back("... (further mismatches omitted)");
}

unsigned
hostWorkers()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return std::max(1, CPU_COUNT(&set));
}

TimedContext
calibrate()
{
    TimedContext timed;
    Clock::time_point start = Clock::now();
    {
        Scope span("gpujoule.calibrate");
        timed.context = std::make_unique<harness::StudyContext>();
    }
    timed.calibrateSeconds = secondsSince(start);
    return timed;
}

TimedContext
calibrateAndWarmUp(Report &report, unsigned repetitions)
{
    // The direct path keeps no memo: the warm-up leaves no timed
    // point warm.
    const std::vector<Point> warm_up = {
        {sim::baselineConfig(), workload("CoMD")}};
    TimedContext ctx;
    for (unsigned k = 0; k < repetitions; ++k) {
        Clock::time_point start = Clock::now();
        ctx = calibrate();
        runDirect(*ctx.context, warm_up, nullptr, nullptr);
        report.setupSeconds.push_back(secondsSince(start));
        report.calibrateSeconds.push_back(ctx.calibrateSeconds);
    }
    return ctx;
}

Outcomes
runDirect(const harness::StudyContext &context,
          const std::vector<Point> &points, std::vector<double> *seconds,
          EngineTotals *totals)
{
    Outcomes outcomes;
    std::unique_ptr<sim::GpuSim> machine;
    std::string machine_key;
    for (const Point &point : points) {
        Clock::time_point start = Clock::now();
        // The machine identity the harness pools on.
        std::string key = point.config.name + "|" +
                          noc::topologyName(point.config.topology) + "|" +
                          sim::placementPolicyName(point.config.placement);
        if (!machine || key != machine_key) {
            machine.reset();
            Scope span("sim.build");
            machine = std::make_unique<sim::GpuSim>(point.config);
            machine_key = key;
        }
        std::unique_ptr<telemetry::Telemetry> counters;
        if (totals) {
            counters = std::make_unique<telemetry::Telemetry>(
                telemetry::TelemetryConfig{});
            machine->attachTelemetry(counters.get());
        }
        harness::RunOutcome outcome;
        Clock::time_point run_start = Clock::now();
        {
            Scope span("sim.run");
            outcome.perf = machine->run(point.profile);
        }
        if (totals) {
            totals->runSeconds += secondsSince(run_start);
            machine->attachTelemetry(nullptr);
            const telemetry::CounterRegistry &reg = counters->counters();
            if (const auto *c = reg.findCounter("sim/events_warp"))
                totals->eventsWarp += c->value;
            if (const auto *c = reg.findCounter("sim/events_mem"))
                totals->eventsMem += c->value;
        }
        joule::EnergyParams params;
        {
            Scope span("gpujoule.params");
            params = context.paramsFor(point.config);
        }
        joule::EnergyInputs inputs;
        {
            Scope span("gpujoule.inputs");
            inputs = harness::inputsFrom(outcome.perf, point.config.gpmCount,
                                         point.config.totalSms());
        }
        {
            Scope span("gpujoule.estimate");
            outcome.energy = joule::estimate(inputs, params);
        }
        if (seconds)
            seconds->push_back(secondsSince(start));
        outcomes[point.key()] = std::move(outcome);
    }
    return outcomes;
}

void
cacheRoundTrip(const harness::StudyContext &context,
               const std::vector<Point> &points, const Outcomes &outcomes,
               const std::string &dir, Report &report)
{
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/runs.json";
    std::vector<std::uint64_t> fingerprints;
    {
        std::unique_ptr<harness::RunCache> cache;
        {
            Scope span("harness.cache_open");
            cache = std::make_unique<harness::RunCache>(path);
        }
        for (const Point &point : points) {
            const harness::RunOutcome &outcome = outcomes.at(point.key());
            {
                Scope span("harness.fingerprint");
                fingerprints.push_back(harness::runFingerprint(
                    point.config, point.profile, 1.0, -1.0,
                    context.calibrationFingerprint()));
            }
            {
                Scope span("serve.encode");
                std::string line =
                    serve::Response::ok(point.key(),
                                        serve::encodeOutcome(outcome))
                        .encode();
                if (line.empty())
                    report.mismatch("empty encoding of " + point.key());
            }
            Scope span("harness.cache_insert");
            cache->insert(fingerprints.back(), outcome.perf, outcome.energy);
        }
        Scope span("harness.cache_flush");
        if (!cache->flush())
            report.mismatch("round trip: cache flush failed");
    }
    std::unique_ptr<harness::RunCache> cache;
    {
        Scope span("harness.cache_open");
        cache = std::make_unique<harness::RunCache>(path);
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
        harness::RunOutcome read;
        bool hit;
        {
            Scope span("harness.cache_lookup");
            hit = cache->lookup(fingerprints[i], read.perf, read.energy);
        }
        if (!hit || !sameBits(read, outcomes.at(points[i].key())))
            report.mismatch("cache round trip differs for " +
                            points[i].key());
    }
}

void
engineMetrics(const EngineTotals &totals, Report &report)
{
    double events = totals.eventsWarp + totals.eventsMem;
    report.layers["sim.run_s"] = totals.runSeconds;
    report.layers["engine.events_warp"] = totals.eventsWarp;
    report.layers["engine.events_mem"] = totals.eventsMem;
    report.layers["sim.ns_per_event"] =
        events > 0 ? 1e9 * totals.runSeconds / events : 0.0;
}

void
compareOutcomes(const Outcomes &got, const Outcomes &expected,
                const char *what, Report &report)
{
    for (const auto &[key, outcome] : got) {
        auto it = expected.find(key);
        if (it == expected.end() || !sameBits(it->second, outcome))
            report.mismatch(std::string(what) + " differs: " + key);
    }
}

std::vector<double>
replay(const harness::StudyContext &context, const std::vector<Point> &points,
       const Outcomes &expected, const std::string &dir, Report &report)
{
    std::vector<double> seconds;
    EngineTotals totals;
    Outcomes direct;
    tracedPhase("replay", report, [&] {
        direct = runDirect(context, points, &seconds, &totals);
        cacheRoundTrip(context, points, direct, dir, report);
    });
    compareOutcomes(direct, expected, "direct replay", report);
    engineMetrics(totals, report);
    return seconds;
}

double
tracedPhase(const char *name, Report &report,
            const std::function<void()> &body)
{
    Tracer &tracer = Tracer::get();
    tracer.setEnabled(true);
    int root = tracer.begin(name);
    body();
    tracer.end(root);
    tracer.setEnabled(false);

    std::vector<Span> spans = tracer.spans();
    Accounting acct = account(spans, selfTimes(spans), root);
    const std::string prefix = std::string("self.") + name + ".";
    for (const auto &[layer, seconds] : acct.layerSelf)
        report.notes[prefix + layer + "_s"] = seconds;
    report.notes[prefix + "unspanned_s"] = acct.unspanned;
    report.notes[prefix + "wall_s"] = acct.wall;
    report.notes[prefix + "residual_s"] = acct.residual;
    report.notes[prefix + "orphans"] = static_cast<double>(acct.orphans);
    report.notes[prefix + "overlaps"] = static_cast<double>(acct.overlaps);
    if (std::abs(acct.residual) > 1e-6 + 1e-6 * acct.wall)
        report.mismatch(std::string("span accounting of ") + name +
                        " is off by " + std::to_string(acct.residual) +
                        " s");
    if (acct.orphans != 0 || acct.overlaps != 0)
        report.mismatch(std::string("span tree of ") + name + " has " +
                        std::to_string(acct.orphans) + " orphan and " +
                        std::to_string(acct.overlaps) +
                        " overlapping spans");
    return acct.wall;
}

std::vector<double>
runRounds(double seconds, const std::function<void()> &round)
{
    std::vector<double> rounds;
    double elapsed = 0.0;
    do {
        Clock::time_point start = Clock::now();
        round();
        rounds.push_back(secondsSince(start));
        elapsed += rounds.back();
    } while (elapsed + rounds.back() <= seconds);
    return rounds;
}

void
spanMetrics(Report &report)
{
    std::vector<Span> spans = Tracer::get().spans();
    auto mean_of = [&](const char *name, double scale) {
        std::vector<double> d = durations(spans, name);
        double sum = 0.0;
        for (double v : d)
            sum += v;
        return d.empty() ? 0.0
                         : scale * sum / static_cast<double>(d.size());
    };
    report.layers["gpujoule.params_us"] = mean_of("gpujoule.params", 1e6);
    report.layers["gpujoule.estimate_us"] =
        mean_of("gpujoule.estimate", 1e6);
    report.layers["sim.build_ms"] = mean_of("sim.build", 1e3);
    report.layers["harness.fingerprint_us"] =
        mean_of("harness.fingerprint", 1e6);
    report.layers["harness.cache_open_ms"] =
        mean_of("harness.cache_open", 1e3);
    report.layers["harness.cache_lookup_us"] =
        mean_of("harness.cache_lookup", 1e6);
    report.layers["harness.cache_insert_us"] =
        mean_of("harness.cache_insert", 1e6);
    report.layers["harness.cache_flush_ms"] =
        mean_of("harness.cache_flush", 1e3);
    report.layers["serve.encode_us"] = mean_of("serve.encode", 1e6);
    // Workload-specific calls: reported, not part of the tracked set.
    report.notes["serve.submit_us"] = mean_of("serve.submit", 1e6);
    report.notes["harness.drain_s"] = mean_of("harness.drain", 1.0);
    report.notes["harness.run_us"] = mean_of("harness.run", 1e6);
    report.notes["harness.scaling_study_us"] =
        mean_of("harness.scaling_study", 1e6);
}

} // namespace perfbench
