/**
 * @file
 * serve_mixed: an in-process SimService under an open-loop mix, then
 * at saturation.
 *
 * The service has 2 shards and default gates; its runner writes to a
 * bench-private RunCache with the write-ahead log on and a 1 s
 * background flush. Set-up warms 4 points (2 workloads x {1,2}-GPM,
 * 2x-BW ring) into the service's memo through a ParallelRunner.
 *
 * The open-loop phase: one generator thread sends protocol lines
 * through submitLine() on a seeded schedule fixed before it starts:
 *  - warm reads: 100/s of run requests at seeded uniform random
 *    times (a Poisson stream of fixed count) for the warmed points
 *    (memo hits);
 *  - cold writes: 12 never-seen cheap points per phase, evenly spaced
 *    (one per second at 12 s): Stream at 2 and 4 GPMs with seeded
 *    fabric, placement and bandwidth, that really simulate and insert
 *    into the run cache;
 *  - every third cold point is sent again 2 ms later, while the first
 *    copy is in flight, so the duplicate attaches to it (dedup).
 * A request's latency runs from its due time to the moment its
 * Response::encode() line exists, so generator stalls count.
 *
 * The burst measures what the service can deliver rather than what
 * it was offered: 24 more never-seen cold points (two balanced sets)
 * sent at once, timed from the first send to the last answer (points
 * and simulated instructions per second: the shards' throughput).
 */

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <random>
#include <set>
#include <thread>

#include "common/wallclock.hh"
#include "harness/parallel_runner.hh"
#include "harness/run_cache.hh"
#include "perfbench.hh"
#include "serve/request.hh"
#include "serve/service.hh"
#include "trace.hh"

namespace perfbench
{

using namespace mmgpu;

namespace
{

/** Set-ups behind setup_s (each starts a service and warms it). */
constexpr unsigned setupRepetitions = 3;

constexpr double warmRatePerSec = 100.0;
constexpr double dupDelaySec = 0.002;
constexpr double drainTimeoutSec = 120.0;

/** Never-seen cold points per set: an open-loop phase sends one set,
 *  the burst two. */
constexpr std::size_t coldPerSet = 12;

/** The cold sets: the measured phase's, the burst's, the traced
 *  phase's. */
constexpr std::size_t measuredSet = 0, burstSet = 1, tracedSet = 3;
constexpr std::size_t coldSets = 4;

enum class Kind : std::uint8_t
{
    Warm,
    Cold,
    Dup,
};

/** One scheduled request and what came back. */
struct Slot
{
    Kind kind = Kind::Warm;
    double due = 0.0;       //!< seconds after the phase origin
    std::size_t spec = 0;   //!< index into the phase's spec table
    std::string line;       //!< the protocol line sent
    std::uint64_t id = 0;   //!< request id (also the spans' id)
    double latency = 0.0;   //!< due (or sent) -> encoded line, seconds
    double late = 0.0;      //!< send time - due time, seconds
    bool ok = false;
    bool decoded = false;
    double fields[11] = {}; //!< exec s/cycles + 9 energy terms
};

/** The hexfloat fields of a run response, in Slot::fields order. */
constexpr const char *energyFields[] = {
    "sm-busy",  "sm-idle",   "constant",     "shm-to-reg", "l1-to-reg",
    "l2-to-l1", "dram-to-l2", "inter-module", "total"};

bool
decodeResult(const JsonValue &result, double *out)
{
    const JsonValue *energy = result.find("energy-joules");
    if (!serve::decodeHexDouble(result.find("exec-seconds"), out[0]) ||
        !serve::decodeHexDouble(result.find("exec-cycles"), out[1]) ||
        energy == nullptr)
        return false;
    for (std::size_t i = 0; i < 9; ++i)
        if (!serve::decodeHexDouble(energy->find(energyFields[i]),
                                    out[2 + i]))
            return false;
    return true;
}

void
expectedFields(const harness::RunOutcome &o, double *out)
{
    const joule::EnergyBreakdown &e = o.energy;
    const double values[11] = {o.perf.execSeconds, o.perf.execCycles,
                               e.smBusy,           e.smIdle,
                               e.constant,         e.shmToReg,
                               e.l1ToReg,          e.l2ToL1,
                               e.dramToL2,         e.interModule,
                               e.total()};
    std::memcpy(out, values, sizeof(values));
}

/**
 * Block until @p due: sleep to within spinWindow of it, then spin, so
 * the generator's own wake-up latency stays out of the measured
 * latencies (a plain sleep wakes tens of microseconds late, and by a
 * host-dependent amount).
 */
void
waitUntil(Clock::time_point due)
{
    constexpr auto spinWindow = std::chrono::microseconds(300);
    if (Clock::now() < due - spinWindow)
        std::this_thread::sleep_until(due - spinWindow);
    while (Clock::now() < due) {
    }
}

Point
pointOf(const serve::RunSpec &spec)
{
    return {spec.config(), workload(spec.workload)};
}

/** The service with its cache; the service goes first on teardown. */
struct Rig
{
    TimedContext ctx;
    std::unique_ptr<harness::RunCache> cache;
    std::unique_ptr<serve::SimService> service;
    double warmDrainSeconds = 0.0;

    ~Rig()
    {
        if (service) {
            service->beginShutdown();
            service->join();
        }
    }
};

/** What one phase sent and measured. */
struct Phase
{
    std::vector<Slot> slots;
    std::vector<serve::RunSpec> specs; //!< warm set, then cold points
    double seconds = 0.0;              //!< origin -> last response
    serve::ServiceStats before, after;
    std::size_t queueDepthMax = 0;
    double busyShardsMean = 0.0;
};

/** Answers of one phase, filled by the service's threads. */
struct Inbox
{
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t answered = 0;
    std::size_t inflight = 0;
    Clock::time_point lastDone;
};

/**
 * Send @p slot's line; its answer is timed from @p since to its
 * encoded line, decoded into the slot and counted in @p inbox.
 */
void
send(serve::SimService &service, Slot &slot, Clock::time_point since,
     Inbox &inbox, bool traced)
{
    {
        std::lock_guard<std::mutex> lock(inbox.mutex);
        ++inbox.inflight;
    }
    service.submitLine(slot.line, [&slot, since, &inbox,
                                   traced](const serve::Response &response) {
        Clock::time_point t0 = Clock::now();
        std::string line = response.encode();
        Clock::time_point t1 = Clock::now();
        slot.latency = std::chrono::duration<double>(t1 - since).count();
        slot.ok = response.status == serve::ResponseStatus::Ok &&
                  !line.empty();
        if (slot.ok)
            slot.decoded = decodeResult(response.result, slot.fields);
        if (traced) {
            Tracer &tracer = Tracer::get();
            int root = tracer.add("serve.request", tracer.toSeconds(since),
                                  tracer.toSeconds(t1), -1, slot.id);
            tracer.add("serve.encode", tracer.toSeconds(t0),
                       tracer.toSeconds(t1), root, slot.id);
        }
        std::lock_guard<std::mutex> lock(inbox.mutex);
        ++inbox.answered;
        --inbox.inflight;
        inbox.lastDone = std::max(inbox.lastDone, t1);
        inbox.cv.notify_all();
    });
}

/** Wait for every answer of @p phase (fatal past drainTimeoutSec:
 *  callbacks still reference the phase). */
void
awaitAll(Phase &phase, Inbox &inbox, Clock::time_point origin)
{
    std::unique_lock<std::mutex> lock(inbox.mutex);
    inbox.cv.wait_for(lock, std::chrono::duration<double>(drainTimeoutSec),
                      [&] { return inbox.answered == phase.slots.size(); });
    if (inbox.answered != phase.slots.size())
        mmgpu_fatal("perfbench: ", phase.slots.size() - inbox.answered,
                    " serve requests unanswered after ", drainTimeoutSec,
                    " s");
    phase.seconds =
        std::chrono::duration<double>(inbox.lastDone - origin).count();
}

} // namespace

Report
runServeMixed(const Args &args)
{
    Report report;
    const unsigned workers = hostWorkers();
    // The warm set: Hotspot (compute) and Stream (memory) at 1 and 2
    // GPMs. It is small on purpose: a read that lands behind a cold
    // point holds that shard's one prefetch slot, and later reads of
    // the same point attach to it, so each cold point blocks several
    // reads and the blocked share sits well above 1% (warm_p99_ms then
    // measures the blocking instead of flipping between regimes from
    // seed to seed).
    std::vector<serve::RunSpec> warm_specs;
    for (unsigned gpms : {1u, 2u}) {
        for (const char *name : {"Hotspot", "Stream"}) {
            serve::RunSpec spec;
            spec.workload = name;
            spec.gpms = gpms;
            warm_specs.push_back(spec);
        }
    }

    std::unique_ptr<Rig> rig;
    for (unsigned k = 0; k < setupRepetitions; ++k) {
        Clock::time_point start = Clock::now();
        rig.reset();
        rig = std::make_unique<Rig>();
        rig->ctx = calibrate();
        std::string dir = args.dir + "/serve" + std::to_string(k);
        std::filesystem::create_directories(dir);
        rig->cache = std::make_unique<harness::RunCache>(dir + "/runs.json");
        serve::ServeOptions options;
        options.shards = 2;
        options.cacheFlushSec = 1.0;
        rig->service = std::make_unique<serve::SimService>(
            options, *rig->ctx.context);
        rig->service->runner().attachPersistentCache(rig->cache.get());
        rig->service->start();
        {
            harness::ParallelRunner pool(rig->service->runner(), workers);
            for (const auto &spec : warm_specs) {
                Point point = pointOf(spec);
                pool.enqueue(point.config, point.profile);
            }
            Clock::time_point drain_start = Clock::now();
            Scope span("harness.drain");
            if (!pool.drain().ok())
                report.mismatch("warm-up point failed");
            rig->warmDrainSeconds = secondsSince(drain_start);
        }
        report.setupSeconds.push_back(secondsSince(start));
        report.calibrateSeconds.push_back(rig->ctx.calibrateSeconds);
    }
    serve::SimService &service = *rig->service;
    const harness::StudyContext &context = *rig->ctx.context;

    // Cold points, drawn once for every set so that no point is cold
    // twice. Each set is the same balanced mix on every seed: Stream
    // (a similar cost on every fabric, placement and bandwidth) at 2
    // and 4 GPMs, fabrics, placements and bandwidths in equal shares;
    // the seed decides how they pair up and their order.
    // Equal costs keep the head-of-line blocking they cause, and so
    // warm_p99_ms, comparable between seeds.
    std::mt19937_64 rng(args.seed);
    std::vector<serve::RunSpec> cold_specs;
    {
        std::set<std::string> used;
        for (const auto &spec : warm_specs)
            used.insert(pointOf(spec).key());
        const noc::Topology topologies[] = {
            noc::Topology::Ring, noc::Topology::Switch,
            noc::Topology::Fullmesh, noc::Topology::Circuit};
        const sim::PlacementPolicy placements[] = {
            sim::PlacementPolicy::FirstTouchOwner,
            sim::PlacementPolicy::Striped, sim::PlacementPolicy::Locality};
        const sim::BwSetting bws[] = {sim::BwSetting::Bw1x,
                                      sim::BwSetting::Bw2x,
                                      sim::BwSetting::Bw4x};
        std::vector<std::size_t> topo(coldPerSet), place(coldPerSet),
            bw(coldPerSet);
        for (std::size_t i = 0; i < coldPerSet; ++i) {
            topo[i] = i % 4;
            place[i] = i % 3;
            bw[i] = i % 3;
        }
        for (std::size_t set = 0; set < coldSets; ++set) {
            std::vector<serve::RunSpec> drawn;
            std::set<std::string> keys;
            do { // redraw until no point repeats a used one
                drawn.clear();
                keys.clear();
                for (auto *axis : {&topo, &place, &bw})
                    std::shuffle(axis->begin(), axis->end(), rng);
                for (std::size_t i = 0; i < coldPerSet; ++i) {
                    serve::RunSpec spec;
                    spec.workload = "Stream";
                    spec.gpms = i % 2 ? 4 : 2;
                    spec.topology = topologies[topo[i]];
                    spec.placement = placements[place[i]];
                    spec.bw = bws[bw[i]];
                    std::string key = pointOf(spec).key();
                    if (used.count(key) == 0)
                        keys.insert(key);
                    drawn.push_back(spec);
                }
            } while (keys.size() != coldPerSet);
            used.insert(keys.begin(), keys.end());
            std::shuffle(drawn.begin(), drawn.end(), rng);
            cold_specs.insert(cold_specs.end(), drawn.begin(), drawn.end());
        }
    }

    std::uint64_t next_id = 1;
    // A phase's spec table is the warm set, then @p sets cold sets
    // from @p set on.
    auto newPhase = [&](std::size_t set, std::size_t sets) {
        Phase out;
        out.specs = warm_specs;
        out.specs.insert(out.specs.end(),
                         cold_specs.begin() + set * coldPerSet,
                         cold_specs.begin() + (set + sets) * coldPerSet);
        return out;
    };
    auto schedule = [&](Phase &out, Kind kind, double due, std::size_t spec) {
        Slot slot;
        slot.kind = kind;
        slot.due = due;
        slot.spec = spec;
        slot.id = next_id++;
        serve::Request request;
        request.type = serve::RequestType::Run;
        request.id = "r" + std::to_string(slot.id);
        request.client = "perfbench";
        request.spec = out.specs[spec];
        slot.line = request.encode();
        out.slots.push_back(std::move(slot));
    };
    // Queue depth and busy shards over [start, now] of the service's
    // health samples.
    auto health = [&](Phase &out, std::int64_t start_ms) {
        const std::int64_t end_ms = wallclock::nowMs();
        std::size_t samples = 0;
        for (const serve::StatsSample &s : service.timeseries()) {
            if (s.tMs < start_ms || s.tMs > end_ms)
                continue;
            out.queueDepthMax = std::max(out.queueDepthMax, s.queueDepth);
            out.busyShardsMean += static_cast<double>(s.busyShards);
            ++samples;
        }
        if (samples)
            out.busyShardsMean /= static_cast<double>(samples);
    };

    auto openLoop = [&](std::size_t set, bool traced) {
        Phase out = newPhase(set, 1);
        // A fixed number of warm reads at uniform random times: a
        // Poisson stream conditioned on its count, so the offered
        // load is the same on every seed.
        const std::size_t warm_count = static_cast<std::size_t>(
            std::lround(warmRatePerSec * args.seconds));
        std::uniform_real_distribution<double> when(0.0, args.seconds);
        // Cold points arrive one per slot, near its middle, so two
        // never overlap.
        std::uniform_real_distribution<double> unit(0.4, 0.6);
        std::uniform_int_distribution<std::size_t> pick(
            0, warm_specs.size() - 1);
        std::vector<std::pair<double, std::size_t>> warm_due;
        for (std::size_t i = 0; i < warm_count; ++i) {
            double due = when(rng);
            warm_due.push_back({due, pick(rng)});
        }
        struct Due
        {
            Kind kind;
            double due;
            std::size_t spec;
        };
        std::vector<Due> dues;
        for (const auto &[due, spec] : warm_due)
            dues.push_back({Kind::Warm, due, spec});
        const double spacing =
            args.seconds / static_cast<double>(coldPerSet);
        for (std::size_t i = 0; i < coldPerSet; ++i) {
            double t = (static_cast<double>(i) + unit(rng)) * spacing;
            dues.push_back({Kind::Cold, t, warm_specs.size() + i});
            if (i % 3 == 0)
                dues.push_back(
                    {Kind::Dup, t + dupDelaySec, warm_specs.size() + i});
        }
        std::stable_sort(dues.begin(), dues.end(),
                         [](const Due &a, const Due &b) {
                             return a.due < b.due;
                         });
        for (const Due &d : dues)
            schedule(out, d.kind, d.due, d.spec);

        Inbox inbox;
        out.before = service.stats();
        const std::int64_t wall_start_ms = wallclock::nowMs();
        const Clock::time_point origin =
            Clock::now() + std::chrono::milliseconds(20);
        inbox.lastDone = origin;
        auto send_all = [&] {
            for (Slot &slot : out.slots) {
                const Clock::time_point due =
                    origin + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(slot.due));
                waitUntil(due);
                slot.late = secondsSince(due);
                Scope span("serve.submit", slot.id);
                send(service, slot, due, inbox, traced);
            }
        };
        if (traced)
            tracedPhase("serve_mixed.timed", report, send_all);
        else
            send_all();
        awaitAll(out, inbox, origin);
        out.after = service.stats();
        health(out, wall_start_ms);
        return out;
    };

    Phase measured = openLoop(measuredSet, false);
    // The traced phase follows at once, so that its latencies differ
    // from the measured phase's by the tracing alone.
    Phase traced;
    if (args.trace)
        traced = openLoop(tracedSet, true);

    // The burst: every cold point at once; latencies run from each
    // send.
    Phase burst = newPhase(burstSet, 2);
    {
        for (std::size_t i = 0; i < 2 * coldPerSet; ++i)
            schedule(burst, Kind::Cold, 0.0, warm_specs.size() + i);
        Inbox inbox;
        const Clock::time_point origin = Clock::now();
        inbox.lastDone = origin;
        for (Slot &slot : burst.slots)
            send(service, slot, Clock::now(), inbox, false);
        awaitAll(burst, inbox, origin);
    }

    // Direct runs of every served point (fresh runner, no caches) are
    // the reference every served answer must match bit for bit.
    std::vector<Point> served_points;
    for (const auto &spec : warm_specs)
        served_points.push_back(pointOf(spec));
    const std::size_t cold_served = (args.trace ? 4 : 3) * coldPerSet;
    for (std::size_t i = 0; i < cold_served; ++i)
        served_points.push_back(pointOf(cold_specs[i]));
    // A fresh runner per set: each pools a machine per point, and the
    // peak resident set should show the service's pool, not this one.
    Outcomes direct;
    for (std::size_t begin = 0; begin < served_points.size();
         begin += coldPerSet) {
        const std::size_t end =
            std::min(begin + coldPerSet, served_points.size());
        harness::ScalingRunner runner(context);
        runner.attachPersistentCache(nullptr);
        harness::ParallelRunner pool(runner, workers);
        for (std::size_t i = begin; i < end; ++i)
            pool.enqueue(served_points[i].config, served_points[i].profile);
        if (!pool.drain().ok())
            report.mismatch("direct reference run failed");
        for (std::size_t i = begin; i < end; ++i)
            direct[served_points[i].key()] = runner.run(
                served_points[i].config, served_points[i].profile);
    }

    auto check = [&](const Phase &p) {
        for (const Slot &slot : p.slots) {
            ++report.attempted;
            if (!slot.ok) {
                ++report.failed;
                continue;
            }
            std::string key = pointOf(p.specs[slot.spec]).key();
            double want[11];
            expectedFields(direct.at(key), want);
            if (!slot.decoded || std::memcmp(want, slot.fields,
                                             sizeof(want)) != 0)
                report.mismatch("served answer differs from direct run: " +
                                key);
        }
    };
    check(measured);
    check(burst);

    std::vector<double> warm, cold, late;
    for (const Slot &slot : measured.slots) {
        late.push_back(slot.late);
        if (!slot.ok)
            continue;
        if (slot.kind == Kind::Warm)
            warm.push_back(slot.latency);
        else if (slot.kind == Kind::Cold)
            cold.push_back(slot.latency);
    }
    double burst_instrs = 0.0;
    for (const Slot &slot : burst.slots)
        burst_instrs += static_cast<double>(
            direct.at(pointOf(burst.specs[slot.spec]).key())
                .perf.totalWarpInstrs());
    report.e2e["points_per_s"] =
        static_cast<double>(burst.slots.size()) / burst.seconds;
    report.e2e["sim_minstr_per_s"] = burst_instrs / burst.seconds / 1e6;
    report.e2e["warm_p50_ms"] = 1e3 * quantile(warm, 0.50);
    report.e2e["warm_p99_ms"] = 1e3 * quantile(warm, 0.99);
    report.e2e["cold_p50_ms"] = 1e3 * quantile(cold, 0.50);
    report.notes["warm_samples"] = static_cast<double>(warm.size());
    report.notes["warm_over_10ms"] = static_cast<double>(std::count_if(
        warm.begin(), warm.end(), [](double s) { return s > 0.010; }));
    report.notes["cold_samples"] = static_cast<double>(cold.size());
    report.notes["burst_s"] = burst.seconds;
    report.notes["serve.gen_late_ms"] = 1e3 * quantile(late, 0.99);
    report.notes["serve.gen_late_p50_ms"] = 1e3 * quantile(late, 0.50);

    // The warmed set is seed-independent: it carries the digest, and
    // the service's memo must hold exactly the direct outcomes.
    Outcomes warm_outcomes;
    for (const auto &spec : warm_specs) {
        Point point = pointOf(spec);
        const harness::RunOutcome &memo =
            service.runner().run(point.config, point.profile);
        if (!sameBits(memo, direct.at(point.key())))
            report.mismatch("service memo differs from direct run: " +
                            point.key());
        warm_outcomes[point.key()] = memo;
    }
    seal(report, warm_outcomes);

    if (args.trace) {
        check(traced);
        std::vector<double> traced_warm;
        for (const Slot &slot : traced.slots)
            if (slot.ok && slot.kind == Kind::Warm)
                traced_warm.push_back(slot.latency);
        report.layers["trace.overhead_frac"] =
            quantile(traced_warm, 0.5) / quantile(warm, 0.5) - 1.0;
        report.notes["trace.overhead_ms"] =
            1e3 * (quantile(traced_warm, 0.5) - quantile(warm, 0.5));
        std::vector<double> point_seconds = replay(
            context, served_points, direct, args.dir + "/replay", report);
        double serial = 0.0;
        for (std::size_t i = 0; i < warm_specs.size(); ++i)
            serial += point_seconds[i];
        report.layers["harness.par_eff"] =
            serial / (workers * rig->warmDrainSeconds);
        // Counters of the two open-loop phases.
        auto moved = [&](std::uint64_t serve::ServiceStats::*field) {
            return static_cast<double>(
                (measured.after.*field - measured.before.*field) +
                (traced.after.*field - traced.before.*field));
        };
        report.layers["serve.sims_started"] =
            moved(&serve::ServiceStats::simulationsStarted);
        report.layers["serve.dedup_attached"] =
            moved(&serve::ServiceStats::dedupAttached);
        report.layers["serve.rejected"] =
            moved(&serve::ServiceStats::rejected);
        report.layers["serve.queue_depth_max"] = static_cast<double>(
            std::max(measured.queueDepthMax, traced.queueDepthMax));
        report.layers["serve.busy_shards_mean"] =
            0.5 * (measured.busyShardsMean + traced.busyShardsMean);
        report.layers["harness.cache_hits"] =
            static_cast<double>(rig->cache->hits());
        report.layers["harness.cache_misses"] =
            static_cast<double>(rig->cache->misses());
    }
    return report;
}

} // namespace perfbench
