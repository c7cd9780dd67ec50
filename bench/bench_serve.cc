/**
 * @file
 * Service-layer bench: what does the daemon add on top of the
 * simulations it serves, and what does its memo reuse buy?
 *
 * Drives the Figure 6 sweep (a full scaling study per Table III
 * module count) through an in-process SimService twice:
 *
 *   cold  every study simulates from scratch (empty memo cache);
 *         latency is dominated by simulation itself
 *   warm  the same requests again; everything is served from the
 *         runner's memo cache, so latency IS the service overhead
 *         (admission, routing, dedup bookkeeping, encoding)
 *
 * The warm pass is pipelined (all studies submitted before any
 * response is awaited) so the admission queue actually fills and the
 * housekeeper's queue-depth timeseries shows real backlog. Results
 * land in BENCH_serve.json: per-request cold/warm latencies, the
 * cold:warm ratio, service stats, and the queue-depth timeseries.
 *
 * A third phase measures *fairness under overload*: a second service
 * with per-client quotas enabled serves a light, paced client while
 * a flooding client hammers it with batch-tier work. The light
 * client's p95 with the flood running must stay within 2x its solo
 * p95 (the quota + priority gates are what make that true); both
 * percentiles and the flood's reject accounting are recorded under
 * "fairness" and the bench exits nonzero when the bound is missed.
 */

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "common/json.hh"
#include "common/wallclock.hh"
#include "serve/service.hh"
#include "sim/gpu_config.hh"

namespace
{

using namespace mmgpu;

serve::Request
studyRequest(unsigned gpms)
{
    serve::Request request;
    request.type = serve::RequestType::Study;
    request.id = "fig6-" + std::to_string(gpms);
    request.spec.workload = "all";
    request.spec.gpms = gpms;
    request.spec.bw = sim::BwSetting::Bw2x;
    return request;
}

/** Latencies of one pass over the Figure 6 sweep, pipelined. */
std::vector<double>
sweepLatencies(serve::SimService &service,
               const std::vector<unsigned> &gpm_counts)
{
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t pending = gpm_counts.size();
    std::vector<double> latencies(gpm_counts.size(), 0.0);
    std::vector<std::int64_t> submitted(gpm_counts.size(), 0);

    for (std::size_t i = 0; i < gpm_counts.size(); ++i) {
        submitted[i] = wallclock::nowMs();
        service.submit(
            studyRequest(gpm_counts[i]),
            [&, i](const serve::Response &response) {
                std::lock_guard<std::mutex> lock(mutex);
                latencies[i] = static_cast<double>(
                    wallclock::nowMs() - submitted[i]);
                if (response.status != serve::ResponseStatus::Ok)
                    latencies[i] = -latencies[i]; // flag failures
                --pending;
                cv.notify_all();
            });
    }
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return pending == 0; });
    return latencies;
}

JsonValue
latencyArray(const std::vector<unsigned> &gpm_counts,
             const std::vector<double> &latencies)
{
    JsonValue array = JsonValue::array();
    for (std::size_t i = 0; i < gpm_counts.size(); ++i) {
        JsonValue row = JsonValue::object();
        row.set("gpms", static_cast<double>(gpm_counts[i]));
        row.set("latency-ms", latencies[i]);
        array.push(std::move(row));
    }
    return array;
}

serve::Request
fairRunRequest(const std::string &workload, const std::string &client,
               const std::string &id, int priority)
{
    serve::Request request;
    request.type = serve::RequestType::Run;
    request.id = id;
    request.client = client;
    request.priority = priority;
    request.spec.workload = workload;
    request.spec.gpms = 2;
    return request;
}

double
percentileMs(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    std::size_t index = static_cast<std::size_t>(
        q * static_cast<double>(samples.size() - 1) + 0.5);
    return samples[std::min(index, samples.size() - 1)];
}

/** Reject accounting of the flooding client, for the JSON record. */
struct FloodTally
{
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> rejected{0};
};

/**
 * The light client's latencies: @p count memo-warm run requests,
 * paced @p pace_ms apart, each a blocking call().
 */
std::vector<double>
lightPass(serve::SimService &service, const char *phase, int count,
          std::int64_t pace_ms)
{
    static const char *const workloads[] = {"Stream", "BFS", "Kmeans",
                                            "Hotspot"};
    std::vector<double> latencies;
    latencies.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        serve::Request request = fairRunRequest(
            workloads[i % 4], "light",
            std::string("light-") + phase + "-" + std::to_string(i),
            /*priority=*/1);
        std::int64_t start = wallclock::nowMs();
        serve::Response response = service.call(std::move(request));
        if (response.status == serve::ResponseStatus::Ok)
            latencies.push_back(
                static_cast<double>(wallclock::nowMs() - start));
        wallclock::sleepMs(pace_ms);
    }
    return latencies;
}

} // namespace

int
main()
{
    using namespace mmgpu;

    serve::ServeOptions options;
    // One shard, so the pipelined sweep builds real backlog and the
    // queue-depth timeseries shows it draining.
    options.shards = 1;
    options.sampleMs = 100;     // fine-grained queue-depth series...
    options.timeseriesCap = 8192; // ...retained for the whole run
    serve::SimService service(options, bench::studyContext());
    service.runner().attachPersistentCache(nullptr);
    service.start();

    const std::vector<unsigned> gpm_counts =
        sim::tableThreeGpmCounts();

    std::printf("bench_serve: cold pass (%zu studies)...\n",
                gpm_counts.size());
    std::vector<double> cold = sweepLatencies(service, gpm_counts);
    std::printf("bench_serve: warm pass (memo-served)...\n");
    std::vector<double> warm = sweepLatencies(service, gpm_counts);

    double cold_total = 0.0, warm_total = 0.0;
    bool failed = false;
    for (std::size_t i = 0; i < gpm_counts.size(); ++i) {
        failed = failed || cold[i] < 0.0 || warm[i] < 0.0;
        cold_total += cold[i];
        warm_total += warm[i];
        std::printf("  %2u GPMs: cold %8.1f ms   warm %6.1f ms\n",
                    gpm_counts[i], cold[i], warm[i]);
    }
    serve::ServiceStats stats = service.stats();
    std::printf("bench_serve: cold %.1f ms total, warm %.1f ms "
                "total (x%.0f), %llu sims, p95 %.1f ms\n",
                cold_total, warm_total,
                warm_total > 0.0 ? cold_total / warm_total : 0.0,
                static_cast<unsigned long long>(
                    stats.simulationsStarted),
                stats.latencyP95Ms);

    // ---- Fairness under overload (per-client quotas) ----
    // A fresh service with the quota/shed gates armed: the flooding
    // client gets batch priority and no pacing; the light client
    // paces well under its own quota. Everything is memo-warm first,
    // so the measured latencies are service overhead + queueing —
    // exactly what the fairness gates are supposed to bound.
    serve::ServeOptions fair_options;
    fair_options.shards = 2;
    fair_options.quotaRatePerSec = 100.0;
    fair_options.quotaBurst = 16.0;
    serve::SimService fair(fair_options, bench::studyContext());
    fair.runner().attachPersistentCache(nullptr);
    fair.start();
    for (const char *workload : {"Stream", "BFS", "Kmeans", "Hotspot"})
        fair.call(fairRunRequest(workload, "warmup",
                                 std::string("warm-") + workload, 1));

    const int light_count = 100;
    const std::int64_t light_pace_ms = 25; // 40/s < its 100/s quota
    std::printf("bench_serve: fairness solo pass...\n");
    std::vector<double> solo =
        lightPass(fair, "solo", light_count, light_pace_ms);

    std::printf("bench_serve: fairness contended pass...\n");
    FloodTally flood;
    std::atomic<bool> flood_stop{false};
    std::atomic<std::size_t> flood_pending{0};
    std::mutex flood_mutex;
    std::condition_variable flood_cv;
    std::thread flooder([&] {
        std::uint64_t n = 0;
        while (!flood_stop.load()) {
            serve::Request request = fairRunRequest(
                "Stream", "flood", "flood-" + std::to_string(n++),
                /*priority=*/2);
            flood.submitted.fetch_add(1);
            flood_pending.fetch_add(1);
            fair.submit(std::move(request),
                        [&](const serve::Response &response) {
                            if (response.status ==
                                serve::ResponseStatus::Ok)
                                flood.ok.fetch_add(1);
                            else
                                flood.rejected.fetch_add(1);
                            if (flood_pending.fetch_sub(1) == 1) {
                                std::lock_guard<std::mutex> lock(
                                    flood_mutex);
                                flood_cv.notify_all();
                            }
                        });
            if (n % 64 == 0)
                wallclock::sleepMs(1); // yield; stay a flood
        }
    });
    std::vector<double> contended =
        lightPass(fair, "flooded", light_count, light_pace_ms);
    flood_stop.store(true);
    flooder.join();
    {
        std::unique_lock<std::mutex> lock(flood_mutex);
        flood_cv.wait(lock,
                      [&] { return flood_pending.load() == 0; });
    }

    double solo_p50 = percentileMs(solo, 0.50);
    double solo_p95 = percentileMs(solo, 0.95);
    double contended_p50 = percentileMs(contended, 0.50);
    double contended_p95 = percentileMs(contended, 0.95);
    // The 2x bound, with a small absolute floor so sub-millisecond
    // solo percentiles do not turn scheduler noise into a failure.
    double fairness_limit_ms = std::max(2.0 * solo_p95, 50.0);
    bool fairness_ok = !solo.empty() && !contended.empty() &&
                       solo.size() == contended.size() &&
                       contended_p95 <= fairness_limit_ms;
    serve::ServiceStats fair_stats = fair.stats();
    std::printf(
        "bench_serve: fairness light p95 %.1f ms solo -> %.1f ms "
        "flooded (limit %.1f ms), flood %llu submitted / %llu "
        "rejected: %s\n",
        solo_p95, contended_p95, fairness_limit_ms,
        static_cast<unsigned long long>(flood.submitted.load()),
        static_cast<unsigned long long>(flood.rejected.load()),
        fairness_ok ? "OK" : "FAILED");

    JsonValue doc = JsonValue::object();
    doc.set("bench", JsonValue("serve"));
    doc.set("sweep", JsonValue("fig6 (2x-BW scaling studies)"));
    doc.set("shards", static_cast<double>(options.shards));
    doc.set("cold", latencyArray(gpm_counts, cold));
    doc.set("warm", latencyArray(gpm_counts, warm));
    doc.set("cold-total-ms", cold_total);
    doc.set("warm-total-ms", warm_total);
    doc.set("cold-over-warm",
            warm_total > 0.0 ? cold_total / warm_total : 0.0);
    JsonValue stats_json = JsonValue::object();
    stats_json.set("completed", static_cast<double>(stats.completed));
    stats_json.set("simulations-started",
                   static_cast<double>(stats.simulationsStarted));
    stats_json.set("dedup-attached",
                   static_cast<double>(stats.dedupAttached));
    stats_json.set("latency-p50-ms", stats.latencyP50Ms);
    stats_json.set("latency-p95-ms", stats.latencyP95Ms);
    doc.set("stats", std::move(stats_json));
    JsonValue series = JsonValue::array();
    for (const serve::StatsSample &sample : service.timeseries()) {
        JsonValue row = JsonValue::object();
        row.set("t-ms", static_cast<double>(sample.tMs));
        row.set("queue-depth",
                static_cast<double>(sample.queueDepth));
        row.set("busy-shards",
                static_cast<double>(sample.busyShards));
        row.set("inflight", static_cast<double>(sample.inflight));
        series.push(std::move(row));
    }
    doc.set("queue-timeseries", std::move(series));

    JsonValue fairness = JsonValue::object();
    fairness.set("light-requests",
                 static_cast<double>(light_count));
    fairness.set("light-pace-ms",
                 static_cast<double>(light_pace_ms));
    fairness.set("quota-rate-per-sec", fair_options.quotaRatePerSec);
    fairness.set("quota-burst", fair_options.quotaBurst);
    fairness.set("solo-p50-ms", solo_p50);
    fairness.set("solo-p95-ms", solo_p95);
    fairness.set("flooded-p50-ms", contended_p50);
    fairness.set("flooded-p95-ms", contended_p95);
    fairness.set("limit-ms", fairness_limit_ms);
    fairness.set("flood-submitted",
                 static_cast<double>(flood.submitted.load()));
    fairness.set("flood-ok", static_cast<double>(flood.ok.load()));
    fairness.set("flood-rejected",
                 static_cast<double>(flood.rejected.load()));
    fairness.set("quota-rejected",
                 static_cast<double>(fair_stats.quotaRejected));
    fairness.set("shed", static_cast<double>(fair_stats.shed));
    fairness.set("ok", JsonValue(fairness_ok));
    doc.set("fairness", std::move(fairness));

    std::ofstream out("BENCH_serve.json");
    doc.write(out);
    out << "\n";
    std::printf("bench_serve: wrote BENCH_serve.json\n");

    fair.beginShutdown();
    fair.join();
    service.beginShutdown();
    service.join();
    return failed || !fairness_ok ? 1 : 0;
}
