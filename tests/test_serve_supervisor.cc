/**
 * @file
 * Self-healing serve-tier tests. Unit level: ShardSupervisor
 * strike/quarantine/backoff policy, CircuitBreaker windowing and
 * cooldown, and the admission queue's quota and shed gates (all
 * clock-free — wall times are passed in). Service level: a
 * crash-pointed workload is quarantined after maxStrikes while a
 * healthy sibling keeps answering bit-identically to direct
 * execution, counter-driven shard crashes are requeued invisibly
 * (clients only ever see Ok), an injected shard stall delays only the
 * stalled job, and a client call() rides injected connection resets
 * by reconnecting.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/wallclock.hh"
#include "fault/fault_plan.hh"
#include "serve/admission.hh"
#include "serve/client.hh"
#include "serve/service.hh"
#include "serve/socket_server.hh"
#include "serve/supervisor.hh"
#include "trace/workloads.hh"

namespace
{

using namespace mmgpu;
using namespace mmgpu::serve;

/** Shared context: calibration runs once for the whole suite. */
harness::StudyContext &
context()
{
    static harness::StudyContext instance;
    return instance;
}

/** A service isolated from the process-wide persistent cache. */
struct ServiceFixture
{
    explicit ServiceFixture(ServeOptions options = {})
        : service(options, context())
    {
        service.runner().attachPersistentCache(nullptr);
        service.start();
    }

    SimService service;
};

Request
runRequest(const std::string &workload, unsigned gpms,
           const std::string &id, int priority = 1)
{
    Request request;
    request.type = RequestType::Run;
    request.id = id;
    request.spec.workload = workload;
    request.spec.gpms = gpms;
    request.priority = priority;
    return request;
}

TEST(ShardSupervisor, ThreeStrikesQuarantineTheFingerprint)
{
    ShardSupervisor supervisor; // maxStrikes = 3
    const std::uint64_t fp = 0xfeedface;

    ShardSupervisor::Outcome first =
        supervisor.onCrash(0, fp, "boom", 10);
    EXPECT_EQ(first.verdict, CrashVerdict::Requeue);
    EXPECT_EQ(first.strike, 1u);

    ShardSupervisor::Outcome second =
        supervisor.onCrash(1, fp, "boom", 20);
    EXPECT_EQ(second.verdict, CrashVerdict::Requeue);
    EXPECT_EQ(second.strike, 2u);
    EXPECT_FALSE(supervisor.quarantined(fp));

    ShardSupervisor::Outcome third =
        supervisor.onCrash(0, fp, "boom", 30);
    EXPECT_EQ(third.verdict, CrashVerdict::Poison);
    EXPECT_EQ(third.strike, 3u);
    EXPECT_TRUE(supervisor.quarantined(fp));
    EXPECT_FALSE(supervisor.quarantined(fp + 1));

    SupervisorStats stats = supervisor.stats();
    EXPECT_EQ(stats.crashes, 3u);
    EXPECT_EQ(stats.requeues, 2u);
    EXPECT_EQ(stats.poisonings, 1u);
    EXPECT_EQ(stats.quarantined, 1u);
}

TEST(ShardSupervisor, BackoffDoublesPerShardAndResetsOnHealthy)
{
    SupervisorOptions options;
    options.backoffBaseMs = 100;
    options.backoffCapMs = 400;
    options.maxStrikes = 100; // keep every verdict a requeue here
    ShardSupervisor supervisor(options);

    // Distinct fingerprints: this test is about the *shard's*
    // consecutive-crash backoff, not strike accounting.
    EXPECT_EQ(supervisor.onCrash(0, 1, "x", 0).backoffMs, 100u);
    EXPECT_EQ(supervisor.onCrash(0, 2, "x", 0).backoffMs, 200u);
    EXPECT_EQ(supervisor.onCrash(0, 3, "x", 0).backoffMs, 400u);
    EXPECT_EQ(supervisor.onCrash(0, 4, "x", 0).backoffMs, 400u); // cap

    // Another shard's backoff is independent.
    EXPECT_EQ(supervisor.onCrash(1, 5, "x", 0).backoffMs, 100u);

    // One clean job resets the ladder.
    supervisor.onHealthy(0);
    EXPECT_EQ(supervisor.onCrash(0, 6, "x", 0).backoffMs, 100u);

    EXPECT_EQ(supervisor.stats().backoffMsTotal,
              100u + 200u + 400u + 400u + 100u + 100u);
}

TEST(ShardSupervisor, EventLogIsBoundedOldestDropped)
{
    SupervisorOptions options;
    options.eventLogCap = 4;
    options.maxStrikes = 100;
    ShardSupervisor supervisor(options);

    for (std::uint64_t i = 0; i < 6; ++i)
        supervisor.onCrash(2, 0xab00 + i, "panic " + std::to_string(i),
                           1000 + i);

    std::vector<SupervisorEvent> events = supervisor.events();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events.front().wallMs, 1002u); // two oldest dropped
    EXPECT_EQ(events.back().wallMs, 1005u);
    EXPECT_EQ(events.back().shard, 2u);
    EXPECT_EQ(events.back().fingerprint, 0xab05u);
    EXPECT_EQ(events.back().message, "panic 5");
    EXPECT_EQ(events.back().verdict, CrashVerdict::Requeue);
}

TEST(CircuitBreaker, OpensAtTripRatioThenCoolsDownClean)
{
    BreakerOptions options;
    options.window = 16;
    options.tripRatio = 0.5;
    options.minSamples = 8;
    options.cooldownMs = 2000;
    CircuitBreaker breaker(2, options);

    // 4 ok + 3 errors = 7 samples: under minSamples, still closed.
    for (int i = 0; i < 4; ++i)
        breaker.record(0, true, 100);
    for (int i = 0; i < 3; ++i)
        breaker.record(0, false, 100);
    EXPECT_FALSE(breaker.open(0, 100));
    EXPECT_EQ(breaker.trips(), 0u);

    // The 8th sample makes it 4/8 errors >= tripRatio: open.
    breaker.record(0, false, 100);
    EXPECT_TRUE(breaker.open(0, 100));
    EXPECT_GT(breaker.retryAfterMs(0, 100), 0u);
    EXPECT_LE(breaker.retryAfterMs(0, 100), 2000u);
    EXPECT_EQ(breaker.trips(), 1u);

    // The other class is untouched.
    EXPECT_FALSE(breaker.open(1, 100));
    EXPECT_EQ(breaker.retryAfterMs(1, 100), 0u);

    // Straggler errors while open must not poison the fresh window.
    breaker.record(0, false, 500);
    breaker.record(0, false, 1000);

    // Cooldown elapsed: closed, and the window restarts clean — one
    // more error is far below minSamples.
    EXPECT_FALSE(breaker.open(0, 2100));
    EXPECT_EQ(breaker.retryAfterMs(0, 2100), 0u);
    breaker.record(0, false, 2100);
    EXPECT_FALSE(breaker.open(0, 2100));
    EXPECT_EQ(breaker.trips(), 1u);
}

TEST(ServeAdmission, QuotaBurstThenStaggeredVirtualQueueHints)
{
    AdmissionOptions options;
    options.maxDepth = 64;
    options.quotaRatePerSec = 2.0; // one token per 500 ms
    options.quotaBurst = 2.0;
    AdmissionQueue queue(options);

    auto push = [&](const char *client, std::int64_t now_ms,
                    std::uint64_t *hint = nullptr) {
        Request request = runRequest("Stream", 2, "q");
        request.client = client;
        return queue.tryPush(std::move(request), now_ms, hint);
    };

    // The burst passes...
    EXPECT_EQ(push("a", 1000), Admit::Accepted);
    EXPECT_EQ(push("a", 1000), Admit::Accepted);

    // ...then rejections get *staggered* hints: each one reserves
    // its own future refill slot, one token period apart, instead of
    // all pointing at the same instant.
    std::uint64_t hint = 0;
    EXPECT_EQ(push("a", 1000, &hint), Admit::QuotaExceeded);
    EXPECT_EQ(hint, 500u);
    EXPECT_EQ(push("a", 1000, &hint), Admit::QuotaExceeded);
    EXPECT_EQ(hint, 1000u);
    EXPECT_EQ(queue.quotaRejected(), 2u);

    // Another client has its own bucket.
    EXPECT_EQ(push("b", 1000), Admit::Accepted);

    // After a refill period the flooding client is admitted again.
    EXPECT_EQ(push("a", 1600), Admit::Accepted);
}

TEST(ServeAdmission, ShedsBatchTierPastWatermarkKeepsInteractive)
{
    AdmissionOptions options;
    options.maxDepth = 4;
    options.shedWatermark = 0.5; // shed batch work past depth 2
    AdmissionQueue queue(options);

    auto push = [&](const char *id, int priority,
                    std::uint64_t *hint = nullptr) {
        return queue.tryPush(runRequest("Stream", 2, id, priority), 0,
                             hint);
    };

    EXPECT_EQ(push("n1", 1), Admit::Accepted);
    EXPECT_EQ(push("n2", 1), Admit::Accepted);

    // Batch tier is shed at the watermark, with a pace-based hint.
    std::uint64_t hint = 0;
    EXPECT_EQ(push("batch", 2, &hint), Admit::Shedding);
    EXPECT_GT(hint, 0u);
    EXPECT_EQ(queue.shedRejected(), 1u);

    // Interactive work still gets the remaining headroom.
    EXPECT_EQ(push("hi", 0), Admit::Accepted);
    EXPECT_EQ(push("n3", 1), Admit::Accepted);

    // And past the hard bound everything is rejected, hint included.
    hint = 0;
    EXPECT_EQ(push("n4", 1, &hint), Admit::QueueFull);
    EXPECT_GT(hint, 0u);
    EXPECT_EQ(queue.rejected(), 1u);
}

TEST(ServeAdmission, RequeueBypassesEveryGateUntilStopped)
{
    AdmissionOptions options;
    options.maxDepth = 1;
    options.quotaRatePerSec = 1.0;
    options.quotaBurst = 1.0;
    AdmissionQueue queue(options);

    Request request = runRequest("Stream", 2, "first");
    request.client = "c";
    ASSERT_EQ(queue.tryPush(std::move(request), 1000),
              Admit::Accepted);

    // Same client, full queue, empty bucket: tryPush has no path in.
    Request second = runRequest("Stream", 2, "second");
    second.client = "c";
    EXPECT_NE(queue.tryPush(std::move(second), 1000),
              Admit::Accepted);

    // Crash recovery re-enters anyway: the job was admitted once.
    // Production requeues keep the job's original (unique) ticket —
    // the map key is (priority, ticket), so the ticket must not
    // collide with the job still queued.
    Job job;
    job.request = runRequest("Stream", 2, "recovered");
    job.request.client = "c";
    job.ticket = 7;
    EXPECT_TRUE(queue.requeue(std::move(job)));
    EXPECT_EQ(queue.depth(), 2u);
    EXPECT_EQ(queue.requeued(), 1u);

    // After stop() the caller must answer the sinks itself.
    queue.stop();
    Job late;
    late.request = runRequest("Stream", 2, "late");
    EXPECT_FALSE(queue.requeue(std::move(late)));
}

TEST(ServeSelfHealing, CrashPointQuarantinedAfterMaxStrikes)
{
    fault::FaultPlan plan;
    plan.serve.crashPoints.push_back("Stream");

    ServeOptions options;
    options.shards = 2;
    options.supervisor.backoffBaseMs = 1; // keep the test fast
    options.supervisor.backoffCapMs = 4;
    options.faultPlan = &plan;
    ServiceFixture fixture(options);

    // Every attempt at the crash point kills a shard; after
    // maxStrikes the fingerprint is poisoned and the client finally
    // gets an answer — the quarantine verdict, not a hang.
    Response poisoned =
        fixture.service.call(runRequest("Stream", 2, "q1"));
    EXPECT_EQ(poisoned.status, ResponseStatus::Error);
    EXPECT_EQ(poisoned.code, ErrCode::Poisoned) << poisoned.message;

    ServiceStats stats = fixture.service.stats();
    EXPECT_EQ(stats.crashes, 3u);
    EXPECT_EQ(stats.requeues, 2u);
    EXPECT_EQ(stats.poisonings, 1u);
    EXPECT_EQ(stats.quarantined, 1u);
    EXPECT_GE(fixture.service.supervisor().events().size(), 3u);

    // Asking again is answered from the quarantine set without
    // crashing a fourth shard.
    Response again =
        fixture.service.call(runRequest("Stream", 2, "q2"));
    EXPECT_EQ(again.code, ErrCode::Poisoned);
    EXPECT_EQ(fixture.service.stats().crashes, 3u);

    // A healthy sibling on the same service is not just alive — its
    // payload is bit-identical to direct in-process execution.
    Response sibling =
        fixture.service.call(runRequest("Kmeans", 2, "k1"));
    ASSERT_EQ(sibling.status, ResponseStatus::Ok) << sibling.message;

    harness::ScalingRunner direct(context());
    direct.attachPersistentCache(nullptr);
    Request reference = runRequest("Kmeans", 2, "k1");
    auto profile = trace::findWorkload("Kmeans");
    ASSERT_TRUE(profile.has_value());
    Result<const harness::RunOutcome *> outcome =
        direct.tryRun(reference.spec.config(), *profile);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(sibling.result.dumpCompact(),
              encodeOutcome(*outcome.value()).dumpCompact());
}

TEST(ServeSelfHealing, CounterCrashesAreRequeuedInvisibly)
{
    fault::FaultPlan plan;
    plan.serve.shardCrashEveryJobs = 2;

    ServeOptions options;
    options.shards = 1;
    options.supervisor.backoffBaseMs = 1;
    options.supervisor.backoffCapMs = 2;
    options.faultPlan = &plan;
    ServiceFixture fixture(options);

    // Every second job crashes its shard, but each rerun lands on an
    // odd job index, so no fingerprint ever reaches two strikes: the
    // client sees nothing but Ok answers.
    Response stream =
        fixture.service.call(runRequest("Stream", 2, "c1"));
    ASSERT_EQ(stream.status, ResponseStatus::Ok) << stream.message;
    for (const char *workload : {"BFS", "Kmeans", "Hotspot"}) {
        Response response = fixture.service.call(
            runRequest(workload, 2, std::string("c-") + workload));
        EXPECT_EQ(response.status, ResponseStatus::Ok)
            << workload << ": " << response.message;
    }

    ServiceStats stats = fixture.service.stats();
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_GE(stats.crashes, 1u);
    EXPECT_EQ(stats.requeues, stats.crashes); // all recovered
    EXPECT_EQ(stats.poisonings, 0u);

    // A result that survived a crash-and-requeue is still
    // bit-identical to direct execution — recovery re-runs the
    // simulation, it does not degrade it.
    harness::ScalingRunner direct(context());
    direct.attachPersistentCache(nullptr);
    Request reference = runRequest("Stream", 2, "c1");
    auto profile = trace::findWorkload("Stream");
    ASSERT_TRUE(profile.has_value());
    Result<const harness::RunOutcome *> outcome =
        direct.tryRun(reference.spec.config(), *profile);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(stream.result.dumpCompact(),
              encodeOutcome(*outcome.value()).dumpCompact());
}

TEST(ServeSelfHealing, InjectedStallDelaysOnlyTheStalledJob)
{
    fault::FaultPlan plan;
    plan.serve.stallAtJob = 2;
    plan.serve.stallMs = 300;

    ServeOptions options;
    options.shards = 2;
    options.faultPlan = &plan;
    ServiceFixture fixture(options);

    // Job 1 warms the memo for the read below.
    Response warm = fixture.service.call(runRequest("Stream", 2, "warm"));
    ASSERT_EQ(warm.status, ResponseStatus::Ok) << warm.message;

    // Job 2 stalls the shard that takes it. The memo-hit read queued
    // behind it is job 3: the other shard takes it during the stall
    // and answers first, and the stalled job still answers Ok.
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<std::string> answered;
    std::int64_t stalled_ms = -1;
    const std::int64_t start = wallclock::nowMs();
    auto sink = [&](const Response &response) {
        std::lock_guard<std::mutex> lock(mutex);
        EXPECT_EQ(response.status, ResponseStatus::Ok)
            << response.id << ": " << response.message;
        if (response.id == "stalled")
            stalled_ms = wallclock::nowMs() - start;
        answered.push_back(response.id);
        cv.notify_all();
    };
    fixture.service.submit(runRequest("Kmeans", 2, "stalled"), sink);
    fixture.service.submit(runRequest("Stream", 2, "read"), sink);

    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(60),
                            [&] { return answered.size() == 2; }));
    EXPECT_EQ(answered, (std::vector<std::string>{"read", "stalled"}));
    EXPECT_GE(stalled_ms, static_cast<std::int64_t>(plan.serve.stallMs));
}

TEST(ServeSelfHealing, ClientCallRidesInjectedConnectionResets)
{
    ServiceFixture fixture;
    fault::FaultPlan plan;
    plan.serve.connResetEveryWrites = 3;

    std::string path = "serve_reset.sock";
    SocketServerOptions server_options;
    server_options.faultPlan = &plan;
    SocketServer server(fixture.service, path, server_options);
    Result<void> started = server.start();
    ASSERT_TRUE(started.ok()) << started.error().describe();

    ServeClient client;
    ASSERT_TRUE(client.connect(path).ok());

    RetryPolicy policy;
    policy.maxAttempts = 6;
    policy.perTryTimeoutMs = 10000;
    policy.deadlineMs = 60000;
    policy.backoffBaseMs = 1;
    policy.backoffCapMs = 8;
    policy.seed = 42;

    // The server hard-closes the connection after every third
    // response write; call() must reconnect and re-ask until every
    // ping lands.
    for (int i = 0; i < 10; ++i) {
        Request ping;
        ping.type = RequestType::Ping;
        ping.id = "reset-" + std::to_string(i);
        Result<Response> pong = client.call(ping, policy);
        ASSERT_TRUE(pong.ok()) << pong.error().describe();
        EXPECT_EQ(pong.value().status, ResponseStatus::Ok);
        EXPECT_EQ(pong.value().id, ping.id);
    }

    EXPECT_GT(server.injectedResets(), 0u);
    EXPECT_GT(client.counters().reconnects, 0u);
    EXPECT_EQ(client.counters().requests, 10u);

    server.stop();
}

} // namespace
