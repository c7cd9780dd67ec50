/**
 * @file
 * Tests for the SimService engine and its socket front end:
 * bit-identity of served results against direct in-process
 * execution, in-flight dedup (one simulation per work identity),
 * bounded-queue backpressure, watchdog containment of hung points,
 * admission unit behavior, and live-socket fuzz — a daemon
 * fed garbage must answer with error lines, not die.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/wallclock.hh"
#include "fault/fault_plan.hh"
#include "serve/admission.hh"
#include "serve/client.hh"
#include "serve/service.hh"
#include "serve/socket_server.hh"
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

TEST(ServeService, PingAndStatsAnswerInline)
{
    ServiceFixture fixture;
    Request ping;
    ping.type = RequestType::Ping;
    ping.id = "p1";
    Response response = fixture.service.call(ping);
    EXPECT_EQ(response.status, ResponseStatus::Ok);
    EXPECT_EQ(response.id, "p1");

    Request stats;
    stats.type = RequestType::Stats;
    response = fixture.service.call(stats);
    ASSERT_EQ(response.status, ResponseStatus::Ok);
    EXPECT_NE(response.result.find("queue-depth"), nullptr);
    EXPECT_NE(response.result.find("timeseries"), nullptr);
}

TEST(ServeService, ServedRunIsBitIdenticalToDirectExecution)
{
    ServiceFixture fixture;
    Response served =
        fixture.service.call(runRequest("Stream", 2, "r1"));
    ASSERT_EQ(served.status, ResponseStatus::Ok) << served.message;

    harness::ScalingRunner direct(context());
    direct.attachPersistentCache(nullptr);
    Request request = runRequest("Stream", 2, "r1");
    auto profile = trace::findWorkload("Stream");
    ASSERT_TRUE(profile.has_value());
    Result<const harness::RunOutcome *> outcome =
        direct.tryRun(request.spec.config(), *profile);
    ASSERT_TRUE(outcome.ok());

    // The encoded hexfloat payloads must match byte for byte.
    EXPECT_EQ(served.result.dumpCompact(),
              encodeOutcome(*outcome.value()).dumpCompact());
}

TEST(ServeService, ServedStudyIsBitIdenticalToScalingStudy)
{
    ServiceFixture fixture;
    Request request;
    request.type = RequestType::Study;
    request.id = "s1";
    request.spec.workload = "Stream";
    request.spec.gpms = 2;
    Response served = fixture.service.call(request);
    ASSERT_EQ(served.status, ResponseStatus::Ok) << served.message;

    harness::ScalingRunner direct(context());
    direct.attachPersistentCache(nullptr);
    auto profile = trace::findWorkload("Stream");
    ASSERT_TRUE(profile.has_value());
    std::vector<harness::ScalingPoint> points =
        harness::scalingStudy(direct, request.spec.config(),
                              {*profile});
    EXPECT_EQ(served.result.dumpCompact(),
              encodeStudy(request.spec.config(), points)
                  .dumpCompact());
}

TEST(ServeService, DuplicateRequestsSimulateExactlyOnce)
{
    ServiceFixture fixture;
    // Same work identity five times, distinct ids — whether each
    // lands as a dedup attach or a memo hit depends on timing, but
    // the simulation count must come out 1 either way.
    for (int i = 0; i < 5; ++i) {
        Response response = fixture.service.call(
            runRequest("Kmeans", 2, "dup-" + std::to_string(i)));
        ASSERT_EQ(response.status, ResponseStatus::Ok)
            << response.message;
        EXPECT_EQ(response.id, "dup-" + std::to_string(i));
    }
    ServiceStats stats = fixture.service.stats();
    EXPECT_EQ(stats.simulationsStarted, 1u);
    EXPECT_EQ(stats.completed, 5u);
}

TEST(ServeService, UnknownWorkloadFailsThePointNotTheService)
{
    ServiceFixture fixture;
    Response bad =
        fixture.service.call(runRequest("NoSuchKernel", 2, "b1"));
    EXPECT_EQ(bad.status, ResponseStatus::Error);
    EXPECT_EQ(bad.code, ErrCode::Config);

    Response good =
        fixture.service.call(runRequest("Stream", 2, "g1"));
    EXPECT_EQ(good.status, ResponseStatus::Ok) << good.message;
    EXPECT_EQ(fixture.service.stats().failed, 1u);
}

TEST(ServeService, WatchdogContainsAHungPoint)
{
    ServeOptions options;
    options.shards = 1;
    options.watchdogSeconds = 0.2;
    ServiceFixture fixture(options);

    fault::FaultPlan plan;
    plan.harness.hangPoints.push_back("Hotspot");
    plan.harness.hangSeconds = 30.0;
    fixture.service.runner().setFaultPlan(&plan);

    std::int64_t start = wallclock::nowMs();
    Response hung =
        fixture.service.call(runRequest("Hotspot", 2, "h1"));
    EXPECT_EQ(hung.status, ResponseStatus::Error);
    EXPECT_EQ(hung.code, ErrCode::Timeout) << hung.message;
    // Reclaimed by the watchdog, not by the 30 s hang expiring.
    EXPECT_LT(wallclock::nowMs() - start, 10000);

    // The shard is reusable afterwards.
    fixture.service.runner().setFaultPlan(nullptr);
    Response next =
        fixture.service.call(runRequest("Stream", 2, "h2"));
    EXPECT_EQ(next.status, ResponseStatus::Ok) << next.message;

    // The timeout was that request's answer, not the point's: asked
    // again with the hang gone, Hotspot simulates.
    Response again =
        fixture.service.call(runRequest("Hotspot", 2, "h3"));
    EXPECT_EQ(again.status, ResponseStatus::Ok) << again.message;
}

TEST(ServeService, FullQueueRejectsInsteadOfBlocking)
{
    ServeOptions options;
    options.shards = 1;
    options.queueDepth = 1;
    options.watchdogSeconds = 2.0;
    ServiceFixture fixture(options);

    fault::FaultPlan plan;
    plan.harness.hangPoints.push_back("BFS");
    plan.harness.hangSeconds = 30.0;
    fixture.service.runner().setFaultPlan(&plan);

    std::mutex mutex;
    std::condition_variable cv;
    std::size_t done = 0;
    std::size_t rejected = 0;
    auto sink = [&](const Response &response) {
        std::lock_guard<std::mutex> lock(mutex);
        ++done;
        if (response.status == ResponseStatus::Rejected)
            ++rejected;
        cv.notify_all();
    };

    // Occupy the single shard with a hang, then wait until it is
    // actually running so the flood below meets a busy service.
    fixture.service.submit(runRequest("BFS", 2, "hog"), sink);
    std::int64_t deadline = wallclock::nowMs() + 5000;
    while (fixture.service.stats().busyShards == 0 &&
           wallclock::nowMs() < deadline)
        wallclock::sleepMs(10);
    ASSERT_GT(fixture.service.stats().busyShards, 0u);

    // Distinct work identities (the energy knob is part of the
    // fingerprint) so none of them dedup-attach, at normal priority
    // so the batch-tier shed gate stays out of it. The busy shard
    // holds the hog and the queue holds queueDepth more; the depth
    // gate must reject every other request.
    const std::size_t flood = 8;
    for (std::size_t i = 0; i < flood; ++i) {
        Request request = runRequest("Stream", 2, "f" + std::to_string(i));
        request.spec.linkEnergyScale =
            1.0 + 0.125 * static_cast<double>(i + 1);
        fixture.service.submit(std::move(request), sink);
    }

    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(60), [&] {
        return done == flood + 1;
    }));
    EXPECT_EQ(rejected, flood - options.queueDepth);
    ServiceStats stats = fixture.service.stats();
    EXPECT_EQ(stats.rejected, rejected);
    EXPECT_EQ(stats.shed, 0u);
}

TEST(ServeService, HungJobLeavesTheOtherShardServing)
{
    ServeOptions options;
    options.shards = 2;
    options.watchdogSeconds = 3.0;
    ServiceFixture fixture(options);

    // Warm the memo first, so the probe below costs microseconds and
    // only where it waits can make it slow.
    Response warm = fixture.service.call(runRequest("Stream", 2, "warm"));
    ASSERT_EQ(warm.status, ResponseStatus::Ok) << warm.message;

    fault::FaultPlan plan;
    plan.harness.hangPoints.push_back("BFS");
    plan.harness.hangSeconds = 30.0;
    fixture.service.runner().setFaultPlan(&plan);

    std::mutex mutex;
    std::condition_variable cv;
    int bfs_done = 0;
    bool probe_done = false;
    int bfs_done_at_probe = -1;

    // One hang occupies a shard until the watchdog takes it back.
    fixture.service.submit(runRequest("BFS", 2, "hog"),
                           [&](const Response &) {
                               std::lock_guard<std::mutex> lock(mutex);
                               ++bfs_done;
                               cv.notify_all();
                           });
    std::int64_t deadline = wallclock::nowMs() + 5000;
    while (fixture.service.stats().busyShards == 0 &&
           wallclock::nowMs() < deadline)
        wallclock::sleepMs(10);
    ASSERT_GT(fixture.service.stats().busyShards, 0u);

    // A probe for the same machine config: the idle shard must take
    // it rather than leave it waiting behind the hang.
    fixture.service.submit(
        runRequest("Stream", 2, "probe"),
        [&](const Response &response) {
            std::lock_guard<std::mutex> lock(mutex);
            probe_done = true;
            bfs_done_at_probe = bfs_done;
            EXPECT_EQ(response.status, ResponseStatus::Ok)
                << response.message;
            cv.notify_all();
        });

    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return probe_done; }));
    EXPECT_EQ(bfs_done_at_probe, 0);

    // Let the watchdog reclaim the hang before the fault plan
    // (stack-owned) goes out of scope under the service.
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return bfs_done == 1; }));
    fixture.service.runner().setFaultPlan(nullptr);
}

TEST(ServeService, ShutdownRejectsNewWorkButAnswersInlineVerbs)
{
    ServiceFixture fixture;
    fixture.service.beginShutdown();
    Response late =
        fixture.service.call(runRequest("Stream", 2, "late"));
    EXPECT_EQ(late.status, ResponseStatus::Rejected);

    Request ping;
    ping.type = RequestType::Ping;
    EXPECT_EQ(fixture.service.call(ping).status,
              ResponseStatus::Ok);
    fixture.service.join();
}

TEST(ServeAdmission, PriorityThenFifoOrder)
{
    AdmissionQueue queue(8);
    auto push = [&](const char *id, int priority) {
        Request request;
        request.type = RequestType::Run;
        request.id = id;
        request.priority = priority;
        ASSERT_EQ(queue.tryPush(std::move(request), 0),
                  Admit::Accepted);
    };
    push("batch-1", 2);
    push("normal-1", 1);
    push("high-1", 0);
    push("normal-2", 1);
    push("high-2", 0);

    const char *expected[] = {"high-1", "high-2", "normal-1",
                              "normal-2", "batch-1"};
    std::uint64_t take = 0;
    for (const char *id : expected) {
        auto job = queue.pop();
        ASSERT_TRUE(job.has_value());
        EXPECT_EQ(job->request.id, id);
        EXPECT_EQ(job->take, ++take); // pop order, 1-based
    }
    EXPECT_EQ(queue.depth(), 0u);
    EXPECT_EQ(queue.accepted(), 5u);
}

TEST(ServeAdmission, BoundedDepthAndStopSemantics)
{
    AdmissionQueue queue(2);
    Request request;
    request.type = RequestType::Run;
    EXPECT_EQ(queue.tryPush(request, 0), Admit::Accepted);
    EXPECT_EQ(queue.tryPush(request, 0), Admit::Accepted);
    EXPECT_EQ(queue.tryPush(request, 0), Admit::QueueFull);
    EXPECT_EQ(queue.rejected(), 1u);

    queue.stop();
    EXPECT_EQ(queue.tryPush(request, 0), Admit::Stopped);
    // Accepted work still drains after stop.
    EXPECT_TRUE(queue.pop().has_value());
    EXPECT_TRUE(queue.pop().has_value());
    EXPECT_FALSE(queue.pop().has_value());
}

TEST(ServeSocket, GarbageOverSocketGetsErrorsNotACrash)
{
    ServiceFixture fixture;
    std::string path = "serve_fuzz.sock";
    SocketServer server(fixture.service, path);
    Result<void> started = server.start();
    ASSERT_TRUE(started.ok()) << started.error().describe();

    ServeClient client;
    ASSERT_TRUE(client.connect(path).ok());

    const char *const garbage[] = {
        "not json at all",
        "{\"type\":\"run\"",
        "{\"type\":\"launch-missiles\",\"id\":\"evil\"}",
        "[1,2,3]",
        "{\"a\": 1,}",
        "\"\\uZZZZ\"",
    };
    for (const char *line : garbage) {
        ASSERT_TRUE(client.sendLine(line).ok()) << line;
        Result<std::string> reply = client.recvLine(10000);
        ASSERT_TRUE(reply.ok()) << line;
        Result<Response> response = parseResponse(reply.value());
        ASSERT_TRUE(response.ok()) << reply.value();
        EXPECT_EQ(response.value().status, ResponseStatus::Error)
            << line;
    }

    // Oversized single line: error response, connection dropped,
    // daemon alive for the next client.
    std::string big(maxRequestBytes + 100, 'x');
    ASSERT_TRUE(client.sendLine(big).ok());
    Result<std::string> reply = client.recvLine(10000);
    if (reply.ok()) {
        Result<Response> response = parseResponse(reply.value());
        ASSERT_TRUE(response.ok());
        EXPECT_EQ(response.value().status, ResponseStatus::Error);
    }

    ServeClient fresh;
    ASSERT_TRUE(fresh.connect(path).ok());
    Request ping;
    ping.type = RequestType::Ping;
    ping.id = "after-fuzz";
    Result<Response> pong = fresh.roundTrip(ping);
    ASSERT_TRUE(pong.ok()) << pong.error().describe();
    EXPECT_EQ(pong.value().status, ResponseStatus::Ok);
    EXPECT_EQ(pong.value().id, "after-fuzz");

    server.stop();
}

TEST(ServeSocket, TruncatedFramingAndMidLineDisconnects)
{
    ServiceFixture fixture;
    std::string path = "serve_trunc.sock";
    SocketServer server(fixture.service, path);
    ASSERT_TRUE(server.start().ok());

    // A client that sends half a request and vanishes: the daemon
    // must shrug it off.
    {
        std::string partial = "{\"type\":\"run\",\"workl";
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_un raw{};
        raw.sun_family = AF_UNIX;
        std::memcpy(raw.sun_path, path.c_str(), path.size() + 1);
        ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&raw),
                            sizeof(raw)),
                  0);
        ASSERT_EQ(::send(fd, partial.data(), partial.size(),
                         MSG_NOSIGNAL),
                  static_cast<ssize_t>(partial.size()));
        ::close(fd); // gone mid-line
    }

    // Pipelined requests torn across arbitrary write boundaries
    // still frame correctly.
    Request ping;
    ping.type = RequestType::Ping;
    ping.id = "torn";
    std::string two = ping.encode() + "\n" + ping.encode() + "\n";
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un raw{};
    raw.sun_family = AF_UNIX;
    std::memcpy(raw.sun_path, path.c_str(), path.size() + 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&raw),
                        sizeof(raw)),
              0);
    for (std::size_t i = 0; i < two.size(); i += 7) {
        std::size_t n = std::min<std::size_t>(7, two.size() - i);
        ASSERT_EQ(::send(fd, two.data() + i, n, MSG_NOSIGNAL),
                  static_cast<ssize_t>(n));
        wallclock::sleepMs(1);
    }
    std::string got;
    char buffer[512];
    while (got.find('\n') == std::string::npos ||
           got.find('\n', got.find('\n') + 1) == std::string::npos) {
        ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
        ASSERT_GT(n, 0);
        got.append(buffer, static_cast<std::size_t>(n));
    }
    ::close(fd);
    EXPECT_EQ(fixture.service.stats().rejected, 0u);

    server.stop();
}

TEST(ServeSocket, FinishedConnectionThreadsAreReaped)
{
    ServiceFixture fixture;
    std::string path = "serve_reap.sock";
    SocketServer server(fixture.service, path);
    ASSERT_TRUE(server.start().ok());

    for (int i = 0; i < 8; ++i) {
        ServeClient client;
        ASSERT_TRUE(client.connect(path).ok());
        Request ping;
        ping.type = RequestType::Ping;
        ping.id = "reap-" + std::to_string(i);
        Result<Response> pong = client.roundTrip(ping);
        ASSERT_TRUE(pong.ok()) << pong.error().describe();
    } // each dtor closes the socket; its reader thread exits

    // The accept loop reaps on every poll tick (~100 ms), without
    // needing a new connection to arrive.
    std::int64_t deadline = wallclock::nowMs() + 5000;
    while (server.trackedConnectionThreads() > 0 &&
           wallclock::nowMs() < deadline)
        wallclock::sleepMs(20);
    EXPECT_EQ(server.trackedConnectionThreads(), 0u);
    EXPECT_EQ(server.connectionsAccepted(), 8u);

    server.stop();
}

TEST(ServeSocket, StopUnblocksAWriterStalledOnAFullSocket)
{
    ServiceFixture fixture;
    std::string path = "serve_stall.sock";
    SocketServer server(fixture.service, path);
    ASSERT_TRUE(server.start().ok());

    // A client that floods garbage (every line earns an error
    // response) but never reads: the response path must stall
    // without wedging the reader thread, and stop() must still
    // return — pre-fix, stop() deadlocked on the writer's mutex.
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un raw{};
    raw.sun_family = AF_UNIX;
    std::memcpy(raw.sun_path, path.c_str(), path.size() + 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&raw),
                        sizeof(raw)),
              0);
    std::string chunk;
    for (int i = 0; i < 512; ++i)
        chunk += "z\n";
    // Fill until the kernel refuses twice, with a drain pause in
    // between so the server's writer is actually wedged against our
    // unread receive buffer.
    for (int round = 0; round < 2; ++round) {
        for (int i = 0; i < 4096; ++i) {
            ssize_t n = ::send(fd, chunk.data(), chunk.size(),
                               MSG_NOSIGNAL | MSG_DONTWAIT);
            if (n < 0)
                break;
        }
        wallclock::sleepMs(300);
    }

    std::int64_t start = wallclock::nowMs();
    server.stop();
    EXPECT_LT(wallclock::nowMs() - start, 8000);
    ::close(fd);
}

} // namespace
