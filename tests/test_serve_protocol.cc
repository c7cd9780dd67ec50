/**
 * @file
 * Wire-protocol tests for the mmgpu_serve request/response codec:
 * round-trips, defaulting, strict validation, and fuzz-style hostile
 * framing (malformed JSON, truncations, oversized lines, seeded
 * mutations) — parseRequest must reject cleanly, never crash, and
 * never accept garbage as a runnable request.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/rng.hh"
#include "serve/request.hh"

namespace
{

using namespace mmgpu;
using namespace mmgpu::serve;

Request
fancyRequest()
{
    Request request;
    request.type = RequestType::Study;
    request.id = "req-42 \"quoted\"";
    request.priority = 2;
    request.spec.workload = "all";
    request.spec.gpms = 32;
    request.spec.bw = sim::BwSetting::Bw4x;
    request.spec.topology = noc::Topology::Switch;
    request.spec.domain = 1;
    request.spec.placement = sim::PlacementPolicy::Striped;
    request.spec.ctaSched = sm::CtaSchedPolicy::RoundRobin;
    request.spec.linkEnergyScale = 1.5;
    request.spec.constGrowthOverride = 0.25;
    return request;
}

TEST(ServeProtocol, RequestRoundTripPreservesEveryField)
{
    Request request = fancyRequest();
    Result<Request> parsed = parseRequest(request.encode());
    ASSERT_TRUE(parsed.ok()) << parsed.error().describe();
    const Request &back = parsed.value();
    EXPECT_EQ(back.type, RequestType::Study);
    EXPECT_EQ(back.id, request.id);
    EXPECT_EQ(back.priority, 2);
    EXPECT_EQ(back.spec.workload, "all");
    EXPECT_EQ(back.spec.gpms, 32u);
    EXPECT_EQ(back.spec.bw, sim::BwSetting::Bw4x);
    EXPECT_EQ(back.spec.topology, noc::Topology::Switch);
    EXPECT_EQ(back.spec.domain, 1);
    EXPECT_EQ(back.spec.placement, sim::PlacementPolicy::Striped);
    EXPECT_EQ(back.spec.ctaSched, sm::CtaSchedPolicy::RoundRobin);
    EXPECT_EQ(back.spec.linkEnergyScale, 1.5);
    EXPECT_EQ(back.spec.constGrowthOverride, 0.25);
    EXPECT_EQ(back.workIdentity(), request.workIdentity());
}

TEST(ServeProtocol, MinimalRequestGetsDefaults)
{
    Result<Request> parsed = parseRequest("{\"type\":\"run\"}");
    ASSERT_TRUE(parsed.ok());
    const Request &request = parsed.value();
    EXPECT_EQ(request.type, RequestType::Run);
    EXPECT_EQ(request.id, "");
    EXPECT_EQ(request.priority, 1);
    EXPECT_EQ(request.spec.workload, "Stream");
    EXPECT_EQ(request.spec.gpms, 4u);
    EXPECT_EQ(request.spec.bw, sim::BwSetting::Bw2x);
    EXPECT_EQ(request.spec.domain, -1);
}

TEST(ServeProtocol, EncodedLinesAreNewlineFree)
{
    // The framing is one document per line; an embedded newline
    // would tear the message.
    Request request = fancyRequest();
    request.id = "line\nbreak\ttab";
    std::string encoded = request.encode();
    EXPECT_EQ(encoded.find('\n'), std::string::npos);
    Result<Request> parsed = parseRequest(encoded);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().id, "line\nbreak\ttab");
}

TEST(ServeProtocol, WorkIdentityIgnoresIdAndPriority)
{
    Request a = fancyRequest();
    Request b = fancyRequest();
    b.id = "other";
    b.priority = 0;
    EXPECT_EQ(a.workIdentity(), b.workIdentity());

    Request c = fancyRequest();
    c.spec.linkEnergyScale = 2.0;
    EXPECT_NE(a.workIdentity(), c.workIdentity());
    Request d = fancyRequest();
    d.type = RequestType::Run;
    EXPECT_NE(a.workIdentity(), d.workIdentity());
}

TEST(ServeProtocol, RejectsBadFieldValues)
{
    const char *const bad[] = {
        "{}",
        "[1,2,3]",
        "\"just a string\"",
        "{\"type\":\"launch-missiles\"}",
        "{\"type\":\"run\",\"gpms\":0}",
        "{\"type\":\"run\",\"gpms\":2.5}",
        "{\"type\":\"run\",\"gpms\":-4}",
        "{\"type\":\"run\",\"gpms\":1000000}",
        "{\"type\":\"run\",\"bw\":\"3x\"}",
        "{\"type\":\"run\",\"bw\":2}",
        "{\"type\":\"run\",\"topology\":\"mesh\"}",
        "{\"type\":\"run\",\"domain\":\"chassis\"}",
        "{\"type\":\"run\",\"placement\":\"everywhere\"}",
        "{\"type\":\"run\",\"cta-sched\":\"chaotic\"}",
        "{\"type\":\"run\",\"priority\":3}",
        "{\"type\":\"run\",\"priority\":-1}",
        "{\"type\":\"run\",\"priority\":1.5}",
        "{\"type\":\"run\",\"link-energy-scale\":-1}",
        "{\"type\":\"run\",\"workload\":7}",
        "{\"type\":\"run\",\"id\":[]}",
    };
    for (const char *line : bad) {
        Result<Request> parsed = parseRequest(line);
        EXPECT_FALSE(parsed.ok()) << line;
    }
}

TEST(ServeProtocol, HostileFramingIsRejectedWithoutCrashing)
{
    // The JSON-parser fuzz corpus, pointed at the request layer: all
    // of these must come back as parse errors, never a crash.
    const char *const hostile[] = {
        "",         "   ",        "nul",
        "tru",      "+1",         ".5",
        "-",        "--1",        "1.2.3",
        "1e",       "0x10",       "NaN",
        "Infinity", "1e999999",   "\"unterminated",
        "\"bad escape \\q\"",     "\"\\u12\"",
        "[1, 2",    "[1,, 2]",    "{\"a\" 1}",
        "{\"a\": }", "{\"a\": 1,}", "{a: 1}",
        "{\"a\": 1} trailing",    "[}",
        "{]",       "{\"type\":", "{\"type\":\"run\"",
    };
    for (const char *line : hostile) {
        Result<Request> parsed = parseRequest(line);
        EXPECT_FALSE(parsed.ok()) << line;
    }
}

TEST(ServeProtocol, EveryTruncationOfAValidRequestIsHandled)
{
    std::string line = fancyRequest().encode();
    for (std::size_t len = 0; len < line.size(); ++len) {
        Result<Request> parsed = parseRequest(line.substr(0, len));
        EXPECT_FALSE(parsed.ok()) << len;
        // The id salvager must also survive every truncation.
        (void)parseRequestId(line.substr(0, len));
    }
}

TEST(ServeProtocol, SeededMutationsNeverCrashTheParser)
{
    std::string seed_doc = fancyRequest().encode();
    Rng rng(0xfa57);
    for (int round = 0; round < 2000; ++round) {
        std::string mutant = seed_doc;
        unsigned edits = 1 + static_cast<unsigned>(rng.below(4));
        for (unsigned e = 0; e < edits && !mutant.empty(); ++e) {
            std::size_t at = rng.below(mutant.size());
            switch (rng.below(3)) {
              case 0:
                mutant[at] = static_cast<char>(32 + rng.below(96));
                break;
              case 1:
                mutant.erase(at, 1);
                break;
              default:
                mutant.insert(at, 1, mutant[at]);
            }
        }
        Result<Request> parsed = parseRequest(mutant);
        if (parsed.ok()) {
            // Whatever still parses must re-encode without tripping
            // asserts and carry a sane spec.
            (void)parsed.value().encode();
            EXPECT_GE(parsed.value().spec.gpms, 1u);
        }
        (void)parseRequestId(mutant);
    }
}

TEST(ServeProtocol, OversizedLinesAreRejectedBeforeParsing)
{
    std::string big = "{\"type\":\"run\",\"id\":\"";
    big.append(maxRequestBytes, 'x');
    big += "\"}";
    Result<Request> parsed = parseRequest(big);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, ErrCode::Parse);
    EXPECT_TRUE(parseRequestId(big).empty());
}

TEST(ServeProtocol, RequestIdSalvageFromBrokenRequests)
{
    // Unknown type, but the id is intact: error responses stay
    // correlatable.
    EXPECT_EQ(parseRequestId("{\"type\":\"nope\",\"id\":\"abc\"}"),
              "abc");
    EXPECT_EQ(parseRequestId("complete garbage"), "");
    EXPECT_EQ(parseRequestId("{\"id\":7}"), "");
}

TEST(ServeProtocol, ResponseRoundTrips)
{
    JsonValue result = JsonValue::object();
    result.set("speedup", encodeHexDouble(3.0625));
    Response ok = Response::ok("id-1", std::move(result));
    Result<Response> back = parseResponse(ok.encode());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value().id, "id-1");
    EXPECT_EQ(back.value().status, ResponseStatus::Ok);
    double speedup = 0.0;
    EXPECT_TRUE(decodeHexDouble(
        back.value().result.find("speedup"), speedup));
    EXPECT_EQ(speedup, 3.0625);

    Response error = Response::error(
        "id-2", SimError::timeout("watchdog fired"));
    back = parseResponse(error.encode());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value().status, ResponseStatus::Error);
    EXPECT_EQ(back.value().code, ErrCode::Timeout);
    EXPECT_EQ(back.value().message, "watchdog fired");

    Response rejected = Response::rejected("id-3", "queue full");
    back = parseResponse(rejected.encode());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value().status, ResponseStatus::Rejected);
    EXPECT_EQ(back.value().message, "queue full");

    EXPECT_FALSE(parseResponse("{\"id\":\"x\"}").ok());
    EXPECT_FALSE(parseResponse("{\"status\":\"odd\"}").ok());
    EXPECT_FALSE(parseResponse("not json").ok());
}

TEST(ServeProtocol, ClientFieldRoundTripsButIsNotWorkIdentity)
{
    Request request = fancyRequest();
    request.client = "tenant-a";
    Result<Request> parsed = parseRequest(request.encode());
    ASSERT_TRUE(parsed.ok()) << parsed.error().describe();
    EXPECT_EQ(parsed.value().client, "tenant-a");

    // Two clients asking for the same design point must share one
    // simulation: quota identity is not dedup identity.
    Request other = fancyRequest();
    other.client = "tenant-b";
    EXPECT_EQ(request.workIdentity(), other.workIdentity());

    // Absent field parses as empty (the socket layer fills in the
    // per-connection default).
    Result<Request> bare = parseRequest("{\"type\":\"run\"}");
    ASSERT_TRUE(bare.ok());
    EXPECT_EQ(bare.value().client, "");
}

TEST(ServeProtocol, RetryAfterHintRoundTrips)
{
    Response rejected =
        Response::rejected("id-r", "client quota exceeded", 1500);
    EXPECT_NE(rejected.encode().find("retry-after-ms"),
              std::string::npos);
    Result<Response> back = parseResponse(rejected.encode());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value().status, ResponseStatus::Rejected);
    EXPECT_EQ(back.value().retryAfterMs, 1500u);

    // No hint: the field is omitted and parses back as 0.
    Response unhinted = Response::rejected("id-u", "queue full");
    EXPECT_EQ(unhinted.encode().find("retry-after-ms"),
              std::string::npos);
    back = parseResponse(unhinted.encode());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value().retryAfterMs, 0u);
}

TEST(ServeProtocol, SelfHealingErrorCodesRoundTrip)
{
    Response unavailable = Response::error(
        "id-u", SimError::unavailable("shard crashed mid-job"));
    Result<Response> back = parseResponse(unavailable.encode());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value().code, ErrCode::Unavailable);

    Response poisoned = Response::error(
        "id-p", SimError::poisoned("quarantined after 3 crashes"));
    back = parseResponse(poisoned.encode());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value().code, ErrCode::Poisoned);
    EXPECT_EQ(back.value().message, "quarantined after 3 crashes");
}

TEST(ServeProtocol, HexDoubleCodecIsExact)
{
    const double awkward[] = {
        0.0,      -0.0,     0.1,
        1.0 / 3.0, 3.141592653589793,
        5e-324,   0x1.fffffffffffffp+100,
        -1e22,    6.02214076e23,
    };
    for (double value : awkward) {
        JsonValue encoded(encodeHexDouble(value));
        double decoded = 0.0;
        ASSERT_TRUE(decodeHexDouble(&encoded, decoded));
        EXPECT_EQ(decoded, value);
    }
    JsonValue truncated("0x1.8p");
    double out = 0.0;
    EXPECT_FALSE(decodeHexDouble(&truncated, out));
    JsonValue number(1.5);
    EXPECT_FALSE(decodeHexDouble(&number, out));
    EXPECT_FALSE(decodeHexDouble(nullptr, out));
}

} // namespace
