#include <gtest/gtest.h>

#include <algorithm>

#include "net/http.hpp"
#include "net/network.hpp"
#include "net/resilience.hpp"
#include "net/tls.hpp"
#include "obs/metrics.hpp"
#include "pki/ca.hpp"

namespace revelio::net {
namespace {

using crypto::HmacDrbg;

constexpr std::uint64_t kYearUs = 365ull * 24 * 3600 * 1000 * 1000;

// ---------------------------------------------------------------- Network

struct NetFixture : ::testing::Test {
  SimClock clock;
  Network network{clock};
};

TEST_F(NetFixture, CallReachesHandlerAndChargesLatency) {
  const Address server{"10.0.0.1", 80};
  network.listen(server, [](ByteView req, const Address& from) {
    EXPECT_EQ(from.host, "10.0.0.9");
    return concat(to_bytes(std::string_view("echo:")), req);
  });
  network.set_default_latency_ms(5.0);
  const auto before = clock.now_us();
  auto r = network.call({"10.0.0.9", 1234}, server,
                        to_bytes(std::string_view("hi")));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string(*r), "echo:hi");
  EXPECT_EQ(clock.now_us() - before, 10'000u) << "one RTT";
}

TEST_F(NetFixture, ConnectionRefusedWithoutListener) {
  auto r = network.call({"a", 1}, {"b", 2}, {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "net.connection_refused");
}

TEST_F(NetFixture, CloseStopsListening) {
  const Address addr{"h", 80};
  network.listen(addr, [](ByteView, const Address&) { return Bytes{}; });
  EXPECT_TRUE(network.is_listening(addr));
  network.close(addr);
  EXPECT_FALSE(network.is_listening(addr));
}

TEST_F(NetFixture, LinkLatencyOverridesDefault) {
  network.set_default_latency_ms(10.0);
  network.listen({"server", 80},
                 [](ByteView, const Address&) { return Bytes{}; });
  // 2.01 ms is 2009.99... µs as a double: the round trip must charge
  // 2 x 2010 µs, not a truncated 4019.
  const std::pair<double, SimClock::Micros> cases[] = {{1.0, 2'000},
                                                       {2.01, 4'020}};
  for (const auto& [latency_ms, rtt_us] : cases) {
    network.set_link_latency_ms("client", "server", latency_ms);
    const auto before = clock.now_us();
    ASSERT_TRUE(network.call({"client", 1}, {"server", 80}, {}).ok());
    EXPECT_EQ(clock.now_us() - before, rtt_us) << latency_ms << " ms";
  }
}

TEST_F(NetFixture, InterceptorCanDrop) {
  network.listen({"s", 80}, [](ByteView, const Address&) {
    return to_bytes(std::string_view("ok"));
  });
  network.set_interceptor([](const Address&, const Address&, ByteView) {
    return MitmAction::drop();
  });
  network.set_call_timeout_ms(500.0);
  const auto before = clock.now_us();
  auto r = network.call({"c", 1}, {"s", 80}, {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "net.timeout");
  // A drop is never free: the caller waits out the configured timeout.
  EXPECT_EQ(clock.now_us() - before, 500'000u);
  network.clear_interceptor();
  EXPECT_TRUE(network.call({"c", 1}, {"s", 80}, {}).ok());
}

TEST_F(NetFixture, InterceptorCanTamper) {
  network.listen({"s", 80}, [](ByteView req, const Address&) {
    return to_bytes(req);
  });
  network.set_interceptor([](const Address&, const Address&, ByteView) {
    return MitmAction::tamper(to_bytes(std::string_view("evil")));
  });
  auto r = network.call({"c", 1}, {"s", 80}, to_bytes(std::string_view("hi")));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string(*r), "evil");
}

TEST_F(NetFixture, InterceptorCanRedirect) {
  network.listen({"good", 80}, [](ByteView, const Address&) {
    return to_bytes(std::string_view("good"));
  });
  network.listen({"evil", 80}, [](ByteView, const Address&) {
    return to_bytes(std::string_view("evil"));
  });
  network.set_interceptor([](const Address&, const Address&, ByteView) {
    return MitmAction::redirect({"evil", 80});
  });
  auto r = network.call({"c", 1}, {"good", 80}, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string(*r), "evil");
}

TEST_F(NetFixture, DnsResolveAndNxdomain) {
  network.dns_set_a("svc.example.com", "10.1.2.3");
  auto addr = network.resolve("svc.example.com", 443);
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(addr->host, "10.1.2.3");
  EXPECT_EQ(addr->port, 443);
  EXPECT_EQ(network.resolve("nope.example", 1).error().code, "net.nxdomain");
  network.dns_remove_a("svc.example.com");
  EXPECT_FALSE(network.resolve("svc.example.com", 443).ok());
}

TEST_F(NetFixture, DnsTxtRecords) {
  EXPECT_TRUE(network.dns_txt("x").empty());
  network.dns_set_txt("x", "a");
  network.dns_set_txt("x", "b");
  EXPECT_EQ(network.dns_txt("x").size(), 2u);
  network.dns_clear_txt("x");
  EXPECT_TRUE(network.dns_txt("x").empty());
}

// ------------------------------------------------------------- FaultPlan

TEST(FaultPlan, SameSeedSameSchedule) {
  LinkFaultProfile lossy;
  lossy.drop_prob = 0.2;
  lossy.delay_prob = 0.3;
  lossy.duplicate_prob = 0.1;
  FaultPlan a(to_bytes(std::string_view("chaos-seed")));
  FaultPlan b(to_bytes(std::string_view("chaos-seed")));
  FaultPlan c(to_bytes(std::string_view("other-seed")));
  a.set_default_profile(lossy);
  b.set_default_profile(lossy);
  c.set_default_profile(lossy);
  bool c_diverged = false;
  for (int i = 0; i < 300; ++i) {
    const auto da = a.decide("x", "y", 0);
    const auto db = b.decide("x", "y", 0);
    const auto dc = c.decide("x", "y", 0);
    EXPECT_EQ(da.verdict, db.verdict);
    EXPECT_EQ(da.extra_delay_us, db.extra_delay_us);
    EXPECT_EQ(da.duplicate, db.duplicate);
    if (da.verdict != dc.verdict || da.extra_delay_us != dc.extra_delay_us ||
        da.duplicate != dc.duplicate) {
      c_diverged = true;
    }
  }
  EXPECT_TRUE(c_diverged) << "a different seed must change the schedule";
}

TEST_F(NetFixture, FaultPlanDropChargesConfiguredTimeout) {
  network.listen({"s", 80}, [](ByteView, const Address&) {
    return to_bytes(std::string_view("ok"));
  });
  LinkFaultProfile always_drop;
  always_drop.drop_prob = 1.0;
  FaultPlan plan(to_bytes(std::string_view("drop")));
  plan.set_default_profile(always_drop);
  network.set_fault_plan(std::move(plan));
  network.set_call_timeout_ms(250.0);
  const auto before_faults =
      obs::metrics().counter_value("net.fault.injected", {{"kind", "drop"}});
  const auto before = clock.now_us();
  auto r = network.call({"c", 1}, {"s", 80}, {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "net.timeout");
  EXPECT_TRUE(r.error().is_transient());
  EXPECT_EQ(clock.now_us() - before, 250'000u)
      << "a drop costs the full configured timeout, never zero";
  EXPECT_EQ(obs::metrics().counter_value("net.fault.injected",
                                         {{"kind", "drop"}}),
            before_faults + 1);
}

TEST_F(NetFixture, FaultPlanPartitionIsUnreachableUntilHealed) {
  network.listen({"s", 80}, [](ByteView, const Address&) {
    return to_bytes(std::string_view("ok"));
  });
  FaultPlan plan(to_bytes(std::string_view("split")));
  plan.partition("c", "s");
  network.set_fault_plan(std::move(plan));
  auto r = network.call({"c", 1}, {"s", 80}, {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "net.unreachable");
  network.fault_plan()->heal("c", "s");
  EXPECT_TRUE(network.call({"c", 1}, {"s", 80}, {}).ok());
}

TEST_F(NetFixture, FaultPlanBlackholeWindowExpiresWithVirtualTime) {
  network.listen({"s", 80}, [](ByteView, const Address&) {
    return to_bytes(std::string_view("ok"));
  });
  FaultPlan plan(to_bytes(std::string_view("hole")));
  plan.blackhole("s", 0, 1'000'000);  // down for the first virtual second
  network.set_fault_plan(std::move(plan));
  auto r = network.call({"c", 1}, {"s", 80}, {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "net.unreachable");
  // The failed call itself charged the timeout (1000 ms), which carries the
  // clock past the window's end: the endpoint is back.
  EXPECT_GE(clock.now_us(), 1'000'000u);
  EXPECT_TRUE(network.call({"c", 1}, {"s", 80}, {}).ok());
}

TEST_F(NetFixture, FaultPlanFlapAlternatesAvailability) {
  network.listen({"s", 80}, [](ByteView, const Address&) {
    return to_bytes(std::string_view("ok"));
  });
  FaultPlan plan(to_bytes(std::string_view("flap")));
  // Down for the first 4 ms of every 10 ms period.
  plan.flap("s", 10'000, 4'000);
  network.set_fault_plan(std::move(plan));
  network.set_call_timeout_ms(1.0);
  EXPECT_EQ(network.call({"c", 1}, {"s", 80}, {}).error().code,
            "net.unreachable");  // t=0: inside the down window
  clock.advance_us(5'000 - clock.now_us());
  EXPECT_TRUE(network.call({"c", 1}, {"s", 80}, {}).ok());  // t=5ms: up
  clock.advance_us(11'000 - clock.now_us());
  EXPECT_EQ(network.call({"c", 1}, {"s", 80}, {}).error().code,
            "net.unreachable");  // t=11ms: next period's down window
}

TEST_F(NetFixture, FaultPlanDuplicateDeliversHandlerTwice) {
  int handled = 0;
  network.listen({"s", 80}, [&](ByteView, const Address&) {
    ++handled;
    return to_bytes("reply-" + std::to_string(handled));
  });
  LinkFaultProfile dup;
  dup.duplicate_prob = 1.0;
  FaultPlan plan(to_bytes(std::string_view("dup")));
  plan.set_default_profile(dup);
  network.set_fault_plan(std::move(plan));
  auto r = network.call({"c", 1}, {"s", 80}, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string(*r), "reply-1") << "caller gets the first response";
  EXPECT_EQ(handled, 2) << "the duplicate still reaches the handler";
}

TEST_F(NetFixture, FaultPlanDelayAddsLatencyOnTopOfRtt) {
  network.listen({"s", 80}, [](ByteView, const Address&) {
    return to_bytes(std::string_view("ok"));
  });
  network.set_default_latency_ms(5.0);
  LinkFaultProfile slow;
  slow.delay_prob = 1.0;
  slow.delay_min_ms = 7.0;
  slow.delay_max_ms = 7.0;
  FaultPlan plan(to_bytes(std::string_view("slow")));
  plan.set_default_profile(slow);
  network.set_fault_plan(std::move(plan));
  const auto before = clock.now_us();
  ASSERT_TRUE(network.call({"c", 1}, {"s", 80}, {}).ok());
  EXPECT_EQ(clock.now_us() - before, 10'000u + 7'000u);
}

TEST_F(NetFixture, FaultPlanClearFaultsRestoresCleanDelivery) {
  network.listen({"s", 80}, [](ByteView, const Address&) {
    return to_bytes(std::string_view("ok"));
  });
  LinkFaultProfile lossy;
  lossy.drop_prob = 1.0;
  FaultPlan plan(to_bytes(std::string_view("clear")));
  plan.set_default_profile(lossy);
  plan.partition("c", "s");
  network.set_fault_plan(std::move(plan));
  EXPECT_FALSE(network.call({"c", 1}, {"s", 80}, {}).ok());
  network.fault_plan()->clear_faults();
  EXPECT_TRUE(network.call({"c", 1}, {"s", 80}, {}).ok());
}

// ------------------------------------------------------------ Resilience

struct ResilienceFixture : ::testing::Test {
  SimClock clock;
  HmacDrbg jitter{to_bytes(std::string_view("resilience-tests"))};
  RetryPolicy no_jitter(std::uint32_t attempts) {
    RetryPolicy p;
    p.max_attempts = attempts;
    p.jitter = 0.0;  // deterministic backoff for exact clock assertions
    return p;
  }
};

TEST_F(ResilienceFixture, RetriesTransientAndChargesBackoffToClock) {
  int calls = 0;
  auto r = with_retries(clock, jitter, no_jitter(4), Deadline::unlimited(),
                        "test.op", [&]() -> Result<int> {
                          if (++calls < 3) return Error::make("net.timeout");
                          return 7;
                        });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(calls, 3);
  // Two backoffs: 50 ms then 100 ms, all virtual.
  EXPECT_EQ(clock.now_us(), 150'000u);
}

TEST_F(ResilienceFixture, NeverRetriesPermanentErrors) {
  int calls = 0;
  auto r = with_retries(clock, jitter, no_jitter(5), Deadline::unlimited(),
                        "test.op", [&]() -> Result<int> {
                          ++calls;
                          return Error::make("tls.untrusted_certificate");
                        });
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "tls.untrusted_certificate");
  EXPECT_EQ(calls, 1) << "a fail-closed verdict must not be retried";
  EXPECT_EQ(clock.now_us(), 0u) << "no backoff charged";
}

TEST_F(ResilienceFixture, ReturnsLastTransientWhenAttemptsRunOut) {
  int calls = 0;
  auto r = with_retries(clock, jitter, no_jitter(3), Deadline::unlimited(),
                        "test.op", [&]() -> Result<int> {
                          ++calls;
                          return Error::make("net.drop");
                        });
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "net.drop");
  EXPECT_EQ(calls, 3);
}

TEST_F(ResilienceFixture, DeadlineExhaustionIsPermanent) {
  int calls = 0;
  const Deadline deadline = Deadline::after_ms(clock, 200.0);
  auto r = with_retries(clock, jitter, no_jitter(10), deadline, "test.op",
                        [&]() -> Result<int> {
                          ++calls;
                          clock.advance_us(60'000);  // the call is slow
                          return Error::make("net.timeout");
                        });
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "net.deadline_exceeded");
  EXPECT_FALSE(r.error().is_transient())
      << "budget exhaustion must not be retried by an outer layer";
  EXPECT_EQ(calls, 2) << "backoff was clamped to the remaining budget";
}

TEST_F(ResilienceFixture, BackoffIsCappedAndJittered) {
  RetryPolicy p;
  p.initial_backoff_ms = 50.0;
  p.multiplier = 2.0;
  p.max_backoff_ms = 300.0;
  p.jitter = 0.0;
  EXPECT_EQ(p.backoff_us(1, jitter), 50'000u);
  EXPECT_EQ(p.backoff_us(2, jitter), 100'000u);
  EXPECT_EQ(p.backoff_us(4, jitter), 300'000u) << "capped";
  p.jitter = 0.25;
  for (int i = 0; i < 50; ++i) {
    const SimClock::Micros b = p.backoff_us(1, jitter);
    EXPECT_GE(b, 37'500u);
    EXPECT_LE(b, 62'500u);
  }
}

TEST_F(ResilienceFixture, CircuitBreakerFullStateMachine) {
  CircuitBreaker::Config cfg;
  cfg.failure_threshold = 2;
  cfg.open_ms = 100.0;
  CircuitBreaker br("kds.example:443", cfg);
  EXPECT_EQ(br.state(clock), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(br.allow(clock));

  br.on_failure(clock);
  EXPECT_EQ(br.state(clock), CircuitBreaker::State::kClosed);
  br.on_failure(clock);  // threshold reached
  EXPECT_EQ(br.state(clock), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(br.allow(clock)) << "open breaker short-circuits";
  EXPECT_EQ(br.times_opened(), 1u);

  clock.advance_us(100'000);  // cooldown elapses
  EXPECT_EQ(br.state(clock), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(br.allow(clock)) << "half-open admits a probe";

  br.on_failure(clock);  // failed probe re-opens for a fresh cooldown
  EXPECT_EQ(br.state(clock), CircuitBreaker::State::kOpen);
  EXPECT_EQ(br.times_opened(), 2u);
  clock.advance_us(99'000);
  EXPECT_FALSE(br.allow(clock)) << "fresh cooldown, not the stale one";
  clock.advance_us(1'000);
  EXPECT_TRUE(br.allow(clock));

  br.on_success(clock);  // successful probe closes
  EXPECT_EQ(br.state(clock), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(br.allow(clock));
}

TEST_F(ResilienceFixture, FailoverSwitchesToHealthyReplica) {
  Failover fo({{"primary", 443}, {"backup", 443}}, {}, "test");
  const auto switches_before =
      obs::metrics().counter_value("failover.switch.count",
                                   {{"service", "test"}});
  std::vector<std::string> tried;
  auto r = fo.execute(clock, [&](const Address& a) -> Result<int> {
    tried.push_back(a.host);
    if (a.host == "primary") return Error::make("net.timeout");
    return 1;
  });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(tried, (std::vector<std::string>{"primary", "backup"}));
  EXPECT_EQ(obs::metrics().counter_value("failover.switch.count",
                                         {{"service", "test"}}),
            switches_before + 1);
}

TEST_F(ResilienceFixture, FailoverReturnsPermanentErrorImmediately) {
  Failover fo({{"primary", 443}, {"backup", 443}}, {}, "test");
  std::vector<std::string> tried;
  auto r = fo.execute(clock, [&](const Address& a) -> Result<int> {
    tried.push_back(a.host);
    return Error::make("snp.signature_invalid");
  });
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "snp.signature_invalid");
  EXPECT_EQ(tried, (std::vector<std::string>{"primary"}))
      << "verification failures never fail over";
}

TEST_F(ResilienceFixture, FailoverSkipsOpenBreakersAndRecovers) {
  CircuitBreaker::Config cfg;
  cfg.failure_threshold = 1;
  cfg.open_ms = 200.0;
  Failover fo({{"primary", 443}, {"backup", 443}}, cfg, "test");
  int primary_calls = 0;
  auto attempt = [&]() {
    return fo.execute(clock, [&](const Address& a) -> Result<int> {
      if (a.host == "primary") {
        ++primary_calls;
        return Error::make("net.timeout");
      }
      return 1;
    });
  };
  EXPECT_TRUE(attempt().ok());  // primary fails once -> breaker opens
  EXPECT_EQ(primary_calls, 1);
  EXPECT_TRUE(attempt().ok());  // open breaker: primary not even tried
  EXPECT_EQ(primary_calls, 1);
  clock.advance_us(200'000);    // cooldown: half-open admits a probe again
  EXPECT_TRUE(attempt().ok());
  EXPECT_EQ(primary_calls, 2);
}

TEST_F(ResilienceFixture, AllReplicasShortCircuitedYieldsTransientError) {
  CircuitBreaker::Config cfg;
  cfg.failure_threshold = 1;
  cfg.open_ms = 1000.0;
  Failover fo({{"only", 443}}, cfg, "test");
  auto fail = [&]() {
    return fo.execute(clock,
                      [&](const Address&) -> Result<int> {
                        return Error::make("net.timeout");
                      });
  };
  EXPECT_EQ(fail().error().code, "net.timeout");
  const auto r = fail();  // breaker now open: nothing is attempted
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "net.unreachable");
  EXPECT_TRUE(r.error().is_transient())
      << "an outer retry may wait for the breaker to half-open";
}

// ------------------------------------------------------------------ HTTP

TEST(Http, RequestRoundTrip) {
  HttpRequest req;
  req.method = "POST";
  req.path = "/api/submit";
  req.host = "svc.example.com";
  req.headers["content-type"] = "application/json";
  req.body = to_bytes(std::string_view("{\"k\":1}"));
  auto parsed = HttpRequest::parse(req.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->method, "POST");
  EXPECT_EQ(parsed->path, "/api/submit");
  EXPECT_EQ(parsed->headers.at("content-type"), "application/json");
  EXPECT_EQ(parsed->body, req.body);
}

TEST(Http, ResponseRoundTrip) {
  HttpResponse resp = HttpResponse::ok(to_bytes(std::string_view("<html>")),
                                       "text/html");
  auto parsed = HttpResponse::parse(resp.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->status, 200);
  EXPECT_EQ(parsed->headers.at("content-type"), "text/html");
}

TEST(Http, ParseRejectsGarbage) {
  EXPECT_FALSE(HttpRequest::parse(to_bytes(std::string_view("junk"))).ok());
  EXPECT_FALSE(HttpResponse::parse({}).ok());
}

TEST(Http, ParseRejectsOversizedHeaderCount) {
  // A frame claiming 2^32-1 headers (or anything past the 256 cap) must be
  // rejected before the parser loops on it.
  Bytes frame = to_bytes(std::string_view("HTQ1"));
  for (int i = 0; i < 3; ++i) append_u32be(frame, 0);  // method/path/host ""
  append_u32be(frame, 0xffffffffu);                    // header count
  auto r = HttpRequest::parse(frame);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "http.bad_request_frame");

  Bytes capped = to_bytes(std::string_view("HTS1"));
  append_u32be(capped, 200);  // status
  append_u32be(capped, 257);  // one past the cap
  EXPECT_FALSE(HttpResponse::parse(capped).ok());
}

TEST(Http, ParseRejectsHostileLengthFields) {
  // A string length of 2^32-1 with almost no payload: the bounds check must
  // not overflow `off + len` into accepting it.
  Bytes frame = to_bytes(std::string_view("HTQ1"));
  append_u32be(frame, 0xffffffffu);  // method length
  frame.push_back('G');
  EXPECT_FALSE(HttpRequest::parse(frame).ok());

  // Same hostile length on a header value.
  Bytes hdr = to_bytes(std::string_view("HTQ1"));
  for (int i = 0; i < 3; ++i) append_u32be(hdr, 0);
  append_u32be(hdr, 1);             // one header
  append_u32be(hdr, 1);
  hdr.push_back('k');
  append_u32be(hdr, 0xfffffff0u);   // value length
  EXPECT_FALSE(HttpRequest::parse(hdr).ok());
}

TEST(Http, ParseRejectsBodyLengthMismatch) {
  HttpRequest req;
  req.method = "POST";
  req.path = "/p";
  req.host = "h";
  req.body = to_bytes(std::string_view("12345"));
  Bytes wire = req.serialize();
  ASSERT_TRUE(HttpRequest::parse(wire).ok());

  Bytes truncated = wire;
  truncated.pop_back();  // declared length over-runs the frame
  EXPECT_FALSE(HttpRequest::parse(truncated).ok());

  Bytes padded = wire;
  padded.push_back(0x00);  // trailing bytes: a smuggled second message
  EXPECT_FALSE(HttpRequest::parse(padded).ok());

  Bytes resp_wire = HttpResponse::ok(req.body).serialize();
  ASSERT_TRUE(HttpResponse::parse(resp_wire).ok());
  resp_wire.push_back(0x00);
  EXPECT_FALSE(HttpResponse::parse(resp_wire).ok());
}

TEST(Http, TruncationSweepNeverCrashes) {
  // Every prefix of a real frame must be cleanly rejected — truncation is
  // what a dropped tail segment looks like to the parser. Run under asan
  // this doubles as an out-of-bounds probe on every reader path.
  HttpRequest req;
  req.method = "POST";
  req.path = "/api/submit";
  req.host = "svc.example.com";
  req.headers["content-type"] = "application/json";
  req.headers["x-trace"] = "abc123";
  req.body = to_bytes(std::string_view("{\"k\":1}"));
  const Bytes wire = req.serialize();
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(HttpRequest::parse(ByteView(wire).subspan(0, len)).ok())
        << "prefix of length " << len << " must not parse";
  }
  EXPECT_TRUE(HttpRequest::parse(wire).ok());

  const Bytes resp_wire =
      HttpResponse::ok(req.body, "application/json").serialize();
  for (std::size_t len = 0; len < resp_wire.size(); ++len) {
    EXPECT_FALSE(
        HttpResponse::parse(ByteView(resp_wire).subspan(0, len)).ok());
  }
  EXPECT_TRUE(HttpResponse::parse(resp_wire).ok());
}

TEST(Http, RouterLongestPrefixWins) {
  HttpRouter router;
  router.route("GET", "/a/*", [](const HttpRequest&) {
    return HttpResponse::ok(to_bytes(std::string_view("short")));
  });
  router.route("GET", "/a/b/*", [](const HttpRequest&) {
    return HttpResponse::ok(to_bytes(std::string_view("long")));
  });
  HttpRequest req;
  req.path = "/a/b/c";
  EXPECT_EQ(to_string(router.dispatch(req).body), "long");
  req.path = "/a/x";
  EXPECT_EQ(to_string(router.dispatch(req).body), "short");
}

TEST(Http, ResponseHelpers) {
  EXPECT_EQ(HttpResponse::not_found().status, 404);
  const auto err = HttpResponse::error(503, "down");
  EXPECT_EQ(err.status, 503);
  EXPECT_EQ(to_string(err.body), "down");
  const auto ok = HttpResponse::ok({}, "application/json");
  EXPECT_EQ(ok.headers.at("content-type"), "application/json");
}

TEST(Http, RouterExactAndPrefixDispatch) {
  HttpRouter router;
  router.route("GET", "/", [](const HttpRequest&) {
    return HttpResponse::ok(to_bytes(std::string_view("index")));
  });
  router.route("GET", "/api/*", [](const HttpRequest& r) {
    return HttpResponse::ok(to_bytes("api:" + r.path));
  });
  router.route("GET", "/api/special", [](const HttpRequest&) {
    return HttpResponse::ok(to_bytes(std::string_view("special")));
  });

  HttpRequest req;
  req.path = "/";
  EXPECT_EQ(to_string(router.dispatch(req).body), "index");
  req.path = "/api/special";
  EXPECT_EQ(to_string(router.dispatch(req).body), "special");
  req.path = "/api/other";
  EXPECT_EQ(to_string(router.dispatch(req).body), "api:/api/other");
  req.path = "/missing";
  EXPECT_EQ(router.dispatch(req).status, 404);
  req.method = "DELETE";
  req.path = "/";
  EXPECT_EQ(router.dispatch(req).status, 404);
}

// ------------------------------------------------------------------- TLS

struct TlsFixture : ::testing::Test {
  TlsFixture()
      : network(clock),
        drbg(to_bytes(std::string_view("tls-tests"))),
        root(pki::CertificateAuthority::create_root(
            crypto::p384(), {"TLS Root", "Org", "US"}, 0, 10 * kYearUs,
            drbg)) {}

  TlsServerIdentity make_identity(const std::string& dns_name) {
    TlsServerIdentity id;
    id.curve = &crypto::p256();
    id.key = crypto::ec_generate(crypto::p256(), drbg);
    id.certificate = root.issue_for_key(
        "P-256", id.key.public_encoded(crypto::p256()),
        {dns_name, "Svc", "US"}, {dns_name}, 0, kYearUs);
    return id;
  }

  std::unique_ptr<TlsServer> make_server(const std::string& dns_name,
                                         const Address& addr) {
    auto server = std::make_unique<TlsServer>(
        make_identity(dns_name),
        [this](ByteView plaintext, const Address&) {
          handled.push_back(to_string(plaintext));
          return concat(to_bytes(std::string_view("srv:")), plaintext);
        },
        HmacDrbg(to_bytes(std::string_view("server-entropy")),
                 to_bytes(dns_name)));
    server->install(network, addr);
    return server;
  }

  TlsTrustConfig trust_for(const std::string& name) {
    TlsTrustConfig trust;
    trust.roots = {root.certificate()};
    trust.server_name = name;
    trust.now_us = clock.now_us();
    return trust;
  }

  /// Number of records the handler of a make_server() server ran for.
  std::size_t handled_count(std::string_view plaintext) const {
    return static_cast<std::size_t>(
        std::count(handled.begin(), handled.end(), plaintext));
  }

  SimClock clock;
  Network network{clock};
  HmacDrbg drbg;
  pki::CertificateAuthority root;
  std::vector<std::string> handled;  // every plaintext the handler saw
};

/// A client data frame: type(1) | session_id(8) | nonce(16) | ct | tag.
constexpr std::uint8_t kDataFrame = 0x03;
Bytes record_nonce_of(ByteView frame) { return to_bytes(frame.subspan(9, 16)); }

TEST_F(TlsFixture, HandshakeAndEcho) {
  auto server = make_server("svc.example.com", {"10.0.0.1", 443});
  auto session = TlsSession::connect(network, {"laptop", 40000},
                                     {"10.0.0.1", 443},
                                     trust_for("svc.example.com"), drbg);
  ASSERT_TRUE(session.ok()) << session.error().to_string();
  auto r = session->request(to_bytes(std::string_view("ping")));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string(*r), "srv:ping");
  // Multiple sequenced requests on the same session.
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(session->request(to_bytes(std::string_view("x"))).ok());
  }
}

TEST_F(TlsFixture, ClientSeesServerLeafKey) {
  auto server = make_server("svc.example.com", {"10.0.0.1", 443});
  auto session = TlsSession::connect(network, {"laptop", 40000},
                                     {"10.0.0.1", 443},
                                     trust_for("svc.example.com"), drbg);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session->server_public_key(),
            server->certificate().public_key);
}

TEST_F(TlsFixture, UntrustedRootRejected) {
  auto server = make_server("svc.example.com", {"10.0.0.1", 443});
  HmacDrbg other_drbg(to_bytes(std::string_view("other")));
  auto other_root = pki::CertificateAuthority::create_root(
      crypto::p384(), {"Other Root", "X", "US"}, 0, kYearUs, other_drbg);
  TlsTrustConfig trust;
  trust.roots = {other_root.certificate()};
  trust.server_name = "svc.example.com";
  auto session = TlsSession::connect(network, {"laptop", 1}, {"10.0.0.1", 443},
                                     trust, drbg);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.error().code, "tls.untrusted_certificate");
}

TEST_F(TlsFixture, NameMismatchRejected) {
  auto server = make_server("svc.example.com", {"10.0.0.1", 443});
  auto session = TlsSession::connect(network, {"laptop", 1}, {"10.0.0.1", 443},
                                     trust_for("other.example.com"), drbg);
  EXPECT_FALSE(session.ok());
}

TEST_F(TlsFixture, ServerWithoutPrivateKeyFailsTranscript) {
  // An impostor presents svc's real certificate but holds a different key:
  // the transcript signature cannot verify.
  auto real_identity = make_identity("svc.example.com");
  TlsServerIdentity impostor = real_identity;
  impostor.key = crypto::ec_generate(crypto::p256(), drbg);  // wrong key
  TlsServer server(std::move(impostor),
                   [](ByteView, const Address&) { return Bytes{}; },
                   HmacDrbg(to_bytes(std::string_view("imp"))));
  server.install(network, {"10.0.0.2", 443});
  auto session = TlsSession::connect(network, {"laptop", 1}, {"10.0.0.2", 443},
                                     trust_for("svc.example.com"), drbg);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.error().code, "tls.bad_transcript_signature");
}

TEST_F(TlsFixture, TamperedRecordRejectedByServer) {
  auto server = make_server("svc.example.com", {"10.0.0.1", 443});
  auto session = TlsSession::connect(network, {"laptop", 1}, {"10.0.0.1", 443},
                                     trust_for("svc.example.com"), drbg);
  ASSERT_TRUE(session.ok());
  // Attacker flips a byte in every data frame.
  network.set_interceptor(
      [](const Address&, const Address&, ByteView request) {
        if (!request.empty() && request[0] == 0x03) {
          Bytes tampered = to_bytes(request);
          tampered.back() ^= 0x01;
          return MitmAction::tamper(std::move(tampered));
        }
        return MitmAction::forward();
      });
  auto r = session->request(to_bytes(std::string_view("payload")));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "tls.alert");
}

TEST_F(TlsFixture, ReplayedRecordRejected) {
  // The sequence number is bound into every record's AAD, so a record is
  // accepted only at its own position in the stream. Input 1 replays a
  // past record (0) in place of record 1. Input 2 holds record 0 back, so
  // the server first sees record 1, from its future.
  auto server = make_server("svc.example.com", {"10.0.0.1", 443});
  struct Input {
    const char* name;
    bool replay_past;
  };
  for (const Input input : {Input{"past", true}, Input{"future", false}}) {
    SCOPED_TRACE(input.name);
    handled.clear();
    auto session = TlsSession::connect(network, {"laptop", 1},
                                       {"10.0.0.1", 443},
                                       trust_for("svc.example.com"), drbg);
    ASSERT_TRUE(session.ok());
    int data_frames = 0;
    Bytes first_frame;
    network.set_interceptor([&](const Address&, const Address&,
                                ByteView request) {
      if (request.empty() || request[0] != kDataFrame) {
        return MitmAction::forward();
      }
      if (++data_frames == 1) {
        first_frame = to_bytes(request);
        return input.replay_past ? MitmAction::forward() : MitmAction::drop();
      }
      if (data_frames == 2 && input.replay_past) {
        return MitmAction::tamper(first_frame);
      }
      return MitmAction::forward();
    });
    EXPECT_EQ(session->request(to_bytes(std::string_view("first"))).ok(),
              input.replay_past);
    auto r = session->request(to_bytes(std::string_view("second")));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, "tls.alert");
    EXPECT_EQ(handled_count("first"), input.replay_past ? 1u : 0u);
    EXPECT_EQ(handled_count("second"), 0u);
    network.clear_interceptor();
  }
}

TEST_F(TlsFixture, DroppedRecordNeverReusesItsNonce) {
  // A record's nonce is taken when it is sealed, not when its response
  // arrives: after a lost record the next plaintext must not be sealed
  // under the same AES-CTR key and nonce, or an on-path observer learns
  // the XOR of the two plaintexts. The server still expects the lost
  // sequence number, so the session fails closed and the caller
  // handshakes again.
  auto server = make_server("svc.example.com", {"10.0.0.1", 443});
  auto session = TlsSession::connect(network, {"laptop", 1}, {"10.0.0.1", 443},
                                     trust_for("svc.example.com"), drbg);
  ASSERT_TRUE(session.ok());
  std::vector<Bytes> nonces;
  network.set_interceptor(
      [&](const Address&, const Address&, ByteView request) {
        if (request.empty() || request[0] != kDataFrame) {
          return MitmAction::forward();
        }
        nonces.push_back(record_nonce_of(request));
        return nonces.size() == 1 ? MitmAction::drop() : MitmAction::forward();
      });
  auto lost = session->request(to_bytes(std::string_view("GET /secret-a")));
  ASSERT_FALSE(lost.ok());
  EXPECT_EQ(lost.error().code, "net.timeout");

  auto next = session->request(to_bytes(std::string_view("GET /secret-b")));
  ASSERT_EQ(nonces.size(), 2u);
  EXPECT_NE(nonces[0], nonces[1]);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.error().code, "tls.alert");
  EXPECT_TRUE(handled.empty());

  // A refused record spends its nonce too.
  auto refused = session->request(to_bytes(std::string_view("GET /secret-c")));
  ASSERT_FALSE(refused.ok());
  ASSERT_EQ(nonces.size(), 3u);
  EXPECT_NE(nonces[2], nonces[1]);
  EXPECT_NE(nonces[2], nonces[0]);

  // A fresh handshake recovers.
  auto fresh = TlsSession::connect(network, {"laptop", 1}, {"10.0.0.1", 443},
                                   trust_for("svc.example.com"), drbg);
  ASSERT_TRUE(fresh.ok());
  auto r = fresh->request(to_bytes(std::string_view("GET /secret-d")));
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(to_string(*r), "srv:GET /secret-d");
}

TEST_F(TlsFixture, SessionResetDetected) {
  auto server = make_server("svc.example.com", {"10.0.0.1", 443});
  auto session = TlsSession::connect(network, {"laptop", 1}, {"10.0.0.1", 443},
                                     trust_for("svc.example.com"), drbg);
  ASSERT_TRUE(session.ok());
  server->reset_sessions();
  auto r = session->request(to_bytes(std::string_view("hello")));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "tls.alert");
}

TEST_F(TlsFixture, RedirectToLookalikeYieldsDifferentKey) {
  // The provider redirects traffic to another server with a CA-valid
  // certificate for the same name (it controls DNS/issuance): TLS alone
  // accepts it — only the Revelio key comparison catches it. Here we verify
  // the sessions expose different keys for the detection layer.
  auto good = make_server("svc.example.com", {"10.0.0.1", 443});
  auto evil = make_server("svc.example.com", {"6.6.6.6", 443});

  auto s1 = TlsSession::connect(network, {"laptop", 1}, {"10.0.0.1", 443},
                                trust_for("svc.example.com"), drbg);
  ASSERT_TRUE(s1.ok());
  network.set_interceptor([](const Address&, const Address& to, ByteView) {
    if (to.host == "10.0.0.1") return MitmAction::redirect({"6.6.6.6", 443});
    return MitmAction::forward();
  });
  auto s2 = TlsSession::connect(network, {"laptop", 1}, {"10.0.0.1", 443},
                                trust_for("svc.example.com"), drbg);
  ASSERT_TRUE(s2.ok()) << "TLS alone accepts the lookalike";
  EXPECT_NE(s1->server_public_key(), s2->server_public_key());
}

TEST_F(TlsFixture, P384ServerIdentityWorks) {
  // Server identities may sit on P-384 (the handshake ephemerals stay on
  // P-256); the AMD-style chain uses this.
  TlsServerIdentity id;
  id.curve = &crypto::p384();
  id.key = crypto::ec_generate(crypto::p384(), drbg);
  id.certificate = root.issue_for_key(
      "P-384", id.key.public_encoded(crypto::p384()),
      {"svc384.example", "Svc", "US"}, {"svc384.example"}, 0, kYearUs);
  TlsServer server(std::move(id),
                   [](ByteView, const Address&) {
                     return to_bytes(std::string_view("ok"));
                   },
                   HmacDrbg(to_bytes(std::string_view("p384-server"))));
  server.install(network, {"10.0.0.5", 443});
  auto session = TlsSession::connect(network, {"laptop", 1}, {"10.0.0.5", 443},
                                     trust_for("svc384.example"), drbg);
  ASSERT_TRUE(session.ok()) << session.error().to_string();
  EXPECT_TRUE(session->request(to_bytes(std::string_view("x"))).ok());
}

TEST_F(TlsFixture, ConcurrentSessionsAreIndependent) {
  auto server = make_server("svc.example.com", {"10.0.0.1", 443});
  auto s1 = TlsSession::connect(network, {"laptop", 1}, {"10.0.0.1", 443},
                                trust_for("svc.example.com"), drbg);
  auto s2 = TlsSession::connect(network, {"phone", 2}, {"10.0.0.1", 443},
                                trust_for("svc.example.com"), drbg);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  // Interleaved traffic on both sessions keeps sequence state separate.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(s1->request(to_bytes(std::string_view("a"))).ok());
    EXPECT_TRUE(s2->request(to_bytes(std::string_view("b"))).ok());
    EXPECT_TRUE(s2->request(to_bytes(std::string_view("c"))).ok());
  }
}

TEST_F(TlsFixture, ExpiredServerCertificateRejected) {
  TlsServerIdentity id = make_identity("svc.example.com");
  // Reissue with a validity window already over.
  id.certificate = root.issue_for_key(
      "P-256", id.key.public_encoded(crypto::p256()),
      {"svc.example.com", "Svc", "US"}, {"svc.example.com"}, 0, 1000);
  TlsServer server(std::move(id),
                   [](ByteView, const Address&) { return Bytes{}; },
                   HmacDrbg(to_bytes(std::string_view("expired"))));
  server.install(network, {"10.0.0.6", 443});
  clock.advance_us(10'000);  // past the 1 ms validity
  auto session = TlsSession::connect(network, {"laptop", 1}, {"10.0.0.6", 443},
                                     trust_for("svc.example.com"), drbg);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.error().code, "tls.untrusted_certificate");
}

TEST_F(TlsFixture, HandshakeRejectsGarbageFrames) {
  auto server = make_server("svc.example.com", {"10.0.0.1", 443});
  auto r = network.call({"laptop", 1}, {"10.0.0.1", 443},
                        to_bytes(std::string_view("garbage")));
  ASSERT_TRUE(r.ok());  // transport succeeds, TLS alerts
  EXPECT_EQ((*r)[0], 0x0f);
}

}  // namespace
}  // namespace revelio::net
