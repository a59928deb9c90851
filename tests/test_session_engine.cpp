// Concurrent attestation gateway: session engine, shared LRU caches,
// one KDS fetch per VCEK key at any worker count, and spans traced only
// on the calling lane. Runs tier-1 and under the tsan preset — most of
// these tests exist precisely to put real threads on the shared state.
//
// The end-to-end tests drive several complete simulated worlds from the
// engine's worker lanes through the gateway harness bench_gateway runs
// too (bench/gateway_world.hpp): each world is single-threaded by design,
// so a session locks its world, binds the world's clock to the worker
// thread (ScopedClockCurrent), and shares only the engine's thread-safe
// caches with other sessions.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gateway_world.hpp"
#include "net/resilience.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pki/ca.hpp"
#include "revelio/session_engine.hpp"
#include "revelio/web_extension.hpp"

namespace revelio::core {
namespace {

using crypto::HmacDrbg;

// ---------------------------------------------------------------------------
// Summary reads under concurrent writers

TEST(Metrics, SummarySnapshotIsConsistentUnderConcurrentObserve) {
  obs::MetricsRegistry reg;
  obs::Summary& summary = reg.summary("gw.x.ms");
  constexpr int kObservations = 200000;
  std::thread writer([&summary] {
    for (int i = 0; i < kObservations; ++i) summary.observe(3.0);
  });
  // Every snapshot taken mid-write must be internally consistent: the
  // count, the sum and the quantiles all describe the same instant.
  for (int i = 0; i < 50; ++i) {
    const obs::Summary::Snapshot snap = summary.snapshot();
    EXPECT_DOUBLE_EQ(snap.sum, 3.0 * static_cast<double>(snap.count));
    EXPECT_DOUBLE_EQ(snap.p50, snap.count == 0 ? 0.0 : 3.0);
  }
  writer.join();
  EXPECT_EQ(summary.count(), static_cast<std::uint64_t>(kObservations));
}

// ---------------------------------------------------------------------------
// ChainVerificationCache

constexpr std::uint64_t kYearUs = 365ull * 24 * 3600 * 1000 * 1000;

struct ChainFixture {
  ChainFixture()
      : drbg(to_bytes(std::string_view("gateway-chain-tests"))),
        root(pki::CertificateAuthority::create_root(
            crypto::p384(), {"Gateway Root", "TestOrg", "US"}, 0, 10 * kYearUs,
            drbg)),
        inter(pki::CertificateAuthority::create_intermediate(
            crypto::p384(), {"Gateway Intermediate", "TestOrg", "US"}, 0,
            5 * kYearUs, root, drbg)) {}

  pki::Certificate issue_leaf(const std::string& cn) {
    const auto key = crypto::ec_generate(crypto::p256(), drbg);
    const auto csr =
        pki::make_csr(crypto::p256(), key, {cn, "Leaf", "US"}, {cn});
    auto cert = inter.issue(csr, 0, kYearUs);
    EXPECT_TRUE(cert.ok());
    return *cert;
  }

  pki::ChainVerifyOptions options(const std::string& cn) const {
    pki::ChainVerifyOptions o;
    o.now_us = kYearUs / 2;
    o.dns_name = cn;
    return o;
  }

  HmacDrbg drbg;
  pki::CertificateAuthority root;
  pki::CertificateAuthority inter;
};

TEST(ChainVerificationCache, ConcurrentVerificationsAgreeAndHit) {
  ChainFixture fx;
  constexpr int kLeaves = 16;
  std::vector<pki::Certificate> leaves;
  std::vector<std::string> names;
  for (int i = 0; i < kLeaves; ++i) {
    names.push_back("site-" + std::to_string(i) + ".example");
    leaves.push_back(fx.issue_leaf(names.back()));
  }
  pki::Certificate tampered = leaves[0];
  tampered.signature[0] ^= 0x01;

  pki::ChainVerificationCache cache(64);
  constexpr int kThreads = 8;
  constexpr int kIters = 100;
  std::atomic<int> good_failures{0};
  std::atomic<int> bad_successes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const int leaf = (t + i) % kLeaves;
        const auto st =
            cache.verify(leaves[leaf], {fx.inter.certificate()},
                         {fx.root.certificate()}, fx.options(names[leaf]));
        if (!st.ok()) good_failures.fetch_add(1);
        if (t == 0 && i % 10 == 0) {
          const auto bad =
              cache.verify(tampered, {fx.inter.certificate()},
                           {fx.root.certificate()}, fx.options(names[0]));
          if (bad.ok()) bad_successes.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(good_failures.load(), 0) << "valid chains must verify everywhere";
  EXPECT_EQ(bad_successes.load(), 0)
      << "a tampered chain must fail even while other chains hit";
  const auto stats = cache.stats();
  // Every distinct chain misses once; everything else is hits (failures
  // count as misses — they are never cached).
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads * kIters + kIters / 10));
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kLeaves));
}

TEST(ChainVerificationCache, EvictionUnderContentionStaysCorrect) {
  ChainFixture fx;
  constexpr int kLeaves = 8;
  std::vector<pki::Certificate> leaves;
  std::vector<std::string> names;
  for (int i = 0; i < kLeaves; ++i) {
    names.push_back("evict-" + std::to_string(i) + ".example");
    leaves.push_back(fx.issue_leaf(names.back()));
  }
  // Capacity 2: eight chains hammering it from four threads churn the
  // LRU constantly. Verdicts must stay correct throughout.
  pki::ChainVerificationCache cache(2);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 100; ++i) {
        const int leaf = (t * 3 + i) % kLeaves;
        if (!cache
                 .verify(leaves[leaf], {fx.inter.certificate()},
                         {fx.root.certificate()}, fx.options(names[leaf]))
                 .ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_LE(cache.size(), 2u);
}

// ---------------------------------------------------------------------------
// VcekCache

KdsService::VcekResponse fake_vcek(const std::string& tag) {
  KdsService::VcekResponse r;
  r.vcek.subject.common_name = "vcek-" + tag;
  r.ask.subject.common_name = "ask-" + tag;
  r.ark.subject.common_name = "ark-" + tag;
  return r;
}

TEST(VcekCache, ConcurrentColdMissesCostExactlyOneFetch) {
  VcekCache cache(8);
  sevsnp::ChipId chip;
  chip[0] = 0x42;
  const sevsnp::TcbVersion tcb{2, 0, 8, 115};
  std::atomic<int> fetches{0};
  const std::uint64_t metric_before =
      obs::metrics().counter_value("kds.fetch.count");

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto result = cache.get_or_fetch(
          chip, tcb, [&]() -> Result<KdsService::VcekResponse> {
            fetches.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            return fake_vcek("A");
          });
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->vcek.subject.common_name, "vcek-A");
    });
  }
  for (auto& t : threads) t.join();

  // The strong guarantee: whether a caller coalesced into the flight or
  // arrived after it completed (cache hit), the fetch ran exactly once.
  EXPECT_EQ(fetches.load(), 1);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.fetches, 1u);
  EXPECT_EQ(stats.hits + stats.coalesced,
            static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(obs::metrics().counter_value("kds.fetch.count"),
            metric_before + 1);
  EXPECT_EQ(cache.size(), 1u);

  // Warm path: no new fetch.
  auto warm = cache.get_or_fetch(
      chip, tcb, [&]() -> Result<KdsService::VcekResponse> {
        fetches.fetch_add(1);
        return fake_vcek("B");
      });
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->vcek.subject.common_name, "vcek-A");
  EXPECT_EQ(fetches.load(), 1);
}

TEST(VcekCache, FailuresAreDeliveredButNeverCached) {
  VcekCache cache(4);
  sevsnp::ChipId chip;
  chip[0] = 0x07;
  const sevsnp::TcbVersion tcb{2, 0, 8, 115};
  auto failed = cache.get_or_fetch(
      chip, tcb, []() -> Result<KdsService::VcekResponse> {
        return Error::make("net.timeout", "kds unreachable");
      });
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().code, "net.timeout");
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().failures, 1u);

  auto recovered = cache.get_or_fetch(
      chip, tcb,
      []() -> Result<KdsService::VcekResponse> { return fake_vcek("ok"); });
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(cache.stats().fetches, 2u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(VcekCache, ThrowingFetchReleasesTheLockAndCachesNothing) {
  VcekCache cache(4);
  sevsnp::ChipId chip;
  chip[0] = 0x09;
  const sevsnp::TcbVersion tcb{2, 0, 8, 115};
  EXPECT_THROW(cache.get_or_fetch(chip, tcb,
                                  []() -> Result<KdsService::VcekResponse> {
                                    throw std::runtime_error("kds exploded");
                                  }),
               std::runtime_error);
  EXPECT_EQ(cache.size(), 0u);

  // The miss mutex was released on unwind: another thread's call gets it,
  // misses, and fetches again.
  std::thread next([&] {
    auto result = cache.get_or_fetch(
        chip, tcb,
        []() -> Result<KdsService::VcekResponse> { return fake_vcek("ok"); });
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->vcek.subject.common_name, "vcek-ok");
  });
  next.join();
  EXPECT_EQ(cache.stats().fetches, 2u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(VcekCache, KeepsExactlyTheMostRecentChips) {
  VcekCache cache(8);
  int fetches = 0;
  const auto get = [&](int i) {
    sevsnp::ChipId chip;
    chip[0] = static_cast<std::uint8_t>(i);
    auto r = cache.get_or_fetch(
        chip, sevsnp::TcbVersion{2, 0, 8, 115},
        [&fetches, i]() -> Result<KdsService::VcekResponse> {
          ++fetches;
          return fake_vcek(std::to_string(i));
        });
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->vcek.subject.common_name, "vcek-" + std::to_string(i));
  };
  for (int i = 0; i < 32; ++i) get(i);
  EXPECT_EQ(fetches, 32);
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_EQ(cache.stats().evictions, 24u);

  // Capacity 8 keeps exactly chips 24-31: each is a hit, and chip 23, the
  // last one evicted, is a fetch again.
  for (int i = 24; i < 32; ++i) get(i);
  EXPECT_EQ(fetches, 32);
  EXPECT_EQ(cache.stats().hits, 8u);
  get(23);
  EXPECT_EQ(fetches, 33);
  EXPECT_EQ(cache.stats().fetches, 33u);
}

// ---------------------------------------------------------------------------
// SessionEngine: scheduling, aggregation, obs isolation (synthetic sessions)

TEST(SessionEngine, AggregatesOneStageSessionsAndPercentiles) {
  SessionEngineConfig config;
  config.workers = 4;
  SessionEngine engine(config);
  const auto report =
      engine.run_staged(8, [](StagedContext& ctx) -> SessionState {
        EXPECT_NE(ctx.chain_cache, nullptr);
        EXPECT_NE(ctx.vcek_cache, nullptr);
        ctx.stage_virt_ms = static_cast<double>(ctx.index + 1) * 10.0;
        if (ctx.index == 3) {
          ctx.failure = Error::make("test.synthetic_failure");
          return SessionState::kFailed;
        }
        return SessionState::kDone;
      });

  EXPECT_EQ(report.sessions, 8u);
  EXPECT_EQ(report.succeeded, 7u);
  EXPECT_EQ(report.failed, 1u);
  ASSERT_FALSE(report.outcomes[3].ok());
  EXPECT_EQ(report.outcomes[3].error().code, "test.synthetic_failure");
  // Every session is one stage starting at t=0, so the makespan is the
  // slowest session.
  EXPECT_DOUBLE_EQ(report.virt_makespan_ms, 80.0);
  EXPECT_DOUBLE_EQ(report.virt_p50_ms, 40.0);
  EXPECT_DOUBLE_EQ(report.virt_p95_ms, 80.0);
  EXPECT_DOUBLE_EQ(report.virt_p99_ms, 80.0);
  EXPECT_NEAR(report.sessions_per_virtual_sec, 8.0 / 0.08, 1e-6);
  EXPECT_GT(report.real_elapsed_ms, 0.0);
}

TEST(SessionEngine, StagesWriteTheProcessRegistryAndTraceInline) {
  obs::MetricsRegistry* global = &obs::metrics();
  const std::uint64_t before = global->counter_value("gw.engine.test.count");
  const std::uint64_t observed_before =
      global->summary("gw.engine.test.ms").count();
  const auto stage = [&](StagedContext& ctx) {
    // Every lane reports into the one process registry.
    EXPECT_EQ(&obs::metrics(), global);
    obs::metrics().counter("gw.engine.test.count").inc();
    obs::metrics()
        .summary("gw.engine.test.ms")
        .observe(static_cast<double>(ctx.index));
    obs::Span span("gw.test.session");
    span.attr("index", static_cast<std::uint64_t>(ctx.index));
    return SessionState::kDone;
  };
  SessionEngineConfig config;
  config.workers = 4;
  const auto report = SessionEngine(config).run_staged(16, stage);
  EXPECT_EQ(report.succeeded, 16u);
  EXPECT_EQ(global->counter_value("gw.engine.test.count"), before + 16);
  EXPECT_EQ(global->summary("gw.engine.test.ms").count(),
            observed_before + 16);

  // One worker runs every stage on the calling lane, so the process
  // tracer holds exactly one span per session.
  obs::tracer().clear();
  obs::tracer().set_enabled(true);
  config.workers = 1;
  const auto inline_report = SessionEngine(config).run_staged(16, stage);
  obs::tracer().set_enabled(false);
  EXPECT_EQ(inline_report.succeeded, 16u);
  std::vector<std::size_t> span_counts(16, 0);
  for (const auto& span : obs::tracer().finished_spans()) {
    ASSERT_EQ(span.name, "gw.test.session");
    ++span_counts[std::stoul(span.attr("index"))];
  }
  obs::tracer().clear();
  for (const auto count : span_counts) EXPECT_EQ(count, 1u);
}

// Regression: stages used to record into private registries folded into
// the process registry by *adding* gauges, so eight stages each opening
// the same breaker left breaker.state at 8.0 — outside its 0/1/2 range.
TEST(StagedEngine, GaugeSetInsideAStageIsNotSummed) {
  SessionEngineConfig config;
  config.workers = 1;
  SessionEngine engine(config);
  const auto report = engine.run_staged(8, [](StagedContext&) {
    SimClock clock;
    net::CircuitBreaker breaker("probe:443", {.failure_threshold = 1});
    breaker.on_failure(clock);
    return SessionState::kDone;
  });
  EXPECT_EQ(report.succeeded, 8u);
  EXPECT_EQ(obs::metrics()
                .gauge("breaker.state", {{"endpoint", "probe:443"}})
                .value(),
            1.0);
}

// ---------------------------------------------------------------------------
// End-to-end gateway: several complete worlds driven concurrently

using gateway::build_worlds;
using Sessions = gateway::GatewaySessions<gateway::GatewayWorld>;

/// Every gateway test session's extension: the KDS and its mirror, and
/// `retry_attempts` tries per remote call.
WebExtensionConfig extension_config(int retry_attempts) {
  WebExtensionConfig config;
  config.kds_address = {gateway::kKdsPrimary, 443};
  config.kds_mirrors = {{gateway::kKdsMirror, 443}};
  config.retry.max_attempts = retry_attempts;
  return config;
}

TEST(GatewayEndToEnd, ConcurrentSessionsShareCachesAndFetchKdsOnce) {
  SessionEngineConfig config;
  config.workers = 4;
  SessionEngine engine(config);
  auto worlds = build_worlds(4, "gw-seed-1");
  const std::uint64_t kds_before =
      obs::metrics().counter_value("kds.fetch.count");

  Sessions sessions(worlds, 16, extension_config(1));
  const auto report = sessions.run_blocking(engine);

  EXPECT_EQ(report.sessions, 16u);
  EXPECT_EQ(report.succeeded, 16u) << "fault-free run must be all green";
  EXPECT_EQ(sessions.unverified_accepts(), 0);
  EXPECT_EQ(sessions.wrong_bodies(), 0);

  // Same-seed worlds: every session needs the same VCEK chain, and exactly
  // one KDS round trip happens — the rest wait for it or hit the cache it
  // filled.
  const auto vcek = report.vcek_stats;
  EXPECT_EQ(vcek.fetches, 1u);
  EXPECT_EQ(vcek.hits + vcek.coalesced, 15u);
  EXPECT_EQ(vcek.failures, 0u);
  EXPECT_EQ(obs::metrics().counter_value("kds.fetch.count"), kds_before + 1);

  // The SNP chain (byte-identical across worlds) verifies once and hits 15
  // times; TLS chains add per-world misses then hit on reconnects.
  EXPECT_GT(report.chain_stats.hits, 0u);
  EXPECT_GT(report.virt_makespan_ms, 0.0);
  EXPECT_GT(report.sessions_per_virtual_sec, 0.0);
  EXPECT_GE(report.virt_p99_ms, report.virt_p50_ms);
}

/// The chaos soak's links: every world drops, delays and duplicates
/// packets, drawn from one seeded plan per world.
void make_lossy(std::vector<std::unique_ptr<gateway::GatewayWorld>>& worlds,
                std::string_view plan_seed) {
  for (auto& world : worlds) {
    net::LinkFaultProfile lossy;
    lossy.drop_prob = 0.12;
    lossy.delay_prob = 0.2;
    lossy.delay_min_ms = 1.0;
    lossy.delay_max_ms = 8.0;
    lossy.duplicate_prob = 0.05;
    net::FaultPlan plan(to_bytes(plan_seed));
    plan.set_default_profile(lossy);
    world->arm(std::move(plan));
  }
}

TEST(GatewayEndToEnd, ConcurrentChaosSoakNeverAcceptsUnverifiedTrust) {
  SessionEngineConfig config;
  config.workers = 4;
  SessionEngine engine(config);
  auto worlds = build_worlds(4, "gw-chaos-1");
  make_lossy(worlds, "gw-chaos-plan");

  Sessions sessions(worlds, 24, extension_config(5));
  const auto report = sessions.run_blocking(engine);

  EXPECT_EQ(report.sessions, 24u);
  EXPECT_EQ(report.succeeded + report.failed, 24u);
  // The property under chaos: zero unverified-trust acceptances. Failures
  // are fine (and expected under a 12% drop rate) — acceptances that are
  // not fully green are not.
  EXPECT_EQ(sessions.unverified_accepts(), 0);
  EXPECT_EQ(sessions.wrong_bodies(), 0);
  EXPECT_GT(report.succeeded, 0u) << "retries must carry some sessions through";
  for (const auto& st : report.outcomes) {
    if (!st.ok()) {
      EXPECT_NE(st.error().code, gateway::kUnverifiedAccepted);
      EXPECT_NE(st.error().code, "extension.site_not_registered");
    }
  }
  // Even under chaos the successful fetch population coalesces: real KDS
  // round trips stay far below one per session.
  EXPECT_LT(report.vcek_stats.fetches, 24u);
}

// ---------------------------------------------------------------------------
// Staged engine: synthetic state machines on the virtual-time event loop

/// Deterministic per-session stage duration: a fixed mix of (index, stage,
/// salt) — no wall clock, no shared state, so same inputs give the same
/// schedule on every run.
double synth_ms(std::size_t index, int stage, std::uint64_t salt) {
  std::uint64_t x = static_cast<std::uint64_t>(index) * 2654435761ull +
                    static_cast<std::uint64_t>(stage) * 40503ull + salt;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  return 1.0 + static_cast<double>(x % 97) / 10.0;
}

TEST(StagedEngine, DrivesTheFullStateMachineAndAggregates) {
  SessionEngineConfig config;
  config.workers = 4;
  SessionEngine engine(config);
  constexpr std::size_t kSessions = 8;
  // Per-index slots: each session appends only to its own sequence.
  std::vector<std::vector<SessionState>> sequences(kSessions);

  const auto report = engine.run_staged(
      kSessions, [&](StagedContext& ctx) -> SessionState {
        EXPECT_NE(ctx.chain_cache, nullptr);
        EXPECT_NE(ctx.vcek_cache, nullptr);
        sequences[ctx.index].push_back(ctx.state);
        ctx.stage_virt_ms = static_cast<double>(ctx.index + 1);
        switch (ctx.state) {
          case SessionState::kHandshake: return SessionState::kEvidenceFetch;
          case SessionState::kEvidenceFetch: return SessionState::kKdsFetch;
          case SessionState::kKdsFetch: return SessionState::kVerify;
          case SessionState::kVerify:
            if (ctx.index == 2) {
              ctx.failure = Error::make("test.verify_rejected");
              return SessionState::kFailed;
            }
            return SessionState::kPageFetch;
          case SessionState::kPageFetch: return SessionState::kDone;
          default:
            ADD_FAILURE() << "terminal state dispatched";
            return SessionState::kFailed;
        }
      });

  EXPECT_EQ(report.sessions, kSessions);
  EXPECT_EQ(report.succeeded, 7u);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.shed, 0u);
  ASSERT_FALSE(report.outcomes[2].ok());
  EXPECT_EQ(report.outcomes[2].error().code, "test.verify_rejected");
  EXPECT_EQ(report.final_states[2], SessionState::kFailed);

  const std::vector<SessionState> full{
      SessionState::kHandshake, SessionState::kEvidenceFetch,
      SessionState::kKdsFetch, SessionState::kVerify,
      SessionState::kPageFetch};
  for (std::size_t i = 0; i < kSessions; ++i) {
    if (i == 2) {
      EXPECT_EQ(sequences[i],
                std::vector<SessionState>(full.begin(), full.end() - 1));
      EXPECT_DOUBLE_EQ(report.session_virt_ms[i], 4.0 * 3.0);
    } else {
      EXPECT_EQ(sequences[i], full) << "session " << i;
      EXPECT_EQ(report.final_states[i], SessionState::kDone);
      EXPECT_DOUBLE_EQ(report.session_virt_ms[i],
                       5.0 * static_cast<double>(i + 1));
    }
  }
  // All sessions start at t=0 and *overlap*: the makespan is the slowest
  // session (8 * 5ms), not the lane-model sum a blocking pool would give.
  EXPECT_DOUBLE_EQ(report.virt_makespan_ms, 40.0);
  // 5 dispatches per completed session, 4 for the one failing at verify.
  EXPECT_EQ(report.events_dispatched, 7u * 5u + 4u);
  EXPECT_EQ(report.peak_parked, kSessions);
  EXPECT_GT(report.bytes_per_parked_session, 0.0);
  EXPECT_FALSE(report.transcript_digest.empty());
}

TEST(StagedEngine, VirtualAccountingIsExactAtAnyClockOffset) {
  // Every stage waits 5.2 ms on a world clock far from zero and reports
  // its duration the way a ms-minded caller would: end/1000 - start/1000.
  // That difference of large doubles is 5.2 ms plus dust; the engine must
  // count 5200 µs exactly, so the stage rows show pure wait, no service.
  constexpr std::size_t kSessions = 8;
  std::vector<std::string> digests;
  for (const SimClock::Micros offset_us : {12'345'678ull, 123'456'789ull}) {
    SimClock clock;
    clock.advance_us(offset_us);
    SessionEngineConfig config;
    config.workers = 1;  // one world clock, driven by one lane
    SessionEngine engine(config);
    const auto report = engine.run_staged(
        kSessions, [&](StagedContext& ctx) -> SessionState {
          const SimClock::Micros start_us = clock.now_us();
          clock.advance_us(5'200);
          obs::note_wait_us(5'200);
          ctx.stage_virt_ms = static_cast<double>(clock.now_us()) / 1000.0 -
                              static_cast<double>(start_us) / 1000.0;
          return ctx.state == SessionState::kPageFetch
                     ? SessionState::kDone
                     : static_cast<SessionState>(
                           static_cast<int>(ctx.state) + 1);
        });
    ASSERT_EQ(report.succeeded, kSessions) << "offset " << offset_us;
    ASSERT_EQ(report.stage_breakdown.size(), 5u);
    for (const auto& row : report.stage_breakdown) {
      EXPECT_EQ(row.count, kSessions);
      EXPECT_EQ(row.service_total_ms, 0.0)
          << to_string(row.stage) << " at offset " << offset_us;
      EXPECT_EQ(row.wait_total_ms, 5.2 * static_cast<double>(row.count))
          << to_string(row.stage) << " at offset " << offset_us;
      EXPECT_EQ(row.service_p99_ms, 0.0);
    }
    EXPECT_EQ(report.service_virt_ms, 0.0);
    for (const double v : report.session_virt_ms) EXPECT_EQ(v, 26.0);
    digests.push_back(report.transcript_digest);
  }
  EXPECT_EQ(digests[0], digests[1])
      << "the transcript must not depend on where the world clock started";
}

TEST(StagedEngine, OneWorkerParksThousandsOfSessions) {
  SessionEngineConfig config;
  config.workers = 1;  // the whole point: parked sessions hold no thread
  SessionEngine engine(config);
  constexpr std::size_t kSessions = 4096;

  const auto report = engine.run_staged(
      kSessions, [&](StagedContext& ctx) -> SessionState {
        ctx.stage_virt_ms = synth_ms(ctx.index, static_cast<int>(ctx.state), 7);
        switch (ctx.state) {
          case SessionState::kHandshake: return SessionState::kEvidenceFetch;
          case SessionState::kEvidenceFetch: return SessionState::kKdsFetch;
          case SessionState::kKdsFetch: return SessionState::kVerify;
          case SessionState::kVerify: return SessionState::kPageFetch;
          case SessionState::kPageFetch: return SessionState::kDone;
          default: return SessionState::kFailed;
        }
      });

  EXPECT_EQ(report.succeeded, kSessions);
  EXPECT_EQ(report.peak_parked, kSessions)
      << "every session in flight at once, none holding a thread";
  EXPECT_GE(report.parked_per_worker, 4096.0);
  // Flat per-session memory: one cell + one heap event, nothing per-stage.
  EXPECT_LT(report.bytes_per_parked_session, 256.0);
  // The makespan is bounded by the slowest *session* (~5 stages * <=10.7ms),
  // not by sessions/workers — 4096 sessions complete inside ~54 virtual ms.
  EXPECT_LT(report.virt_makespan_ms, 60.0);
}

TEST(StagedEngine, AdmissionControlBoundsInflightKdsAndParksTheRest) {
  SessionEngineConfig config;
  config.workers = 4;
  SessionEngine engine(config);
  constexpr std::size_t kSessions = 64;
  AdmissionConfig admission;
  admission.max_inflight_kds = 4;

  const std::uint64_t parks_before =
      obs::metrics().counter_value("gw.admission.park.count");

  const auto report = engine.run_staged(
      kSessions, [&](StagedContext& ctx) -> SessionState {
        switch (ctx.state) {
          case SessionState::kHandshake:
            ctx.stage_virt_ms = 1.0;
            return SessionState::kEvidenceFetch;
          case SessionState::kEvidenceFetch:
            ctx.stage_virt_ms = 2.0;
            return SessionState::kKdsFetch;
          case SessionState::kKdsFetch:
            ctx.stage_virt_ms = 100.0;  // a slow, saturated KDS
            return SessionState::kVerify;
          case SessionState::kVerify:
            ctx.stage_virt_ms = 0.5;
            return SessionState::kPageFetch;
          case SessionState::kPageFetch:
            ctx.stage_virt_ms = 1.0;
            return SessionState::kDone;
          default:
            return SessionState::kFailed;
        }
      },
      admission);

  EXPECT_EQ(report.succeeded, kSessions) << "park policy sheds nothing";
  EXPECT_EQ(report.shed, 0u);
  // The gate's own accounting: capacity is held from kds_fetch dispatch
  // until the wake that runs verify, and never exceeded the limit.
  EXPECT_EQ(report.peak_inflight_kds, 4u);
  EXPECT_GE(report.peak_queue_depth, kSessions - 8)
      << "the herd parks at the gate instead of fanning out";
  EXPECT_EQ(report.peak_parked, kSessions)
      << "waiting sessions park; none holds a pool lane while gated";
  EXPECT_GT(report.wake_p99_ms, 0.0) << "parked sessions waited measurably";
  EXPECT_GT(obs::metrics().counter_value("gw.admission.park.count"),
            parks_before);
  // The bound is provable from the timeline: 64 sessions through a
  // width-4 gate of a 100ms stage is at least 16 serial gate turns, so a
  // makespan under 1600ms would mean the gate admitted more than 4 at
  // some virtual instant.
  EXPECT_GE(report.virt_makespan_ms, 1600.0);
}

TEST(StagedEngine, ShedPolicyFailsClosedAndNeverReachesVerify) {
  SessionEngineConfig config;
  config.workers = 4;
  SessionEngine engine(config);
  constexpr std::size_t kSessions = 32;
  AdmissionConfig admission;
  admission.max_inflight_kds = 2;
  admission.on_overload = AdmissionConfig::Overload::kShed;

  std::vector<char> verify_ran(kSessions, 0);
  const auto report = engine.run_staged(
      kSessions, [&](StagedContext& ctx) -> SessionState {
        ctx.stage_virt_ms = 1.0;  // identical timing: the herd arrives at
                                  // the gate in one batch
        switch (ctx.state) {
          case SessionState::kHandshake: return SessionState::kEvidenceFetch;
          case SessionState::kEvidenceFetch: return SessionState::kKdsFetch;
          case SessionState::kKdsFetch: return SessionState::kVerify;
          case SessionState::kVerify:
            verify_ran[ctx.index] = 1;
            return SessionState::kPageFetch;
          case SessionState::kPageFetch: return SessionState::kDone;
          default: return SessionState::kFailed;
        }
      },
      admission);

  EXPECT_EQ(report.succeeded, 2u) << "only the admitted pair completes";
  EXPECT_EQ(report.shed, kSessions - 2);
  EXPECT_EQ(report.failed, kSessions - 2);
  for (std::size_t i = 0; i < kSessions; ++i) {
    if (report.outcomes[i].ok()) {
      EXPECT_EQ(verify_ran[i], 1);
      EXPECT_EQ(report.final_states[i], SessionState::kDone);
      continue;
    }
    // Fail-closed: a shed session fails with the admission code, never
    // runs verify, and can never be mistaken for an attested session.
    EXPECT_EQ(report.outcomes[i].error().code, "gw.admission.shed");
    EXPECT_EQ(report.final_states[i], SessionState::kFailed);
    EXPECT_EQ(verify_ran[i], 0);
  }
}

TEST(StagedEngine, SameSeedRerunsAreBitIdentical) {
  const auto run_once = [](std::uint64_t salt) {
    SessionEngineConfig config;
    config.workers = 4;
      SessionEngine engine(config);
    AdmissionConfig admission;
    admission.max_inflight_kds = 8;
    admission.max_inflight_evidence = 16;
    return engine.run_staged(
        256,
        [salt](StagedContext& ctx) -> SessionState {
          ctx.stage_virt_ms =
              synth_ms(ctx.index, static_cast<int>(ctx.state), salt);
          switch (ctx.state) {
            case SessionState::kHandshake:
              return SessionState::kEvidenceFetch;
            case SessionState::kEvidenceFetch:
              return SessionState::kKdsFetch;
            case SessionState::kKdsFetch: return SessionState::kVerify;
            case SessionState::kVerify:
              if (ctx.index % 17 == 0) {
                ctx.failure = Error::make("test.rejected");
                return SessionState::kFailed;
              }
              return SessionState::kPageFetch;
            case SessionState::kPageFetch: return SessionState::kDone;
            default: return SessionState::kFailed;
          }
        },
        admission);
  };

  const auto a = run_once(11);
  const auto b = run_once(11);
  const auto c = run_once(12);
  EXPECT_EQ(a.transcript_digest, b.transcript_digest)
      << "same seed, same transcript, bit for bit — across real threads";
  EXPECT_EQ(a.virt_makespan_ms, b.virt_makespan_ms);
  EXPECT_EQ(a.session_virt_ms, b.session_virt_ms);
  EXPECT_NE(a.transcript_digest, c.transcript_digest)
      << "the digest actually depends on the schedule";
}

/// A kds stage over the engine's shared VCEK cache: the stage whose fetch
/// function runs pays a 5.2 ms round trip, a hit pays nothing.
SessionState kds_stage(StagedContext& ctx) {
  sevsnp::ChipId chip;
  chip[0] = 0x5a;
  bool fetched = false;
  auto chain = ctx.vcek_cache->get_or_fetch(
      chip, sevsnp::TcbVersion{2, 0, 8, 115},
      [&]() -> Result<KdsService::VcekResponse> {
        fetched = true;
        return fake_vcek("witness");
      });
  ctx.stage_virt_ms = fetched ? 5.2 : 0.0;
  return chain.ok() ? SessionState::kDone : SessionState::kFailed;
}

TEST(StagedEngine, KdsFetchLandsOnTheOneWorkerSessionAtAnyWidth) {
  // Eight sessions on eight tracks reach the kds stage in one batch. The
  // stage whose fetch function runs pays a 5.2 ms round trip; the others
  // hit. One worker runs session 0 first, so session 0 pays. With four
  // workers, session `sleeper` stalls 20 ms of real time before its cache
  // call. If lanes raced for the cache, a stalled session 0 would lose the
  // fetch to another session and the digest would move.
  constexpr std::size_t kSessions = 8;
  constexpr std::size_t kNoSleeper = kSessions;
  const auto run = [](unsigned workers, std::size_t sleeper) {
    SessionEngineConfig config;
    config.workers = workers;
    SessionEngine engine(config);
    return engine.run_staged(
        kSessions, [&](StagedContext& ctx) -> SessionState {
          if (ctx.state == SessionState::kHandshake) {
            ctx.stage_virt_ms = 1.0;
            return SessionState::kKdsFetch;
          }
          if (ctx.index == sleeper) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
          }
          return kds_stage(ctx);
        });
  };

  const auto one = run(1, kNoSleeper);
  ASSERT_EQ(one.succeeded, kSessions);
  EXPECT_EQ(one.vcek_stats.fetches, 1u);
  EXPECT_EQ(one.session_virt_ms[0], 6.2) << "session 0 pays the fetch";
  for (std::size_t i = 1; i < kSessions; ++i) {
    EXPECT_EQ(one.session_virt_ms[i], 1.0) << "session " << i;
  }
  for (std::size_t sleeper = 0; sleeper < 4; ++sleeper) {
    const auto four = run(4, sleeper);
    EXPECT_EQ(four.vcek_stats.fetches, 1u) << "sleeper " << sleeper;
    EXPECT_EQ(four.transcript_digest, one.transcript_digest)
        << "sleeper " << sleeper;
  }
}

TEST(StagedEngine, KdsBatchHookRunsTheKdsLaneInItsOwnTask) {
  // Sessions 0 and 1 share track 0 and reach the second batch at kds_fetch
  // and evidence_fetch: a mixed group, so session 0 goes to the KDS lane.
  // Sessions 2 and 3 (tracks 1, 2) sit at kds_fetch alone and go to the
  // batch hook, which one worker runs first. The hook stalls 20 ms before
  // its cache calls; if the lane ran beside it, session 0 would fetch.
  BatchStageConfig batching;
  batching.stage = SessionState::kKdsFetch;
  batching.fn = [](std::vector<StagedBatchItem>& items) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    for (auto& item : items) item.next = kds_stage(item.ctx);
  };
  for (const unsigned workers : {1u, 4u}) {
    SessionEngineConfig config;
    config.workers = workers;
    const auto report = SessionEngine(config).run_staged(
        4,
        [](StagedContext& ctx) -> SessionState {
          switch (ctx.state) {
            case SessionState::kHandshake:
              return ctx.index == 1 ? SessionState::kEvidenceFetch
                                    : SessionState::kKdsFetch;
            case SessionState::kKdsFetch: return kds_stage(ctx);
            default: return SessionState::kDone;
          }
        },
        {}, [](std::size_t i) { return i == 0 ? 0 : i - 1; }, batching);
    ASSERT_EQ(report.succeeded, 4u) << "workers " << workers;
    EXPECT_EQ(report.vcek_stats.fetches, 1u);
    EXPECT_EQ(report.session_virt_ms[2], 5.2)
        << "the hook's first session pays the fetch, workers " << workers;
    EXPECT_EQ(report.session_virt_ms[0], 0.0) << "workers " << workers;
  }
}

// ---------------------------------------------------------------------------
// Staged engine end-to-end: real worlds, staged WebExtension sessions

TEST(StagedGatewayEndToEnd, EveryWidthGivesTheOneWorkerTranscript) {
  // Full crypto over eight same-seed worlds: whichever lane count drives
  // them, with or without the verify batch hook, the one KDS fetch lands
  // on the same session and every rerun hashes to one digest.
  //
  // Then the same widths over chaos: fresh same-seed lossy worlds per run
  // and a KDS admission cap, so drops, retries, parks and failures must
  // all replay too, and no run may accept unverified trust.
  auto worlds = build_worlds(8, "gw-staged-width-1");
  std::string digest;
  std::string chaos_digest;
  AdmissionConfig chaos_admission;
  chaos_admission.max_inflight_kds = 8;
  for (const bool batch_verify : {false, true}) {
    for (const unsigned workers : {1u, 2u, 4u, 16u}) {
      for (int rerun = 0; rerun < 3; ++rerun) {
        const std::string where = "batch " + std::to_string(batch_verify) +
                                  " workers " + std::to_string(workers) +
                                  " rerun " + std::to_string(rerun);
        SessionEngineConfig config;
        config.workers = workers;
        {
          SessionEngine engine(config);
          const auto report = Sessions(worlds, 16, extension_config(1))
                                  .run(engine, {}, batch_verify);
          EXPECT_EQ(report.succeeded, 16u) << where;
          EXPECT_EQ(report.vcek_stats.fetches, 1u) << where;
          if (digest.empty()) digest = report.transcript_digest;
          EXPECT_EQ(report.transcript_digest, digest) << where;
        }

        SessionEngine engine(config);
        auto chaos = build_worlds(4, "gw-staged-width-chaos-1");
        make_lossy(chaos, "gw-staged-width-chaos-plan");
        Sessions sessions(chaos, 24, extension_config(5));
        const auto report = sessions.run(engine, chaos_admission, batch_verify);
        EXPECT_EQ(sessions.unverified_accepts(), 0) << where;
        EXPECT_EQ(sessions.wrong_bodies(), 0) << where;
        EXPECT_EQ(report.succeeded + report.failed, 24u) << where;
        EXPECT_GT(report.succeeded, 0u) << where;
        EXPECT_GT(report.failed, 0u) << where << ": the plan must bite";
        if (chaos_digest.empty()) {
          chaos_digest = report.transcript_digest;
          // The witness line: a change that keeps the chaos replay
          // bit-identical prints the same digest and count.
          std::printf("[staged-width-chaos] ok=%zu/24 transcript_sha256=%s\n",
                      report.succeeded, chaos_digest.c_str());
        }
        EXPECT_EQ(report.transcript_digest, chaos_digest) << where;
      }
    }
  }
}

TEST(StagedGatewayEndToEnd, StagedSessionsShareCachesAndFetchKdsOnce) {
  SessionEngineConfig config;
  config.workers = 4;
  SessionEngine engine(config);
  auto worlds = build_worlds(4, "gw-staged-1");

  Sessions sessions(worlds, 16, extension_config(1));
  const auto report = sessions.run(engine);

  EXPECT_EQ(report.sessions, 16u);
  EXPECT_EQ(report.succeeded, 16u) << "fault-free staged run must be all green";
  EXPECT_EQ(sessions.unverified_accepts(), 0);
  EXPECT_EQ(sessions.wrong_bodies(), 0);
  for (const auto state : report.final_states) {
    EXPECT_EQ(state, SessionState::kDone);
  }

  // The staged path preserves the caching story: one KDS round trip total.
  const auto vcek = report.vcek_stats;
  EXPECT_EQ(vcek.fetches, 1u);
  EXPECT_EQ(vcek.hits + vcek.coalesced, 15u);
  EXPECT_EQ(vcek.failures, 0u);

  EXPECT_GT(report.virt_makespan_ms, 0.0);
  // Sessions genuinely overlap: total session-time exceeds the makespan.
  double total = 0.0;
  for (const double v : report.session_virt_ms) total += v;
  EXPECT_GT(total, report.virt_makespan_ms);
  EXPECT_GT(report.wait_virt_ms, 0.0)
      << "network round trips were observed as virtual waits";
}

TEST(StagedGatewayEndToEnd, ChaosSoakNeverAcceptsUnverifiedTrustWhileParked) {
  SessionEngineConfig config;
  config.workers = 4;
  SessionEngine engine(config);
  auto worlds = build_worlds(4, "gw-staged-chaos-1");
  make_lossy(worlds, "gw-staged-chaos-plan");
  AdmissionConfig admission;
  admission.max_inflight_kds = 8;

  Sessions sessions(worlds, 24, extension_config(5));
  const auto report = sessions.run(engine, admission);

  EXPECT_EQ(report.sessions, 24u);
  EXPECT_EQ(report.succeeded + report.failed, 24u);
  EXPECT_EQ(sessions.unverified_accepts(), 0);
  EXPECT_EQ(sessions.wrong_bodies(), 0);
  EXPECT_GT(report.succeeded, 0u)
      << "retries must carry some sessions through the chaos";
  for (std::size_t i = 0; i < 24; ++i) {
    const auto& st = report.outcomes[i];
    if (!st.ok()) {
      EXPECT_NE(st.error().code, gateway::kUnverifiedAccepted);
      EXPECT_EQ(report.final_states[i], SessionState::kFailed);
    }
  }
  EXPECT_LT(report.vcek_stats.fetches, 24u);
}

TEST(StagedGatewayEndToEnd, SameSeedWorldsGiveBitIdenticalTranscripts) {
  // One world => one track: every stage of every session runs in a single
  // deterministic serial order, so even the chaos plan's draws replay
  // exactly. Two fresh same-seed worlds must produce the same digest.
  const auto run_once = [] {
    SessionEngineConfig config;
    config.workers = 2;
    SessionEngine engine(config);
    auto worlds = build_worlds(1, "gw-staged-det-1");
    net::LinkFaultProfile lossy;
    lossy.drop_prob = 0.10;
    lossy.delay_prob = 0.2;
    lossy.delay_min_ms = 1.0;
    lossy.delay_max_ms = 6.0;
    net::FaultPlan plan(to_bytes(std::string_view("gw-staged-det-plan")));
    plan.set_default_profile(lossy);
    worlds[0]->arm(std::move(plan));
    return Sessions(worlds, 6, extension_config(3)).run(engine);
  };

  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.transcript_digest, b.transcript_digest);
  EXPECT_EQ(a.session_virt_ms, b.session_virt_ms);
  EXPECT_EQ(a.succeeded, b.succeeded);
  EXPECT_EQ(a.virt_makespan_ms, b.virt_makespan_ms);
}

}  // namespace
}  // namespace revelio::core
