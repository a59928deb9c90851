// Chaos soak: hundreds of end-to-end attestation sessions under seeded
// fault schedules (FoundationDB-style deterministic simulation).
//
// Three properties are soaked, per ISSUE and DESIGN.md "Fault injection &
// resilience":
//   (a) fail-closed under chaos — no session ever *accepts* unverified
//       trust: every successful fetch carries a fully green check list and
//       the untampered body; failures are transport verdicts, not partial
//       trust;
//   (b) recovery — once faults clear and breaker cooldowns elapse,
//       sessions succeed again;
//   (c) determinism — the same seed reproduces the identical transcript
//       bit for bit, including per-session virtual-time deltas.
//
// Virtual-time note: RevelioVm::deploy charges *measured* key-generation
// time to the SimClock, so the absolute post-provision timestamp differs
// across runs. Every fault window is therefore anchored at the
// post-provision epoch t0 and transcripts record deltas from t0 — after
// t0 all charges (latency, timeouts, backoff, fault delays) are pure
// virtual time and reproduce exactly.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "gateway_world.hpp"
#include "obs/metrics.hpp"
#include "revelio/web_extension.hpp"

namespace revelio::core {
namespace {

using gateway::GatewayWorld;
using gateway::kDomain;
using gateway::kKdsPrimary;

/// A soak world has three attested VMs behind one domain (plus the KDS,
/// its mirror and a browser), provisioned fault-free. Chaos is armed
/// afterwards via arm(), anchored at the post-provision epoch t0().
constexpr std::size_t kVms = 3;

struct SoakStats {
  int sessions = 0;
  int succeeded = 0;
  int failed = 0;
};

/// Summary line per schedule (EXPERIMENTS.md's soak table is filled from
/// these): sessions, outcomes, and how many faults the schedule injected.
void report(const char* schedule, const SoakStats& stats,
            std::uint64_t faults_injected) {
  std::printf("[soak] %-16s sessions=%d ok=%d failed-closed=%d faults=%llu\n",
              schedule, stats.sessions, stats.succeeded, stats.failed,
              static_cast<unsigned long long>(faults_injected));
}

std::uint64_t total_faults_injected() {
  std::uint64_t total = 0;
  for (const char* kind : {"drop", "delay", "duplicate", "partition",
                           "blackhole", "flap"}) {
    total += obs::metrics().counter_value("net.fault.injected",
                                          {{"kind", kind}});
  }
  return total;
}

/// One full end-user session: a fresh extension (fresh caches, fresh
/// breakers — a new browser profile) attests and fetches the page. The
/// fail-closed property is asserted on every outcome: success means every
/// check is green and the body is untampered; failure must be a transport
/// verdict, never a verification code that slipped through as transient.
SoakStats run_sessions(GatewayWorld& world, int count,
                       std::string* transcript = nullptr) {
  SoakStats stats;
  for (int i = 0; i < count; ++i) {
    world.browser.drop_session(kDomain);
    WebExtensionConfig config;
    config.kds_address = {kKdsPrimary, 443};
    config.kds_mirrors = {{gateway::kKdsMirror, 443}};
    config.retry.max_attempts = 5;
    WebExtension extension(world.browser, config);
    extension.register_site(kDomain, world.registration());
    auto verified = extension.get(kDomain, 443, "/");
    ++stats.sessions;
    if (verified.ok()) {
      ++stats.succeeded;
      // (a) No unverified trust: an accepted session is fully verified.
      EXPECT_TRUE(verified->checks.all_ok())
          << "session " << i << " accepted with a non-green check list";
      EXPECT_EQ(to_string(verified->response.body), gateway::kBody);
    } else {
      ++stats.failed;
      EXPECT_NE(verified.error().code, "extension.site_not_registered");
    }
    if (transcript != nullptr) {
      *transcript += "s" + std::to_string(i) + ":" +
                     (verified.ok() ? "ok" : verified.error().code) + ":" +
                     std::to_string(world.clock.now_us() - world.t0()) + "\n";
    }
  }
  return stats;
}

/// (b) Recovery: clears all faults, lets breaker cooldowns elapse, and
/// requires clean sessions to succeed again.
void expect_recovery(GatewayWorld& world) {
  world.network.fault_plan()->clear_faults();
  world.clock.advance_us(6'000'000);  // past the default 5 s breaker cooldown
  const SoakStats after = run_sessions(world, 3);
  EXPECT_EQ(after.succeeded, 3)
      << "sessions must succeed once faults clear and breakers half-open";
}

// Schedule 1 — lossy fabric: every link drops 15% of messages, delays 25%
// and duplicates 5%. Sessions retry through it; whatever the outcome, no
// partial trust is ever accepted.
std::string run_lossy_schedule(const std::string& seed, SoakStats* out) {
  GatewayWorld world(seed, kVms);
  net::LinkFaultProfile lossy;
  lossy.drop_prob = 0.15;
  lossy.delay_prob = 0.25;
  lossy.delay_min_ms = 1.0;
  lossy.delay_max_ms = 10.0;
  lossy.duplicate_prob = 0.05;
  net::FaultPlan plan(to_bytes("lossy-" + seed));
  plan.set_default_profile(lossy);
  world.arm(std::move(plan));

  const auto faults_before =
      obs::metrics().counter_value("net.fault.injected", {{"kind", "drop"}});
  const auto total_before = total_faults_injected();
  std::string transcript;
  const SoakStats stats = run_sessions(world, 80, &transcript);
  report(("lossy/" + seed).c_str(), stats,
         total_faults_injected() - total_before);
  EXPECT_GT(obs::metrics().counter_value("net.fault.injected",
                                         {{"kind", "drop"}}),
            faults_before)
      << "the schedule must actually inject faults";
  EXPECT_GT(stats.succeeded, 0) << "retries must carry some sessions through";
  expect_recovery(world);
  if (out != nullptr) *out = stats;
  return transcript;
}

TEST(ChaosSoak, LossyFabricFailsClosedAndRecovers) {
  SoakStats stats;
  run_lossy_schedule("seed-1", &stats);
  EXPECT_EQ(stats.sessions, 80);
}

// (c) Determinism: the same seed replays the identical transcript —
// outcome codes AND virtual-time deltas — in a freshly built world.
TEST(ChaosSoak, SameSeedReproducesBitIdenticalTranscript) {
  const std::string first = run_lossy_schedule("seed-replay", nullptr);
  const std::string second = run_lossy_schedule("seed-replay", nullptr);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
  // And a different seed must not replay the same schedule.
  const std::string other = run_lossy_schedule("seed-other", nullptr);
  EXPECT_NE(first, other);
}

// Schedule 2 — KDS outage: the primary KDS flaps (down 2 s of every 4 s,
// phase-anchored at t0) on top of a mildly lossy fabric. The extension's
// KDS failover must ride over to the mirror; attestation never accepts a
// chain it could not verify.
TEST(ChaosSoak, KdsFlapFailsOverToMirror) {
  GatewayWorld world("seed-2", kVms);
  net::LinkFaultProfile mild;
  mild.drop_prob = 0.05;
  net::FaultPlan plan(to_bytes(std::string_view("kds-flap")));
  plan.set_default_profile(mild);
  plan.flap(kKdsPrimary, 4'000'000, 2'000'000, world.t0());
  world.arm(std::move(plan));

  const auto switches_before =
      obs::metrics().counter_value("failover.switch.count",
                                   {{"service", "kds"}});
  const auto total_before = total_faults_injected();
  const SoakStats stats = run_sessions(world, 80);
  report("kds-flap", stats, total_faults_injected() - total_before);
  EXPECT_EQ(stats.sessions, 80);
  EXPECT_GT(stats.succeeded, stats.sessions / 2)
      << "the mirror must keep most sessions alive through primary outages";
  EXPECT_GT(obs::metrics().counter_value("failover.switch.count",
                                         {{"service", "kds"}}),
            switches_before)
      << "some sessions must have been served by the mirror";
  expect_recovery(world);
}

// Schedule 3 — partitioned primary KDS plus duplicate-heavy links, and a
// mid-schedule hard blackhole of the service itself: the browser is
// hard-partitioned from the primary KDS (every session must verify via
// the mirror), 30% of messages are duplicated (stateful endpoints observe
// the replay), and for a 20 s window the service host is gone entirely —
// sessions inside the window MUST fail, and fail closed with a transport
// verdict, never a half-verified acceptance.
TEST(ChaosSoak, PartitionAndDuplicatesStayFailClosed) {
  GatewayWorld world("seed-3", kVms);
  net::LinkFaultProfile dup_heavy;
  dup_heavy.duplicate_prob = 0.3;
  dup_heavy.drop_prob = 0.05;
  net::FaultPlan plan(to_bytes(std::string_view("partition-dup")));
  plan.set_default_profile(dup_heavy);
  plan.partition("laptop", kKdsPrimary);
  plan.blackhole("10.0.0.1", world.t0() + 5'000'000,
                 world.t0() + 25'000'000);
  world.arm(std::move(plan));

  const auto total_before = total_faults_injected();
  const SoakStats stats = run_sessions(world, 60);
  report("partition-dup", stats, total_faults_injected() - total_before);
  EXPECT_EQ(stats.sessions, 60);
  EXPECT_GT(stats.succeeded, 0);
  EXPECT_GT(stats.failed, 0)
      << "sessions inside the service blackhole must fail (closed)";
  expect_recovery(world);
}

// The chaos layer's own observability: after soaking, the metrics export
// carries the fault, retry and breaker series the runbook points at.
TEST(ChaosSoak, MetricsExportCarriesChaosSeries) {
  GatewayWorld world("seed-metrics", kVms);
  net::LinkFaultProfile lossy;
  lossy.drop_prob = 0.3;
  net::FaultPlan plan(to_bytes(std::string_view("metrics")));
  plan.set_default_profile(lossy);
  world.arm(std::move(plan));
  run_sessions(world, 10);

  const std::string json = obs::metrics().to_json();
  EXPECT_NE(json.find("net.fault.injected"), std::string::npos);
  EXPECT_NE(json.find("retry.attempts"), std::string::npos);
  EXPECT_NE(json.find("breaker.state"), std::string::npos);
}

}  // namespace
}  // namespace revelio::core
