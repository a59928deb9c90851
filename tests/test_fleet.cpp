// Fleet lifecycle (src/fleet, src/revelio) — TCB update horizons,
// certificate rotation, revocation push, rollback defence — soaked as
// chaos-layer scenarios on the virtual-time session engine.
//
// The headline test is the lifecycle chaos soak: 320 staged gateway
// sessions over a seeded lossy fabric, with a certificate rotation, a
// staged TCB update (fail-closed horizon, then evidence refresh), a
// sealed-volume rollback attempt and a revocation push all firing
// *mid-soak*: the soak's op list (FleetOps) applies each op in the first
// stage dispatched at or after its virtual instant. Gates:
//   - zero unverified-trust acceptances across every scenario;
//   - the same seed reproduces a bit-identical transcript;
//   - the audit chain (session verdicts interleaved with lifecycle
//     records) verifies offline.
// The suite runs tier-1 and under the tsan preset (`fleet` label).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/hex.hpp"
#include "crypto/sha2.hpp"
#include "fleet/tcb_horizon.hpp"
#include "gateway_world.hpp"
#include "imagebuild/builder.hpp"
#include "obs/audit_log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "revelio/revelio_vm.hpp"
#include "revelio/revocation.hpp"
#include "revelio/session_engine.hpp"
#include "revelio/sp_node.hpp"
#include "revelio/web_extension.hpp"
#include "store/kv_store.hpp"
#include "store/storage_env.hpp"
#include "vm/hypervisor.hpp"

namespace revelio::core {
namespace {

using crypto::HmacDrbg;

using gateway::kBody;
using gateway::kDomain;
using gateway::kKdsMirror;
using gateway::kKdsPrimary;

sevsnp::TcbVersion old_tcb() { return sevsnp::TcbVersion{2, 0, 8, 115}; }
sevsnp::TcbVersion new_tcb() { return sevsnp::TcbVersion{3, 0, 9, 120}; }

struct FleetWorldOptions {
  std::size_t vm_count = 3;
  /// Forwarded to KeyDistributionServer::set_vcek_not_after BEFORE any
  /// VCEK is issued (0 = the century default).
  std::uint64_t vcek_not_after_us = 0;
  pki::AcmeConfig acme;
};

/// GatewayWorld's fleet-lifecycle sibling (bench/gateway_world.hpp),
/// driven by the same GatewaySessions stages: N attested VMs behind one
/// domain, KDS + mirror, an SP node kept around for rotation rounds, and
/// the app routes kept as a member so lifecycle ops can redeploy a node
/// (reboot, rollback probe) mid-test.
struct FleetWorld {
  explicit FleetWorld(const std::string& seed, FleetWorldOptions options = {})
      : network(clock),
        world_drbg(to_bytes("fleet-world-" + seed)),
        kds(world_drbg),
        kds_service(kds, network, {kKdsPrimary, 443}),
        kds_mirror_service(kds, network, {kKdsMirror, 443}),
        acme(clock, world_drbg, options.acme),
        browser(network, "laptop", acme.trusted_roots(),
                HmacDrbg(to_bytes("browser-" + seed))) {
    if (options.vcek_not_after_us != 0) {
      kds.set_vcek_not_after(options.vcek_not_after_us);
    }
    imagebuild::BaseImage base;
    base.name = "ubuntu";
    base.tag = "20.04";
    base.packages = {
        {"nginx", "1.18", {{"/usr/sbin/nginx",
                            to_bytes(std::string_view("nginx-binary"))}}}};
    const crypto::Digest32 base_digest = registry.publish(base);

    imagebuild::BuildInputs inputs;
    inputs.base_image_digest = base_digest;
    inputs.service_files["/opt/service/app"] =
        to_bytes(std::string_view("service-binary-v1"));
    inputs.initrd.services = {{"nginx", "/usr/sbin/nginx", 120.0},
                              {"app", "/opt/service/app", 300.0}};
    inputs.initrd.allowed_inbound_ports = {"443", "8443"};
    imagebuild::ImageBuilder builder(registry);
    auto built = builder.build(inputs);
    EXPECT_TRUE(built.ok());
    image = *built;
    expected_measurement = vm::Hypervisor::expected_measurement(
        image.kernel_blob, image.initrd_blob, image.cmdline);

    routes.route("GET", "/", [](const net::HttpRequest&) {
      return net::HttpResponse::ok(to_bytes(std::string_view(kBody)),
                                   "text/html");
    });
    for (std::size_t i = 0; i < options.vm_count; ++i) {
      const std::string host = "10.0.0." + std::to_string(i + 1);
      auto sp_chip = std::make_unique<sevsnp::AmdSp>(
          to_bytes("platform-" + host + "-" + seed), old_tcb());
      kds.register_platform(*sp_chip);
      auto node = RevelioVm::deploy(*sp_chip, network, vm_config(host),
                                    routes);
      EXPECT_TRUE(node.ok()) << (node.ok() ? "" : node.error().to_string());
      platforms.push_back(std::move(sp_chip));
      nodes.push_back(std::move(*node));
    }

    SpNodeConfig sp_config;
    sp_config.domain = kDomain;
    sp_config.kds_address = {kKdsPrimary, 443};
    sp_config.expected_measurements = {expected_measurement};
    sp_config.retry.max_attempts = 5;  // rotation rounds ride over chaos
    sp = std::make_unique<SpNode>(network, acme, sp_config);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      sp->approve_node(nodes[i]->bootstrap_address(),
                       platforms[i]->chip_id());
    }
    auto outcomes = sp->provision_fleet();
    EXPECT_TRUE(outcomes.ok())
        << (outcomes.ok() ? "" : outcomes.error().to_string());
    if (outcomes.ok()) {
      for (const auto& outcome : *outcomes) {
        EXPECT_TRUE(outcome.attested) << outcome.failure;
      }
    }
    network.dns_set_a(kDomain, "10.0.0.1");
    t0_ = clock.now_us();
  }

  RevelioVmConfig vm_config(const std::string& host) const {
    RevelioVmConfig config;
    config.domain = kDomain;
    config.host = host;
    config.image = image;
    config.kds_address = {kKdsPrimary, 443};
    config.kds_mirrors = {{kKdsMirror, 443}};
    return config;
  }

  SimClock::Micros t0() const { return t0_; }
  void arm(net::FaultPlan plan) { network.set_fault_plan(std::move(plan)); }

  SiteRegistration registration() {
    SiteRegistration site;
    site.expected_measurements = {expected_measurement};
    return site;
  }

  SimClock clock;
  net::Network network;
  HmacDrbg world_drbg;
  sevsnp::KeyDistributionServer kds;
  KdsService kds_service;
  KdsService kds_mirror_service;
  pki::AcmeIssuer acme;
  Browser browser;
  imagebuild::PackageRegistry registry;
  imagebuild::VmImage image;
  net::HttpRouter routes;
  sevsnp::Measurement expected_measurement;
  std::vector<std::unique_ptr<sevsnp::AmdSp>> platforms;
  std::vector<std::unique_ptr<RevelioVm>> nodes;
  std::unique_ptr<SpNode> sp;
  std::mutex mu;  // one engine lane drives the world at a time

 private:
  SimClock::Micros t0_ = 0;
};

// ------------------------------------------------------------ TcbHorizon

TEST(TcbHorizon, GatesByInstantAndNeverLowersTheFloor) {
  const sevsnp::AmdSp chip_a(to_bytes(std::string_view("horizon-a")),
                             old_tcb());
  const sevsnp::AmdSp chip_b(to_bytes(std::string_view("horizon-b")),
                             old_tcb());
  fleet::TcbHorizon horizon;

  // No announcement: everything passes.
  EXPECT_TRUE(horizon.acceptable(chip_a.chip_id(), old_tcb(), 0));

  auto applied = horizon.announce(chip_a.chip_id(), new_tcb(), 1000);
  ASSERT_TRUE(applied.ok());
  EXPECT_TRUE(*applied);
  // Before the horizon the rollout is in progress — old reports verify.
  EXPECT_TRUE(horizon.acceptable(chip_a.chip_id(), old_tcb(), 999));
  // At the horizon, old reports are rejected; updated ones pass.
  EXPECT_FALSE(horizon.acceptable(chip_a.chip_id(), old_tcb(), 1000));
  EXPECT_TRUE(horizon.acceptable(chip_a.chip_id(), new_tcb(), 1000));
  // Other chips are unaffected.
  EXPECT_TRUE(horizon.acceptable(chip_b.chip_id(), old_tcb(), 1000));

  // A later announcement may not lower the floor (fail-open otherwise) —
  // and the drop is reported to the caller, not recorded as applied.
  auto ignored = horizon.announce(chip_a.chip_id(), old_tcb(), 0);
  ASSERT_TRUE(ignored.ok());
  EXPECT_FALSE(*ignored) << "a lowered floor must report as ignored";
  EXPECT_FALSE(horizon.acceptable(chip_a.chip_id(), old_tcb(), 1000));
  // Re-announcing an equal-or-higher minimum may move the horizon.
  auto reannounced = horizon.announce(chip_a.chip_id(), new_tcb(), 5000);
  ASSERT_TRUE(reannounced.ok());
  EXPECT_TRUE(*reannounced);
  EXPECT_TRUE(horizon.acceptable(chip_a.chip_id(), old_tcb(), 4999));
  EXPECT_FALSE(horizon.acceptable(chip_a.chip_id(), old_tcb(), 5000));

  const auto stats = horizon.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.checks, 8u);
  EXPECT_EQ(stats.rejections, 3u);
}

TEST(TcbHorizon, DurableHorizonsSurviveReopenAndFailClosedOnCorruption) {
  store::MemStorageEnv env;
  const sevsnp::AmdSp chip(to_bytes(std::string_view("horizon-durable")),
                           old_tcb());
  {
    auto kv = store::KvStore::open(env);
    ASSERT_TRUE(kv.ok());
    auto horizon = fleet::TcbHorizon::open(**kv);
    ASSERT_TRUE(horizon.ok());
    ASSERT_TRUE(
        (*horizon)->announce(chip.chip_id(), new_tcb(), 42, "CVE-x").ok());
    EXPECT_FALSE((*horizon)->acceptable(chip.chip_id(), old_tcb(), 42));
  }
  {
    // A restarted gateway must still enforce the horizon.
    auto kv = store::KvStore::open(env);
    ASSERT_TRUE(kv.ok());
    auto horizon = fleet::TcbHorizon::open(**kv);
    ASSERT_TRUE(horizon.ok());
    EXPECT_EQ((*horizon)->size(), 1u);
    EXPECT_FALSE((*horizon)->acceptable(chip.chip_id(), old_tcb(), 42));
    EXPECT_TRUE((*horizon)->acceptable(chip.chip_id(), new_tcb(), 42));

    // A malformed persisted entry fails the open closed — a horizon set
    // that silently dropped entries would be a fail-open.
    ASSERT_TRUE((*kv)->put(to_bytes(std::string_view("fleet/tcb/short")),
                           to_bytes(std::string_view("junk"))).ok());
    auto corrupt = fleet::TcbHorizon::open(**kv);
    ASSERT_FALSE(corrupt.ok());
    EXPECT_EQ(corrupt.error().code, "fleet.tcb_corrupt");
  }
}

// --------------------------------------------- VcekCache durable binding

// Regression (fleet TCB updates): a durable VCEK record must be bound to
// the (chip, TCB) it was fetched for. A record copied under another key —
// the pre-update chain surfacing under the post-update key — must parse
// as a miss and be repaired by a real fetch, never served as a hit.
TEST(VcekCacheDurable, RecordsAreBoundToTheirChipAndTcb) {
  HmacDrbg drbg(to_bytes(std::string_view("vcek-binding")));
  sevsnp::KeyDistributionServer kds(drbg);
  const sevsnp::AmdSp chip(to_bytes(std::string_view("vcek-chip")),
                           old_tcb());
  kds.register_platform(chip);
  const auto fetch_for = [&](sevsnp::TcbVersion tcb) {
    return [&kds, &chip, tcb]() -> Result<KdsService::VcekResponse> {
      auto vcek = kds.fetch_vcek(chip.chip_id(), tcb);
      if (!vcek.ok()) return vcek.error();
      KdsService::VcekResponse response;
      response.vcek = *vcek;
      response.ask = kds.ask_certificate();
      response.ark = kds.ark_certificate();
      return response;
    };
  };
  const auto store_key = [&](sevsnp::TcbVersion tcb) {
    Bytes key;
    append(key, std::string_view("vcek/"));
    append(key, chip.chip_id().view());
    append_u64be(key, tcb.encode());
    return key;
  };

  store::MemStorageEnv env;
  auto kv = store::KvStore::open(env);
  ASSERT_TRUE(kv.ok());

  {
    VcekCache cache(16);
    cache.attach_store(kv->get());
    auto got = cache.get_or_fetch(chip.chip_id(), old_tcb(),
                                  fetch_for(old_tcb()));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(cache.stats().fetches, 1u);
  }
  // Warm restart, same key: served from the durable tier, zero fetches.
  {
    VcekCache cache(16);
    cache.attach_store(kv->get());
    auto got = cache.get_or_fetch(
        chip.chip_id(), old_tcb(), []() -> Result<KdsService::VcekResponse> {
          ADD_FAILURE() << "a persisted chain must not be re-fetched";
          return Error::make("test.unexpected_fetch");
        });
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(cache.stats().store_hits, 1u);
    EXPECT_EQ(cache.stats().fetches, 0u);
  }

  // Copy the old-TCB record under the new-TCB key — exactly what a fleet
  // TCB update must never be confused by.
  const auto old_record = (*kv)->get(store_key(old_tcb()));
  ASSERT_TRUE(old_record.has_value());
  ASSERT_TRUE((*kv)->put(store_key(new_tcb()), *old_record).ok());
  {
    VcekCache cache(16);
    cache.attach_store(kv->get());
    auto got = cache.get_or_fetch(chip.chip_id(), new_tcb(),
                                  fetch_for(new_tcb()));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(cache.stats().store_hits, 0u)
        << "a record bound to another TCB must not serve this key";
    EXPECT_EQ(cache.stats().fetches, 1u);
  }

  // Same for a record surfacing under another chip's key.
  const sevsnp::AmdSp other(to_bytes(std::string_view("vcek-chip-2")),
                            old_tcb());
  kds.register_platform(other);
  Bytes other_key;
  append(other_key, std::string_view("vcek/"));
  append(other_key, other.chip_id().view());
  append_u64be(other_key, old_tcb().encode());
  ASSERT_TRUE((*kv)->put(other_key, *old_record).ok());
  {
    VcekCache cache(16);
    cache.attach_store(kv->get());
    bool fetched = false;
    auto got = cache.get_or_fetch(
        other.chip_id(), old_tcb(),
        [&]() -> Result<KdsService::VcekResponse> {
          fetched = true;
          auto vcek = kds.fetch_vcek(other.chip_id(), old_tcb());
          if (!vcek.ok()) return vcek.error();
          return KdsService::VcekResponse{*vcek, kds.ask_certificate(),
                                          kds.ark_certificate()};
        });
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(fetched) << "a record bound to another chip must be a miss";
    EXPECT_EQ(cache.stats().store_hits, 0u);
  }
}

// ------------------------------------------------- certificate rotation

TEST(CertRotation, RenewalWindowRotationAndExpiryDrivenRehandshake) {
  FleetWorldOptions options;
  options.vm_count = 1;
  options.acme.cert_lifetime_us = 2ull * 3600 * 1000 * 1000;  // 2 h
  FleetWorld world("rotate-1", options);

  const auto session = [&]() {
    world.browser.drop_session(kDomain);
    WebExtensionConfig config;
    config.kds_address = {kKdsPrimary, 443};
    config.kds_mirrors = {{kKdsMirror, 443}};
    WebExtension extension(world.browser, config);
    extension.register_site(kDomain, world.registration());
    return extension.get(kDomain, 443, "/");
  };

  ASSERT_TRUE(world.sp->issued_certificate().has_value());
  const pki::Certificate first = *world.sp->issued_certificate();
  constexpr std::uint64_t kOverlap = 30ull * 60 * 1000 * 1000;  // 30 min

  // Fresh certificate: far from its overlap window.
  EXPECT_FALSE(world.sp->renewal_due(world.clock.now_us(), kOverlap));
  // Regression: a maximal overlap window ("rotate always") used to wrap
  // now + overlap around std::uint64_t and spuriously suppress rotation;
  // century-scale overlaps (the codebase's "never expires" magnitude) are
  // the realistic variant of the same hazard.
  EXPECT_TRUE(world.sp->renewal_due(
      world.clock.now_us(), std::numeric_limits<std::uint64_t>::max()));
  EXPECT_TRUE(world.sp->renewal_due(
      world.clock.now_us(), world.acme.trusted_roots()[0].not_after_us));

  // Step inside the overlap window: renewal is due, the old certificate
  // still verifies, and a rotation round (the same provisioning workflow,
  // under the same ACME rate limits) issues + distributes a successor.
  world.clock.advance_us(first.not_after_us - world.clock.now_us() -
                         kOverlap / 2);
  EXPECT_TRUE(world.sp->renewal_due(world.clock.now_us(), kOverlap));
  ASSERT_TRUE(session().ok()) << "old certificate is still valid";
  auto rotated = world.sp->provision_fleet();
  ASSERT_TRUE(rotated.ok()) << rotated.error().to_string();
  const pki::Certificate second = *world.sp->issued_certificate();
  EXPECT_GT(second.not_after_us, first.not_after_us);
  // Both issues count against the registered domain's rate-limit window.
  EXPECT_EQ(world.acme.issued_in_window("revelio.app"), 2u);

  // Cross the old certificate's expiry: pki's half-open validity window
  // fails it closed, and a fresh handshake lands on the rotated one —
  // sessions never observe a gap.
  world.clock.advance_us(first.not_after_us - world.clock.now_us());
  auto after_expiry = session();
  ASSERT_TRUE(after_expiry.ok()) << after_expiry.error().to_string();
  EXPECT_TRUE(after_expiry->checks.all_ok());

  // And when the *rotated* certificate expires with no further renewal,
  // sessions fail closed at the handshake rather than serving stale trust.
  world.clock.advance_us(second.not_after_us - world.clock.now_us());
  auto expired = session();
  ASSERT_FALSE(expired.ok());
}

// ----------------------------------------------------- rollback defence

TEST(RollbackDefense, RestoredSealedVolumeIsRejectedOnReboot) {
  FleetWorldOptions options;
  options.vm_count = 1;
  FleetWorld world("rollback-1", options);
  auto disk = world.nodes[0]->disk();
  const std::size_t disk_bytes =
      disk->block_size() * static_cast<std::size_t>(disk->block_count());

  // Snapshot the sealed volume as the host could (raw device bytes), then
  // advance state past it: a rotation round re-persists the identity and
  // bumps the AMD-SP monotonic counter.
  const Bytes snapshot = disk->raw_dump(0, disk_bytes);
  auto rotated = world.sp->provision_fleet();
  ASSERT_TRUE(rotated.ok()) << rotated.error().to_string();

  // A reboot from the *current* disk resumes service (counter matches).
  world.platforms[0]->launch_reset();
  world.nodes[0].reset();
  RevelioVmConfig config = world.vm_config("10.0.0.1");
  config.existing_disk = disk;
  auto rebooted =
      RevelioVm::deploy(*world.platforms[0], world.network, config,
                        world.routes);
  ASSERT_TRUE(rebooted.ok()) << rebooted.error().to_string();
  EXPECT_TRUE((*rebooted)->serving_tls());
  world.nodes[0] = std::move(*rebooted);

  // The attack: restore the pre-rotation snapshot byte for byte. The
  // ciphertext is genuine (same chip, same measurement — it unseals), but
  // its stamp is older than the chip counter, which the host cannot roll
  // back. The reboot must fail closed on TRUST — the stale identity is
  // discarded unserved and the detection surfaced — but not on
  // availability: the node boots unprovisioned instead of bricking.
  const Bytes current = disk->raw_dump(0, disk_bytes);
  for (std::size_t i = 0; i < disk_bytes; ++i) {
    if (current[i] != snapshot[i]) {
      disk->raw_tamper(i, current[i] ^ snapshot[i]);
    }
  }
  world.platforms[0]->launch_reset();
  world.nodes[0].reset();
  auto rolled_back =
      RevelioVm::deploy(*world.platforms[0], world.network, config,
                        world.routes);
  ASSERT_TRUE(rolled_back.ok()) << rolled_back.error().to_string();
  EXPECT_FALSE((*rolled_back)->serving_tls())
      << "a rolled-back sealed volume must never boot into service";
  EXPECT_TRUE((*rolled_back)->rollback_detected());
  EXPECT_NE((*rolled_back)->rollback_detail().find("stamp"),
            std::string::npos);
  world.nodes[0] = std::move(*rolled_back);

  // Recovery: a fresh SP provisioning round re-attests the node from
  // scratch and re-seals a NEW identity — service resumes on the current
  // certificate, and the snapshot's identity was never served.
  auto reprovisioned = world.sp->provision_fleet();
  ASSERT_TRUE(reprovisioned.ok()) << reprovisioned.error().to_string();
  EXPECT_TRUE(world.nodes[0]->serving_tls());

  // The re-sealed record carries a fresh stamp: a plain reboot resumes
  // service again with no detection.
  world.platforms[0]->launch_reset();
  world.nodes[0].reset();
  auto resumed = RevelioVm::deploy(*world.platforms[0], world.network,
                                   config, world.routes);
  ASSERT_TRUE(resumed.ok()) << resumed.error().to_string();
  EXPECT_TRUE((*resumed)->serving_tls());
  EXPECT_FALSE((*resumed)->rollback_detected());
}

// The review scenario that motivated fail-closed-on-trust-only: the chip
// counter ends up AHEAD of the sealed stamp through an ordinary fault
// (a persist's durable write lost, or a crash between write and counter
// increment) — indistinguishable on disk from a rollback. The node must
// not be bricked: boot discards the record, reports the detection, and a
// provisioning round restores service.
TEST(RollbackDefense, CounterAheadOfStampRecoversByReprovisioning) {
  FleetWorldOptions options;
  options.vm_count = 1;
  FleetWorld world("rollback-2", options);
  auto disk = world.nodes[0]->disk();

  // Simulate the lost persist: the chip counter moves, the volume doesn't.
  ASSERT_TRUE(world.platforms[0]->counter_increment(0).ok());

  world.platforms[0]->launch_reset();
  world.nodes[0].reset();
  RevelioVmConfig config = world.vm_config("10.0.0.1");
  config.existing_disk = disk;
  auto rebooted = RevelioVm::deploy(*world.platforms[0], world.network,
                                    config, world.routes);
  ASSERT_TRUE(rebooted.ok())
      << "a lost persist must not brick the node: "
      << rebooted.error().to_string();
  EXPECT_FALSE((*rebooted)->serving_tls());
  EXPECT_TRUE((*rebooted)->rollback_detected());
  world.nodes[0] = std::move(*rebooted);

  auto reprovisioned = world.sp->provision_fleet();
  ASSERT_TRUE(reprovisioned.ok()) << reprovisioned.error().to_string();
  EXPECT_TRUE(world.nodes[0]->serving_tls());
}

// ------------------------------------------------- expiry edge cases

// Three lifecycle edge cases, one world, three DISTINCT failure steps:
//   (1) the VCEK certificate expiring exactly at the validation instant
//       fails at "chain" (half-open validity; the exact not_after - 1 /
//       not_after boundary is pinned at the pki layer in test_pki);
//   (2) evidence cached before a TCB update, served at/after the horizon,
//       fails at "tcb_horizon" — before any chain or signature work, even
//       though its chain is *also* expired;
//   (3) a revocation entry added between a session's KDS fetch and its
//       verify stage fails at "revocation".
TEST(ExpiryEdges, DistinctFailureStepsForChainHorizonAndRevocation) {
  constexpr std::uint64_t kVcekNotAfter = 3600ull * 1000 * 1000;  // t = 1 h
  FleetWorldOptions options;
  options.vm_count = 1;
  options.vcek_not_after_us = kVcekNotAfter;
  FleetWorld world("expiry-1", options);
  ASSERT_LT(world.clock.now_us(), kVcekNotAfter);

  RevocationSet revocation;
  fleet::TcbHorizon horizon;
  const auto make_extension = [&]() {
    world.browser.drop_session(kDomain);
    WebExtensionConfig config;
    config.kds_address = {kKdsPrimary, 443};
    config.kds_mirrors = {{kKdsMirror, 443}};
    config.revocation_set = &revocation;
    config.tcb_horizon = &horizon;
    WebExtension extension(world.browser, config);
    extension.register_site(kDomain, world.registration());
    return extension;
  };
  // Fresh extension per attempt: fresh chain-verdict and VCEK caches, so
  // every attempt re-validates against the current instant.
  struct Attempt {
    bool ok = false;
    std::string step;
    std::string error;
  };
  const auto attempt = [&]() -> Attempt {
    WebExtension extension = make_extension();
    auto got = extension.get(kDomain, 443, "/");
    const auto* checks = extension.last_checks(kDomain);
    return {got.ok(), checks != nullptr ? checks->failure_step : "(none)",
            got.ok() ? "" : got.error().to_string()};
  };
  std::set<std::string> steps;

  // (1) A session that *verifies* before not_after passes. The chain walk
  // runs at verify time, after the handshake/evidence/KDS round-trips have
  // advanced the shared virtual clock, so start the session with a margin
  // that covers those RTTs. (The exact half-open boundary — valid at
  // not_after - 1, expired at not_after — is pinned at the pki layer by
  // test_pki's ExpiryBoundaryIsHalfOpen.)
  constexpr std::uint64_t kSessionRttBudgetUs = 2'000'000;  // >> session RTTs
  world.clock.advance_us(kVcekNotAfter - kSessionRttBudgetUs -
                         world.clock.now_us());
  auto before = attempt();
  EXPECT_TRUE(before.ok) << "chain must verify before not_after: "
                         << before.error << " (step " << before.step << ")";
  // ...and a session starting AT not_after verifies at now >= not_after,
  // so the half-open window rejects it.
  world.clock.advance_us(kVcekNotAfter - world.clock.now_us());
  auto at_expiry = attempt();
  EXPECT_FALSE(at_expiry.ok);
  EXPECT_EQ(at_expiry.step, "chain") << at_expiry.error;
  steps.insert(at_expiry.step);

  // (2) Stage a TCB update with an immediate horizon. The VM still serves
  // evidence signed under the old TCB — cached before the update — so the
  // horizon gate rejects it before any signature work. (Its chain is also
  // expired; "tcb_horizon", not "chain", proves the gate runs first.)
  world.kds.set_vcek_not_after(0);  // future issues get the century default
  world.platforms[0]->update_firmware(new_tcb());
  ASSERT_TRUE(horizon
                  .announce(world.platforms[0]->chip_id(), new_tcb(),
                            world.clock.now_us(), "staged update")
                  .ok());
  auto stale = attempt();
  EXPECT_FALSE(stale.ok);
  EXPECT_EQ(stale.step, "tcb_horizon") << stale.error;
  steps.insert(stale.step);

  // After the VM refreshes its evidence at the updated TCB, sessions are
  // green again: the new VCEK (fresh validity window) passes the chain
  // walk and the new report passes the horizon.
  ASSERT_TRUE(world.nodes[0]->refresh_evidence().ok());
  auto refreshed = attempt();
  EXPECT_TRUE(refreshed.ok)
      << "post-refresh sessions must verify at the new TCB";

  // (3) Revoke the serving chip between a session's KDS fetch and its
  // verify stage: the staged pipeline must reject at "revocation".
  WebExtension extension = make_extension();
  auto staged = extension.begin_session(kDomain, 443);
  ASSERT_TRUE(staged.handshake().ok());
  ASSERT_TRUE(staged.fetch_evidence().ok());
  ASSERT_TRUE(staged.fetch_kds().ok());
  ASSERT_TRUE(revocation.revoke_chip(world.platforms[0]->chip_id(),
                                     "endorsement key leaked").ok());
  EXPECT_FALSE(staged.verify().ok());
  EXPECT_EQ(staged.checks().failure_step, "revocation");
  steps.insert(staged.checks().failure_step);

  // The three edges are distinguishable in the audit trail.
  EXPECT_EQ(steps.size(), 3u);
}

// --------------------------------------------- lifecycle chaos soak

/// The soak's scheduled fleet operations. Each op runs once, in (at_us,
/// seq) order, the first time apply_due() reaches its instant, and leaves
/// one record in the audit chain next to the session verdicts.
struct FleetOps {
  struct Op {
    std::uint64_t at_us = 0;
    std::uint64_t seq = 0;  // scheduling order: the tiebreak at one instant
    /// Audited; <= 15 chars survive the audit wire format
    /// (AuditRecord::kFailureStepSize).
    std::string name;
    std::function<Status()> apply;
    bool applied = false;
  };

  /// Session-id namespace for op records: keeps fleet operations distinct
  /// from session verdicts (dense small integers) in an offline replay.
  static constexpr std::uint64_t kSessionBase = 0xf1ee7000'00000000ULL;

  explicit FleetOps(obs::AuditLog& log) : audit(log) {}

  obs::AuditLog& audit;
  std::vector<Op> ops;
  std::size_t applied = 0;
  std::size_t failed = 0;

  void schedule(std::uint64_t at_us, std::string name,
                std::function<Status()> apply) {
    ops.push_back({at_us, ops.size(), std::move(name), std::move(apply)});
  }

  void apply_due(std::uint64_t now_us) {
    std::vector<Op*> due;  // in seq order, so a stable sort keeps ties
    for (Op& op : ops) {
      if (!op.applied && op.at_us <= now_us) due.push_back(&op);
    }
    std::stable_sort(due.begin(), due.end(), [](const Op* a, const Op* b) {
      return a->at_us < b->at_us;
    });
    for (Op* op : due) {
      op->applied = true;
      const Status st = op->apply();
      ++applied;
      if (!st.ok()) ++failed;
      // The op name rides the failure_step slot, its instant and outcome
      // the evidence digest, and `accepted` records whether it succeeded.
      obs::AuditRecord record;
      record.session = kSessionBase | op->seq;
      record.virt_us = now_us;
      record.accepted = st.ok();
      record.failure_step = op->name;
      Bytes body;
      append_u64be(body, op->at_us);
      append(body, op->name);
      if (!st.ok()) append(body, st.error().to_string());
      record.evidence_digest = crypto::sha256(body);
      audit.append(record);
    }
  }
};

struct WaveResult {
  SessionEngine::StagedReport report;
  std::vector<std::string> failure_steps;  // per session, "" on success
  int unverified_accepts = 0;
  int wrong_bodies = 0;
};

struct SoakResult {
  std::string transcript;
  std::size_t sessions = 0;
  std::size_t succeeded = 0;
  std::uint64_t horizon_rejections = 0;
  std::uint64_t revocation_hits = 0;
  std::size_t ops_applied = 0;
  std::size_t ops_failed = 0;
  std::size_t ops_pending = 0;
  bool audit_ok = false;
  std::uint64_t audit_records = 0;
};

/// One wave of staged sessions against `world` through `engine`. All
/// sessions share track 0 (one single-threaded world), so a batch runs as
/// one task in ready order: its first stage applies the ops due at the
/// batch's instant before any session of the batch touches the world.
WaveResult run_wave(SessionEngine& engine, FleetWorld& world,
                    obs::AuditLog& audit, FleetOps& ops,
                    const RevocationSet* revocation,
                    const fleet::TcbHorizon* horizon, std::size_t sessions) {
  WebExtensionConfig config;
  config.kds_address = {kKdsPrimary, 443};
  config.kds_mirrors = {{kKdsMirror, 443}};
  config.retry.max_attempts = 4;
  config.audit_log = &audit;
  config.revocation_set = revocation;
  config.tcb_horizon = horizon;
  gateway::GatewaySessions<FleetWorld> wave(std::vector<FleetWorld*>{&world},
                                            sessions, config);
  WaveResult out;
  out.report = engine.run_staged(
      sessions,
      [&](StagedContext& ctx) {
        {
          // Before the world lock: the ops take it themselves. Unbound
          // from this session's record, so an op's network waits are not
          // charged to the stage.
          const std::uint64_t now_us = obs::session_record()->now_us;
          obs::ScopedSessionRecord unbound(nullptr);
          ops.apply_due(now_us);
        }
        return wave.stage(ctx);
      },
      {}, wave.tracks());
  for (std::size_t i = 0; i < sessions; ++i) {
    out.failure_steps.push_back(wave.failure_step(i));
  }
  out.unverified_accepts = wave.unverified_accepts();
  out.wrong_bodies = wave.wrong_bodies();
  return out;
}

/// The full lifecycle soak for one seed. Four waves, 320 sessions total,
/// over a seeded lossy fabric; lifecycle ops fire mid-wave at the dispatch
/// instant (instants are loop-virtual-time, paced off the deterministic
/// wave-A makespan):
///   wave A (60):  baseline under chaos — paces the op schedule;
///   wave B (80):  cert_rotate mid-wave (ACME re-issue + redistribute);
///   wave C (100): tcb_update (horizon rejects stale evidence), then
///                 vm_refresh (sessions recover at the new TCB);
///   wave D (80):  rollback_probe (snapshot-restore + reboot must be
///                 refused), then revoke_push (remaining sessions fail
///                 closed at "revocation").
SoakResult run_lifecycle_soak(const std::string& seed) {
  FleetWorld world(seed);

  // Durable control plane: revocations and horizons must survive a
  // gateway restart, VCEK chains read through the same store.
  store::MemStorageEnv env;
  auto kv = store::KvStore::open(env);
  EXPECT_TRUE(kv.ok());
  auto revocation = RevocationSet::open(**kv);
  EXPECT_TRUE(revocation.ok());
  auto horizon = fleet::TcbHorizon::open(**kv);
  EXPECT_TRUE(horizon.ok());

  obs::AuditLog audit(16);
  FleetOps ops(audit);

  SessionEngineConfig engine_config;
  engine_config.workers = 4;
  engine_config.audit_log = &audit;
  SessionEngine engine(engine_config);
  engine.vcek_cache().attach_store(kv->get());

  // Seeded fault schedule: a mildly lossy fabric for the whole soak.
  net::LinkFaultProfile lossy;
  lossy.drop_prob = 0.03;
  lossy.delay_prob = 0.2;
  lossy.delay_min_ms = 1.0;
  lossy.delay_max_ms = 5.0;
  net::FaultPlan plan(to_bytes("fleet-soak-" + seed));
  plan.set_default_profile(lossy);
  world.arm(std::move(plan));

  // Pre-soak snapshot of node 2's sealed volume — wave D's rollback probe
  // restores it after the rotation has advanced the chip counter.
  auto probe_disk = world.nodes[1]->disk();
  const std::size_t probe_bytes =
      probe_disk->block_size() *
      static_cast<std::size_t>(probe_disk->block_count());
  const Bytes probe_snapshot = probe_disk->raw_dump(0, probe_bytes);

  SoakResult out;
  std::vector<std::pair<const char*, WaveResult>> waves;
  const auto soak_wave = [&](const char* name, std::size_t sessions) {
    WaveResult wave = run_wave(engine, world, audit, ops, revocation->get(),
                               horizon->get(), sessions);
    out.sessions += wave.report.sessions;
    out.succeeded += wave.report.succeeded;
    out.transcript += std::string("wave=") + name +
                      " digest=" + wave.report.transcript_digest + "\n";
    for (std::size_t i = 0; i < sessions; ++i) {
      out.transcript += std::to_string(i) + ":" +
                        (wave.report.outcomes[i].ok()
                             ? "ok"
                             : wave.report.outcomes[i].error().code) +
                        ":" + wave.failure_steps[i] + "\n";
    }
    EXPECT_EQ(wave.unverified_accepts, 0)
        << "wave " << name << " accepted unverified trust";
    EXPECT_EQ(wave.wrong_bodies, 0);
    waves.emplace_back(name, std::move(wave));
    // A wave is a maintenance window: an op still pending when the wave
    // drains is applied at the window boundary. Waves whose sessions fail
    // early (skipping the page fetch) accumulate virtual time slower than
    // the baseline pace, so a late-scheduled op can miss its own wave —
    // the boundary reconcile keeps the op sequence deterministic anyway.
    ops.apply_due(std::numeric_limits<std::uint64_t>::max());
  };
  const auto with_world = [&](const std::function<Status()>& fn) {
    std::lock_guard<std::mutex> world_lock(world.mu);
    ScopedClockCurrent clock_scope(world.clock);
    return fn();
  };

  // Wave A: baseline; its deterministic makespan paces every later op.
  soak_wave("baseline", 60);
  const auto pace_us = static_cast<std::uint64_t>(
      waves[0].second.report.virt_makespan_ms * 1000.0 / 60.0);
  EXPECT_GT(pace_us, 0u);

  // Wave B: certificate rotation mid-wave. In-flight sessions keep
  // verifying — the node identity (and the attested key) is unchanged;
  // later handshakes land on the rotated certificate.
  ops.schedule(30 * pace_us, "cert_rotate", [&]() -> Status {
    return with_world([&]() -> Status {
      EXPECT_TRUE(world.sp->renewal_due(
          world.clock.now_us(),
          world.acme.trusted_roots()[0].not_after_us))
          << "forced-early rotation: any overlap covering now is due";
      auto outcome = world.sp->provision_fleet();
      if (!outcome.ok()) return outcome.error();
      return Status::success();
    });
  });
  soak_wave("cert_rotate", 80);

  // Wave C: staged TCB update on the serving chip. Sessions verifying
  // inside the (update, refresh) window see the old evidence rejected
  // fail-closed at "tcb_horizon"; after vm_refresh they recover.
  ops.schedule(20 * pace_us, "tcb_update", [&]() -> Status {
    return with_world([&]() -> Status {
      world.platforms[0]->update_firmware(new_tcb());
      auto applied = horizon.value()->announce(
          world.platforms[0]->chip_id(), new_tcb(),
          world.clock.now_us(), "fleet-wide TCB update");
      if (!applied.ok()) return applied.error();
      // An ignored (below-floor) announcement must not audit as an
      // applied tcb_update — surface it as a distinct failed op.
      return *applied ? Status::success()
                      : Error::make("fleet.tcb_ignored",
                                    "minimum below the announced floor");
    });
  });
  ops.schedule(40 * pace_us, "vm_refresh", [&]() -> Status {
    return with_world([&]() { return world.nodes[0]->refresh_evidence(); });
  });
  soak_wave("tcb_update", 100);

  // Wave D: a rollback probe against node 2 (its restored snapshot must
  // be refused at reboot — the op fails if the attack *succeeds*), then a
  // revocation push that kills the serving chip for good.
  ops.schedule(10 * pace_us, "rollback_probe", [&]() -> Status {
    return with_world([&]() -> Status {
      const Bytes current = probe_disk->raw_dump(0, probe_bytes);
      for (std::size_t i = 0; i < probe_bytes; ++i) {
        if (current[i] != probe_snapshot[i]) {
          probe_disk->raw_tamper(i, current[i] ^ probe_snapshot[i]);
        }
      }
      world.platforms[1]->launch_reset();
      world.nodes[1].reset();
      RevelioVmConfig config = world.vm_config("10.0.0.2");
      config.existing_disk = probe_disk;
      auto rebooted = RevelioVm::deploy(*world.platforms[1],
                                        world.network, config,
                                        world.routes);
      if (!rebooted.ok()) return rebooted.error();
      // Fail closed on trust, not availability: the node must boot
      // (unprovisioned) but never serve the rolled-back identity.
      if ((*rebooted)->serving_tls() ||
          !(*rebooted)->rollback_detected()) {
        return Error::make("fleet.rollback_not_detected",
                           "stale sealed volume booted into service");
      }
      world.nodes[1] = std::move(*rebooted);
      return Status::success();
    });
  });
  ops.schedule(25 * pace_us, "revoke_push", [&]() -> Status {
    return with_world([&]() {
      return revocation.value()->revoke_chip(
          world.platforms[0]->chip_id(), "endorsement key leaked");
    });
  });
  soak_wave("revoke_push", 80);

  // Scenario-specific outcomes.
  const auto count_step = [&](const WaveResult& wave, const char* step) {
    int n = 0;
    for (const auto& s : wave.failure_steps) n += (s == step) ? 1 : 0;
    return n;
  };
  EXPECT_GT(waves[1].second.report.succeeded, 0u)
      << "sessions must keep succeeding across the rotation";
  EXPECT_GT(count_step(waves[2].second, "tcb_horizon"), 0)
      << "stale evidence inside the update window must hit the horizon";
  EXPECT_GT(waves[2].second.report.succeeded, 0u)
      << "sessions must recover after the evidence refresh";
  EXPECT_GT(waves[3].second.report.succeeded, 0u)
      << "recovery must persist into the next wave (pre-revocation)";
  EXPECT_GT(count_step(waves[3].second, "revocation"), 0)
      << "sessions after the push must fail closed at revocation";

  out.horizon_rejections = horizon.value()->stats().rejections;
  out.revocation_hits = revocation.value()->stats().hits;
  out.ops_applied = ops.applied;
  out.ops_failed = ops.failed;
  out.ops_pending = ops.ops.size() - ops.applied;
  const auto audit_summary = obs::AuditLog::verify(audit.serialize());
  out.audit_ok = audit_summary.ok();
  out.audit_records = audit.records();
  // The transcript's SHA-256 makes this line a witness across builds: a
  // change that keeps the soak bit-identical prints the same digest.
  const std::string transcript_sha256 =
      to_hex(crypto::sha256(to_bytes(out.transcript)).view());
  std::printf(
      "[fleet-soak] seed=%s sessions=%zu ok=%zu horizon_rej=%llu "
      "revoked=%llu ops=%zu audit_records=%llu transcript_sha256=%s\n",
      seed.c_str(), out.sessions, out.succeeded,
      static_cast<unsigned long long>(out.horizon_rejections),
      static_cast<unsigned long long>(out.revocation_hits), out.ops_applied,
      static_cast<unsigned long long>(out.audit_records),
      transcript_sha256.c_str());
  return out;
}

TEST(FleetLifecycleSoak, LifecycleOpsUnderChaosStayFailClosed) {
  const SoakResult soak = run_lifecycle_soak("seed-1");
  EXPECT_EQ(soak.sessions, 320u);
  EXPECT_GT(soak.succeeded, soak.sessions / 2)
      << "most sessions ride over the mild fault schedule";
  // Every lifecycle op fired exactly once and succeeded — including the
  // rollback probe, which *succeeds* iff the attack was refused.
  EXPECT_EQ(soak.ops_applied, 5u);
  EXPECT_EQ(soak.ops_failed, 0u);
  EXPECT_EQ(soak.ops_pending, 0u);
  EXPECT_GT(soak.horizon_rejections, 0u);
  EXPECT_GT(soak.revocation_hits, 0u);
  // Session verdicts + lifecycle records share one verifiable chain.
  EXPECT_TRUE(soak.audit_ok);
  // Every *reached* verdict and every lifecycle op is on the chain
  // (transport-level failures never get as far as a verdict).
  EXPECT_GE(soak.audit_records,
            soak.succeeded + soak.ops_applied);
}

TEST(FleetLifecycleSoak, SameSeedReproducesBitIdenticalTranscript) {
  const SoakResult first = run_lifecycle_soak("seed-replay");
  const SoakResult second = run_lifecycle_soak("seed-replay");
  EXPECT_EQ(first.transcript, second.transcript);
  EXPECT_FALSE(first.transcript.empty());
}

}  // namespace
}  // namespace revelio::core
