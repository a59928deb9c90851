// The gateway harness bench_gateway and the gateway tests share: one
// simulated deployment (GatewayWorld) and one driver (GatewaySessions)
// that runs WebExtension::StagedAttestation passes over such worlds from
// SessionEngine lanes.
//
// A world is single-threaded by design, so a stage locks its world, binds
// the world's clock to the lane (ScopedClockCurrent) and shares only the
// engine's thread-safe caches with other sessions. Session i runs on
// world i % worlds, which is also its engine track, so one world is never
// driven from two lanes at once. The world clock's delta across a stage is
// the stage's park interval.
//
// Header-only: the bench and each test binary compile it in; there is no
// library target.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/sim_clock.hpp"
#include "imagebuild/builder.hpp"
#include "revelio/revelio_vm.hpp"
#include "revelio/session_engine.hpp"
#include "revelio/sp_node.hpp"
#include "revelio/web_extension.hpp"
#include "vm/hypervisor.hpp"

namespace revelio::gateway {

inline constexpr const char* kDomain = "svc.revelio.app";
inline constexpr const char* kKdsPrimary = "kds.amd.com";
inline constexpr const char* kKdsMirror = "kds-mirror.amd.com";
inline constexpr const char* kBody = "<html>app</html>";
/// The failure a session gets when a page was served without every check
/// green; no run may ever report it.
inline constexpr const char* kUnverifiedAccepted =
    "gateway.unverified_trust_accepted";

/// Aborts with `what` when a world cannot be built: every number measured
/// over a half-built world would be meaningless.
[[noreturn]] inline void die(const char* what, const std::string& why) {
  std::fprintf(stderr, "gateway world: %s failed: %s\n", what, why.c_str());
  std::abort();
}

template <class T>
T require(Result<T> result, const char* what) {
  if (!result.ok()) die(what, result.error().to_string());
  return std::move(*result);
}

/// One complete deployment: a KDS with one mirror, `vm_count` attested VMs
/// behind one domain (DNS points at the first), the SP node that
/// provisioned them, and a browser. Identical seeds produce byte-identical
/// AMD certificates (the platforms register with the KDS at t=0, before
/// any real-time-measured deploy), which is what lets same-seed worlds
/// share the engine's VCEK and chain caches.
struct GatewayWorld {
  explicit GatewayWorld(const std::string& seed, std::size_t vm_count = 1)
      : network(clock),
        world_drbg(to_bytes("gateway-world-" + seed)),
        kds(world_drbg),
        kds_service(kds, network, {kKdsPrimary, 443}),
        kds_mirror_service(kds, network, {kKdsMirror, 443}),
        acme(clock, world_drbg),
        browser(network, "laptop", acme.trusted_roots(),
                crypto::HmacDrbg(to_bytes("browser-" + seed))) {
    imagebuild::BaseImage base;
    base.name = "ubuntu";
    base.tag = "20.04";
    base.packages = {{"nginx", "1.18",
                      {{"/usr/sbin/nginx",
                        to_bytes(std::string_view("nginx-binary"))}}}};
    imagebuild::BuildInputs inputs;
    inputs.base_image_digest = registry.publish(base);
    inputs.service_files["/opt/service/app"] =
        to_bytes(std::string_view("service-binary-v1"));
    inputs.initrd.services = {{"nginx", "/usr/sbin/nginx", 120.0},
                              {"app", "/opt/service/app", 300.0}};
    inputs.initrd.allowed_inbound_ports = {"443", "8443"};
    image = require(imagebuild::ImageBuilder(registry).build(inputs),
                    "image build");
    expected_measurement = vm::Hypervisor::expected_measurement(
        image.kernel_blob, image.initrd_blob, image.cmdline);

    net::HttpRouter routes;
    routes.route("GET", "/", [](const net::HttpRequest&) {
      return net::HttpResponse::ok(to_bytes(std::string_view(kBody)),
                                   "text/html");
    });
    for (std::size_t i = 0; i < vm_count; ++i) {
      const std::string host = "10.0.0." + std::to_string(i + 1);
      platforms.push_back(std::make_unique<sevsnp::AmdSp>(
          to_bytes("platform-" + host + "-" + seed),
          sevsnp::TcbVersion{2, 0, 8, 115}));
      kds.register_platform(*platforms.back());
      core::RevelioVmConfig config;
      config.domain = kDomain;
      config.host = host;
      config.image = image;
      config.kds_address = {kKdsPrimary, 443};
      config.kds_mirrors = {{kKdsMirror, 443}};
      nodes.push_back(require(
          core::RevelioVm::deploy(*platforms.back(), network, config, routes),
          "VM deploy"));
    }

    core::SpNodeConfig sp_config;
    sp_config.domain = kDomain;
    sp_config.kds_address = {kKdsPrimary, 443};
    sp_config.expected_measurements = {expected_measurement};
    sp = std::make_unique<core::SpNode>(network, acme, sp_config);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      sp->approve_node(nodes[i]->bootstrap_address(), platforms[i]->chip_id());
    }
    for (const auto& outcome :
         require(sp->provision_fleet(), "fleet provisioning")) {
      if (!outcome.attested) die("fleet provisioning", outcome.failure);
    }
    network.dns_set_a(kDomain, "10.0.0.1");
    t0_ = clock.now_us();
  }

  /// The post-provision epoch: deploy charges measured key-generation time
  /// to the clock, so fault windows and transcripts anchor here.
  SimClock::Micros t0() const { return t0_; }
  void arm(net::FaultPlan plan) { network.set_fault_plan(std::move(plan)); }

  core::SiteRegistration registration() const {
    core::SiteRegistration site;
    site.expected_measurements = {expected_measurement};
    return site;
  }

  SimClock clock;
  net::Network network;
  crypto::HmacDrbg world_drbg;
  sevsnp::KeyDistributionServer kds;
  core::KdsService kds_service;
  core::KdsService kds_mirror_service;
  pki::AcmeIssuer acme;
  core::Browser browser;
  imagebuild::PackageRegistry registry;
  imagebuild::VmImage image;
  sevsnp::Measurement expected_measurement;
  std::vector<std::unique_ptr<sevsnp::AmdSp>> platforms;
  std::vector<std::unique_ptr<core::RevelioVm>> nodes;
  std::unique_ptr<core::SpNode> sp;
  std::mutex mu;  // one lane drives the world at a time

 private:
  SimClock::Micros t0_ = 0;
};

/// `count` worlds built from one seed.
inline std::vector<std::unique_ptr<GatewayWorld>> build_worlds(
    std::size_t count, const std::string& seed) {
  std::vector<std::unique_ptr<GatewayWorld>> worlds;
  worlds.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    worlds.push_back(std::make_unique<GatewayWorld>(seed));
  }
  return worlds;
}

/// One engine run of gateway sessions over `worlds` (any world type with
/// a mutex `mu`, a `clock`, a `browser` and `registration()`). Each
/// session gets a fresh extension — fresh breakers and retry state, a new
/// browser profile — built from `config` plus the engine's shared caches,
/// and its staged pass lives in the session's slot across stages.
template <class World>
class GatewaySessions {
 public:
  /// `worlds` holds pointers or owning pointers; the worlds must outlive
  /// this object.
  template <class Worlds>
  GatewaySessions(const Worlds& worlds, std::size_t sessions,
                  core::WebExtensionConfig config)
      : config_(std::move(config)), slots_(sessions) {
    for (const auto& world : worlds) worlds_.push_back(&*world);
  }

  /// Session `index`'s extension registers a corrupted measurement, so its
  /// verdict fails policy.
  std::size_t bad_measurement_session = SIZE_MAX;

  std::size_t sessions() const { return slots_.size(); }
  core::TrackFn tracks() const {
    return [n = worlds_.size()](std::size_t i) { return i % n; };
  }

  /// The stage function: runs the stage session ctx.index is at inside
  /// its world (in_world), then checks a served page itself (accept).
  core::SessionState stage(core::StagedContext& ctx) {
    return in_world(ctx, [&](World& world) {
      Slot& slot = slots_[ctx.index];
      if (ctx.state == core::SessionState::kHandshake) {
        slot.ext = open(world, ctx);
        slot.pass = std::make_unique<core::WebExtension::StagedAttestation>(
            slot.ext->begin_session(kDomain, 443));
      }
      const core::SessionState next = slot.pass->step("/", ctx.failure);
      if (next != core::SessionState::kDone) return next;
      return accept(ctx, slot.pass->checks(), slot.pass->page().body);
    });
  }

  /// The batched-verify hook: one batch_verify_sessions pass over the
  /// wavefront. The engine only subsumes a track group whose every ready
  /// session is at verify, so no other lane holds these worlds and taking
  /// all their locks up front cannot contend. Verify is pure compute: no
  /// world clock advances, so stage_virt_ms stays 0 as in stage().
  core::BatchStageConfig batch_verify() {
    core::BatchStageConfig batching;
    batching.stage = core::SessionState::kVerify;
    batching.fn = [this](std::vector<core::StagedBatchItem>& items) {
      std::vector<World*> held;
      std::vector<core::WebExtension::StagedAttestation*> passes;
      for (const auto& item : items) {
        held.push_back(&world_of(item.ctx.index));
        passes.push_back(slots_[item.ctx.index].pass.get());
      }
      std::sort(held.begin(), held.end());
      held.erase(std::unique(held.begin(), held.end()), held.end());
      std::vector<std::unique_lock<std::mutex>> locks;
      for (World* world : held) locks.emplace_back(world->mu);
      const std::vector<Status> statuses = core::batch_verify_sessions(passes);
      for (std::size_t k = 0; k < items.size(); ++k) {
        items[k].next = statuses[k].ok() ? passes[k]->state()
                                         : core::SessionState::kFailed;
        items[k].ctx.failure = statuses[k];
      }
    };
    return batching;
  }

  /// Every session through stage(), optionally with the batched verify.
  core::SessionEngine::StagedReport run(
      core::SessionEngine& engine, const core::AdmissionConfig& admission = {},
      bool batched_verify = false) {
    return engine.run_staged(
        sessions(), [this](core::StagedContext& ctx) { return stage(ctx); },
        admission, tracks(),
        batched_verify ? batch_verify() : core::BatchStageConfig{});
  }

  /// Every session as ONE stage: the blocking WebExtension::get, handshake
  /// to verified page, with the world held throughout.
  core::SessionEngine::StagedReport run_blocking(core::SessionEngine& engine) {
    return engine.run_staged(sessions(), [this](core::StagedContext& ctx) {
      return in_world(ctx, [&](World& world) {
        auto verified = open(world, ctx)->get(kDomain, 443, "/");
        if (!verified.ok()) {
          ctx.failure = verified.error();
          return core::SessionState::kFailed;
        }
        return accept(ctx, verified->checks, verified->response.body);
      });
    });
  }

  /// Served pages whose checks were not all green (must stay 0); each
  /// fails its session with kUnverifiedAccepted.
  int unverified_accepts() const { return unverified_.load(); }
  /// Served pages with the wrong body (must stay 0).
  int wrong_bodies() const { return wrong_bodies_.load(); }
  /// The check that failed session `index`'s verdict, "" if none did.
  std::string failure_step(std::size_t index) const {
    const auto& pass = slots_[index].pass;
    return pass == nullptr ? "" : pass->checks().failure_step;
  }

 private:
  struct Slot {
    std::unique_ptr<core::WebExtension> ext;
    std::unique_ptr<core::WebExtension::StagedAttestation> pass;
  };

  World& world_of(std::size_t index) {
    return *worlds_[index % worlds_.size()];
  }

  /// A fresh extension for session ctx.index on its world's browser, over
  /// a fresh TLS session and the engine's shared caches.
  std::unique_ptr<core::WebExtension> open(World& world,
                                           const core::StagedContext& ctx) {
    world.browser.set_chain_cache(ctx.chain_cache);
    world.browser.drop_session(kDomain);
    core::WebExtensionConfig config = config_;
    config.shared_chain_cache = ctx.chain_cache;
    config.shared_vcek_cache = ctx.vcek_cache;
    config.audit_session_id = ctx.index;
    auto ext = std::make_unique<core::WebExtension>(world.browser, config);
    core::SiteRegistration site = world.registration();
    if (ctx.index == bad_measurement_session) {
      site.expected_measurements[0].data[0] ^= 0xff;
    }
    ext->register_site(kDomain, site);
    return ext;
  }

  /// Runs `body` with session ctx.index's world locked and its clock
  /// bound, and reports the world clock's delta as the stage's virtual
  /// time.
  template <class Body>
  core::SessionState in_world(core::StagedContext& ctx, Body&& body) {
    World& world = world_of(ctx.index);
    std::lock_guard<std::mutex> world_lock(world.mu);
    ScopedClockCurrent clock_scope(world.clock);
    const SimClock::Micros virt_start = world.clock.now_us();
    const core::SessionState next = body(world);
    ctx.stage_virt_ms =
        static_cast<double>(world.clock.now_us() - virt_start) / 1000.0;
    return next;
  }

  /// The harness's own fail-closed check of a served page, independent of
  /// the library's: every check green and the expected body.
  core::SessionState accept(core::StagedContext& ctx,
                            const core::AttestationChecks& checks,
                            const Bytes& body) {
    if (!checks.all_ok()) {
      unverified_.fetch_add(1);
      ctx.failure = Error::make(kUnverifiedAccepted);
      return core::SessionState::kFailed;
    }
    if (to_string(body) != kBody) {
      wrong_bodies_.fetch_add(1);
      ctx.failure = Error::make("gateway.body_mismatch");
      return core::SessionState::kFailed;
    }
    return core::SessionState::kDone;
  }

  core::WebExtensionConfig config_;
  std::vector<World*> worlds_;
  std::vector<Slot> slots_;
  std::atomic<int> unverified_{0};
  std::atomic<int> wrong_bodies_{0};
};

}  // namespace revelio::gateway
