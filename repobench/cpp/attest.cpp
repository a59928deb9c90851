// attest_warm and attest_cold: end users attesting a Revelio deployment
// through the staged web extension, driven by SessionEngine::run_staged.
//
// Load model: a closed population per round. run_staged admits every
// session of a round at virtual t=0 and the round ends when the last one
// finishes. There is no open-loop arrival sweep: the virtual clock charges
// no CPU time, so an arrival rate in virtual time cannot saturate anything.
// Capacity is reported as verified sessions per process CPU-second, the
// arrival rate one core sustains.
//
// Every world is one single-threaded deployment (KDS, attested VM, SP node,
// browsers). Sessions of one world share a track, so the engine never runs
// them concurrently. Links carry the paper's observed RTTs (client-service
// 5.2 ms, client-KDS 427.3 ms) and every browser pays the paper's 14 ms
// connection check per monitored request. The seed names the chips and
// draws the page body.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/hex.hpp"
#include "crypto/ec.hpp"
#include "crypto/ec_precomp.hpp"
#include "crypto/sha2.hpp"
#include "imagebuild/builder.hpp"
#include "obs/audit_log.hpp"
#include "obs/audit_store.hpp"
#include "obs/metrics.hpp"
#include "revelio/revelio_vm.hpp"
#include "revelio/revocation.hpp"
#include "revelio/session_engine.hpp"
#include "revelio/sp_node.hpp"
#include "revelio/web_extension.hpp"
#include "store/kv_store.hpp"
#include "store/storage_env.hpp"
#include "vm/hypervisor.hpp"

namespace repobench {

namespace {

using namespace revelio;

constexpr const char* kDomain = "svc.revelio.app";
constexpr const char* kKdsHost = "kds.amd.com";
constexpr const char* kServiceHost = "10.0.0.1";
constexpr double kKdsOneWayMs = 213.65;  // paper: 427.3 ms RTT
constexpr double kConnectionCheckMs = 14.0;  // paper: 115.0 - 100.9 ms

// Stage slots of one session's CPU ledger. kOpen is the WebExtension and
// StagedAttestation construction that precedes the handshake call.
enum StageSlot { kOpen, kHandshake, kEvidence, kKds, kVerify, kPage, kSlots };
constexpr std::array<const char*, kSlots> kStageName = {
    "open", "handshake", "evidence", "kds", "verify", "page"};
constexpr std::array<const char*, kSlots> kSpanName = {
    "revelio.open",  "revelio.handshake", "revelio.evidence",
    "revelio.kds",   "revelio.verify",    "revelio.page"};

struct ServiceImage {
  imagebuild::VmImage image;
  sevsnp::Measurement measurement;
};

ServiceImage build_service_image() {
  imagebuild::PackageRegistry registry;
  imagebuild::BaseImage base;
  base.name = "ubuntu";
  base.tag = "20.04";
  base.packages = {{"nginx", "1.18",
                    {{"/usr/sbin/nginx",
                      to_bytes(std::string_view("nginx-binary"))}}}};
  imagebuild::BuildInputs inputs;
  inputs.base_image_digest = registry.publish(base);
  inputs.service_files["/usr/local/bin/app"] =
      to_bytes(std::string_view("service-binary-v1"));
  inputs.initrd.services = {{"app", "/usr/local/bin/app", 300.0}};
  inputs.initrd.allowed_inbound_ports = {"443", "8443"};
  auto built = imagebuild::ImageBuilder(registry).build(inputs);
  if (!built.ok()) {
    std::fprintf(stderr, "image build failed: %s\n",
                 built.error().to_string().c_str());
    std::exit(1);
  }
  ServiceImage out;
  out.image = *built;
  out.measurement = vm::Hypervisor::expected_measurement(
      out.image.kernel_blob, out.image.initrd_blob, out.image.cmdline);
  return out;
}

/// One complete deployment: its own AMD KDS, a Revelio VM on one chip, the
/// SP node that provisioned it, and `clients` visiting browsers. Worlds
/// built from one chip seed are byte-identical replicas.
struct World {
  World(const std::string& chip_seed, const ServiceImage& service,
        const std::string& body, std::size_t clients)
      : network(clock),
        world_drbg(to_bytes("repobench-world-" + chip_seed)),
        kds(world_drbg),
        kds_service(kds, network, {kKdsHost, 443}),
        acme(clock, world_drbg),
        measurement(service.measurement) {
    net::HttpRouter routes;
    routes.route("GET", "/", [body](const net::HttpRequest&) {
      return net::HttpResponse::ok(to_bytes(body), "text/html");
    });
    platform = std::make_unique<sevsnp::AmdSp>(
        to_bytes("platform-" + chip_seed), sevsnp::TcbVersion{2, 0, 8, 115});
    kds.register_platform(*platform);
    core::RevelioVmConfig config;
    config.domain = kDomain;
    config.host = kServiceHost;
    config.image = service.image;
    config.kds_address = {kKdsHost, 443};
    auto deployed = core::RevelioVm::deploy(*platform, network, config, routes);
    if (!deployed.ok()) {
      std::fprintf(stderr, "deploy failed: %s\n",
                   deployed.error().to_string().c_str());
      std::exit(1);
    }
    node = std::move(*deployed);

    core::SpNodeConfig sp_config;
    sp_config.domain = kDomain;
    sp_config.kds_address = {kKdsHost, 443};
    sp_config.expected_measurements = {measurement};
    sp = std::make_unique<core::SpNode>(network, acme, sp_config);
    sp->approve_node(node->bootstrap_address(), platform->chip_id());
    if (!sp->provision_fleet().ok()) {
      std::fprintf(stderr, "fleet provisioning failed\n");
      std::exit(1);
    }
    network.dns_set_a(kDomain, kServiceHost);

    // Client links are set after provisioning, so the SP's rounds keep the
    // default latency (which is the paper's client-service RTT).
    for (std::size_t c = 0; c < clients; ++c) {
      const std::string host = "client-" + std::to_string(c);
      network.set_link_latency_ms(host, kKdsHost, kKdsOneWayMs);
      browsers.push_back(std::make_unique<core::Browser>(
          network, host, acme.trusted_roots(),
          crypto::HmacDrbg(to_bytes("browser-" + chip_seed + "-" +
                                    std::to_string(c)))));
    }
  }

  core::SiteRegistration registration() const {
    core::SiteRegistration site;
    site.expected_measurements = {measurement};
    return site;
  }

  SimClock clock;
  net::Network network;
  crypto::HmacDrbg world_drbg;
  sevsnp::KeyDistributionServer kds;
  core::KdsService kds_service;
  pki::AcmeIssuer acme;
  sevsnp::Measurement measurement;
  std::unique_ptr<sevsnp::AmdSp> platform;
  std::unique_ptr<core::RevelioVm> node;
  std::unique_ptr<core::SpNode> sp;
  std::vector<std::unique_ptr<core::Browser>> browsers;
  std::mutex mu;  // one engine lane drives the world at a time
};

struct FleetSpec {
  const char* name;
  std::size_t worlds;
  std::size_t clients_per_world;
  bool distinct_chips;  // per-index chip seeds (else identical replicas)
  unsigned workers;
  bool batch_verify;
  bool durable;  // fresh engine + durable tier every round
};

/// The fresh durable tier of one attest_cold round.
struct DurableTier {
  std::unique_ptr<store::MemStorageEnv> env;
  std::unique_ptr<store::KvStore> kv;
  std::optional<obs::DurableAudit> audit;
  std::unique_ptr<RevocationSet> revocations;
};

/// Process-wide counters a round moves, read between rounds (no pool work
/// in flight).
using Counters = std::map<std::string, double>;

double counter_sum(const std::string& name) {
  double total = 0.0;
  for (const auto& [key, counter] : obs::metrics().counters()) {
    if (key == name || key.rfind(name + "{", 0) == 0) {
      total += static_cast<double>(counter.value());
    }
  }
  return total;
}

Counters read_counters() {
  Counters c;
  c["net.tls.handshakes"] = counter_sum("tls.handshake.count");
  c["net.http.requests"] = counter_sum("http.request.count");
  c["sevsnp.report_verifies"] = counter_sum("sevsnp.report_verify.result.count");
  c["crypto.batch.sigs"] = counter_sum("crypto.ecdsa_verify_batch.sigs");
  c["crypto.batch.fallbacks"] =
      counter_sum("crypto.ecdsa_verify_batch.fallback.count");
  const auto p256 = crypto::p256().verify_cache_stats();
  const auto p384 = crypto::p384().verify_cache_stats();
  c["crypto.verify_table.hits"] = static_cast<double>(p256.hits + p384.hits);
  c["crypto.verify_table.misses"] =
      static_cast<double>(p256.misses + p384.misses);
  const auto pinned = crypto::ecp::PinnedTableRegistry::instance().stats();
  c["crypto.pinned.hits"] = static_cast<double>(pinned.hits);
  c["crypto.pinned.misses"] = static_cast<double>(pinned.misses);
  return c;
}

/// Everything one round measured.
struct Round {
  core::SessionEngine::StagedReport report;
  double round_cpu_ms = 0.0;  // process CPU of the whole round
  double run_cpu_ms = 0.0;    // process CPU of run_staged
  std::vector<double> session_cpu_ms;
  std::array<std::vector<double>, kSlots> stage_cpu_ms;
  std::vector<bool> verified;  // reached kDone with every gate holding
  std::map<std::string, double> counts;  // per-round count metrics
  double store_recover_ms = 0.0;
  double audit_verify_ms = 0.0;
};

class Fleet {
 public:
  Fleet(const FleetSpec& spec, std::uint64_t seed, Ledger& ledger,
        Outcome& out)
      : spec_(spec), ledger_(ledger), out_(out) {
    const std::string seed_hex = std::to_string(seed);
    body_ = "<html>revelio page " +
            to_hex(crypto::sha256(to_bytes("page-" + seed_hex))).substr(0, 32) +
            "</html>";

    const PaceEpoch pace;
    const std::int64_t image_t0 = process_cpu_ns();
    service_ = build_service_image();
    const std::int64_t image_ns = process_cpu_ns() - image_t0;
    image_build_ms_ = image_ns / 1e6 * pace.scale();

    std::string inputs = body_;
    for (std::size_t w = 0; w < spec.worlds; ++w) {
      const std::string chip_seed =
          std::string(spec.name) + "-" + seed_hex +
          (spec.distinct_chips ? "-" + std::to_string(w) : std::string());
      inputs += "|" + chip_seed;
      worlds_.push_back(std::make_unique<World>(chip_seed, service_, body_,
                                                spec.clients_per_world));
    }
    inputs_digest_ = to_hex(crypto::sha256(to_bytes(inputs)));

    if (!spec.durable) {
      core::SessionEngineConfig config;
      config.workers = spec.workers;
      engine_ = std::make_unique<core::SessionEngine>(config);
    }
  }

  std::size_t sessions() const {
    return spec_.worlds * spec_.clients_per_world;
  }
  const std::string& inputs_digest() const { return inputs_digest_; }
  double image_build_ms() const { return image_build_ms_; }

  Round run_round(std::uint64_t round_index) {
    const PaceEpoch pace;
    const std::int64_t round_t0 = process_cpu_ns();
    Round round;
    DurableTier tier;
    std::unique_ptr<core::SessionEngine> fresh_engine;
    core::SessionEngine* engine = engine_.get();
    if (spec_.durable) {
      CpuTimer open_timer(ledger_, "store.open", kNoSession, 0);
      tier.env = std::make_unique<store::MemStorageEnv>();
      open_tier(tier);
      core::SessionEngineConfig config;
      config.workers = spec_.workers;
      config.audit_log = tier.audit->log.get();
      fresh_engine = std::make_unique<core::SessionEngine>(config);
      fresh_engine->chain_cache().attach_store(tier.kv.get());
      fresh_engine->vcek_cache().attach_store(tier.kv.get());
      engine = fresh_engine.get();
      open_timer.stop();
    }

    const std::size_t n = sessions();
    slots_.clear();
    slots_.resize(n);
    round_base_ = round_index * n;
    run_span_ = ledger_.enabled() ? ledger_.next_id() : 0;
    obs::AuditLog* audit = spec_.durable ? tier.audit->log.get() : nullptr;
    RevocationSet* revocations =
        spec_.durable ? tier.revocations.get() : nullptr;

    core::BatchStageConfig batching;
    if (spec_.batch_verify) {
      batching.stage = core::SessionState::kVerify;
      batching.fn = [this](std::vector<core::StagedBatchItem>& items) {
        batch_verify(items);
      };
    }

    const Counters before = read_counters();
    Span run_span;
    run_span.name = "revelio.engine";
    run_span.id = run_span_;
    run_span.process_clock = true;
    run_span.cpu_start_ns = process_cpu_ns();
    round.report = engine->run_staged(
        n,
        [&](core::StagedContext& ctx) {
          return stage(ctx, audit, revocations);
        },
        {}, [this](std::size_t i) { return i / spec_.clients_per_world; },
        batching);
    run_span.cpu_end_ns = process_cpu_ns();
    run_span.virt_end_us =
        static_cast<std::uint64_t>(std::llround(round.report.virt_makespan_ms * 1000.0));
    ledger_.record(run_span);
    round.run_cpu_ms = run_span.cpu_ms();
    const Counters after = read_counters();

    for (const auto& [name, value] : after) {
      round.counts[name] = value - before.at(name);
    }
    // The report carries the engine caches' lifetime totals; a persistent
    // engine (attest_warm) needs this round's share of them.
    const auto& vcek = round.report.vcek_stats;
    const auto& chain = round.report.chain_stats;
    const auto delta = [](std::uint64_t now, std::uint64_t& last) {
      const double d = static_cast<double>(now - last);
      last = now;
      return d;
    };
    if (spec_.durable) {  // a fresh engine every round
      last_vcek_ = {};
      last_chain_ = {};
    }
    round.counts["revelio.vcek.fetches"] = delta(vcek.fetches, last_vcek_.fetches);
    round.counts["revelio.vcek.coalesced"] =
        delta(vcek.coalesced, last_vcek_.coalesced);
    round.counts["revelio.vcek.hits"] = delta(vcek.hits, last_vcek_.hits);
    round.counts["revelio.vcek.store_hits"] =
        delta(vcek.store_hits, last_vcek_.store_hits);
    round.counts["pki.chain.hits"] = delta(chain.hits, last_chain_.hits);
    round.counts["pki.chain.misses"] = delta(chain.misses, last_chain_.misses);

    round.session_cpu_ms.resize(n);
    round.verified.resize(n);
    for (auto& v : round.stage_cpu_ms) v.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Slot& slot = slots_[i];
      round.session_cpu_ms[i] = 0.0;
      for (int s = 0; s < kSlots; ++s) {
        round.stage_cpu_ms[s][i] = slot.stage_ms[s];
        round.session_cpu_ms[i] += slot.stage_ms[s];
      }
      // kDone is only reached through the page stage's gates.
      round.verified[i] =
          round.report.final_states[i] == core::SessionState::kDone;
    }
    for (const auto& msg : take_gate_messages()) gate(msg);

    if (spec_.durable) close_round(tier, round);
    slots_.clear();
    const std::int64_t round_cpu_ns = process_cpu_ns() - round_t0;
    // Process CPU covers every worker, so it takes the pace of the whole
    // round; the stage calls above are already scaled per thread.
    const double scale = pace.scale();
    round.round_cpu_ms = round_cpu_ns / 1e6 * scale;
    round.run_cpu_ms *= scale;
    return round;
  }

 private:
  struct Slot {
    std::unique_ptr<core::WebExtension> ext;
    std::unique_ptr<core::WebExtension::StagedAttestation> staged;
    std::array<double, kSlots> stage_ms{};
  };

  void gate(const std::string& msg) { add_gate_failure(out_, msg); }

  void gate_async(const std::string& msg) {
    std::lock_guard<std::mutex> lock(gate_mu_);
    gate_messages_.push_back(msg);
  }

  std::vector<std::string> take_gate_messages() {
    std::vector<std::string> taken;
    std::lock_guard<std::mutex> lock(gate_mu_);
    taken.swap(gate_messages_);
    return taken;
  }

  void open_tier(DurableTier& tier) {
    auto kv = store::KvStore::open(*tier.env);
    if (!kv.ok()) die("KvStore::open", kv.error());
    tier.kv = std::move(*kv);
    auto audit = obs::open_durable_audit(*tier.kv);
    if (!audit.ok()) die("open_durable_audit", audit.error());
    tier.audit = std::move(*audit);
    auto revocations = RevocationSet::open(*tier.kv);
    if (!revocations.ok()) die("RevocationSet::open", revocations.error());
    tier.revocations = std::move(*revocations);
  }

  [[noreturn]] static void die(const char* what, const Error& error) {
    std::fprintf(stderr, "%s failed: %s\n", what, error.to_string().c_str());
    std::exit(1);
  }

  /// End of an attest_cold round: restart the store from its environment
  /// and re-verify the audit chain it persisted.
  void close_round(DurableTier& tier, Round& round) {
    const std::uint64_t write_failures =
        round.report.vcek_stats.store_write_failures +
        round.report.chain_stats.store_write_failures +
        tier.audit->log->sink_failures();
    tier.revocations.reset();
    tier.audit.reset();
    tier.kv.reset();

    CpuTimer recover(ledger_, "store.recover", kNoSession, 0);
    auto reopened = store::KvStore::open(*tier.env);
    round.store_recover_ms = recover.stop();
    if (!reopened.ok()) {
      gate("store reopen failed: " + reopened.error().to_string());
      return;
    }
    round.counts["store.wal_frames"] =
        static_cast<double>((*reopened)->recovery().wal_frames_replayed);
    round.counts["store.write_failures"] = static_cast<double>(write_failures);

    auto stream = obs::load_audit_stream(**reopened);
    if (!stream.ok()) {
      gate("audit stream load failed: " + stream.error().to_string());
      return;
    }
    CpuTimer verify(ledger_, "obs.audit.verify", kNoSession, 0);
    const auto verified = obs::AuditLog::verify(*stream);
    round.audit_verify_ms = verify.stop();
    if (!verified.ok()) {
      gate("audit chain failed verify: " + verified.error().to_string());
      return;
    }
    round.counts["obs.audit.records"] =
        static_cast<double>(verified->records);
  }

  core::SessionState stage(core::StagedContext& ctx, obs::AuditLog* audit,
                           RevocationSet* revocations) {
    const std::size_t w = ctx.index / spec_.clients_per_world;
    const std::size_t c = ctx.index % spec_.clients_per_world;
    World& world = *worlds_[w];
    std::lock_guard<std::mutex> world_lock(world.mu);
    ScopedClockCurrent clock_scope(world.clock);
    const std::uint64_t virt_start = world.clock.now_us();
    Slot& slot = slots_[ctx.index];
    const std::uint64_t session = round_base_ + ctx.index;
    const auto finish = [&](core::SessionState next) {
      ctx.stage_virt_ms =
          static_cast<double>(world.clock.now_us() - virt_start) / 1000.0;
      return next;
    };
    const auto fail = [&](Error error) {
      ctx.failure = std::move(error);
      return finish(core::SessionState::kFailed);
    };
    const auto timed = [&](StageSlot s, auto&& call) {
      CpuTimer timer(ledger_, kSpanName[s], session, run_span_,
                     world.clock.now_us());
      auto result = call();
      slot.stage_ms[s] += timer.stop(world.clock.now_us());
      return result;
    };

    switch (ctx.state) {
      case core::SessionState::kHandshake: {
        core::Browser& browser = *world.browsers[c];
        timed(kOpen, [&] {
          browser.set_chain_cache(ctx.chain_cache);
          browser.drop_session(kDomain);
          core::WebExtensionConfig config;
          config.kds_address = {kKdsHost, 443};
          config.connection_check_overhead_ms = kConnectionCheckMs;
          config.shared_chain_cache = ctx.chain_cache;
          config.shared_vcek_cache = ctx.vcek_cache;
          config.audit_log = audit;
          config.audit_session_id = ctx.index;
          config.revocation_set = revocations;
          slot.ext = std::make_unique<core::WebExtension>(browser, config);
          slot.ext->register_site(kDomain, world.registration());
          slot.staged = std::make_unique<core::WebExtension::StagedAttestation>(
              slot.ext->begin_session(kDomain, 443));
          return 0;
        });
        auto st = timed(kHandshake, [&] { return slot.staged->handshake(); });
        if (!st.ok()) return fail(st.error());
        return finish(core::SessionState::kEvidenceFetch);
      }
      case core::SessionState::kEvidenceFetch: {
        auto st = timed(kEvidence, [&] { return slot.staged->fetch_evidence(); });
        if (!st.ok()) return fail(st.error());
        return finish(core::SessionState::kKdsFetch);
      }
      case core::SessionState::kKdsFetch: {
        auto st = timed(kKds, [&] { return slot.staged->fetch_kds(); });
        if (!st.ok()) return fail(st.error());
        return finish(core::SessionState::kVerify);
      }
      case core::SessionState::kVerify: {
        auto st = timed(kVerify, [&] { return slot.staged->verify(); });
        if (!st.ok()) return fail(st.error());
        return finish(core::SessionState::kPageFetch);
      }
      case core::SessionState::kPageFetch: {
        auto page = timed(kPage, [&] { return slot.staged->fetch_page("/"); });
        if (!page.ok()) return fail(page.error());
        if (!slot.staged->checks().all_ok()) {
          gate_async("session " + std::to_string(ctx.index) +
                     " accepted without all six checks");
          return fail(Error::make("bench.unverified_accept"));
        }
        if (to_string(page->body) != body_) {
          gate_async("session " + std::to_string(ctx.index) +
                     " page body mismatch");
          return fail(Error::make("bench.body_mismatch"));
        }
        return finish(core::SessionState::kDone);
      }
      default:
        return fail(Error::make("bench.unexpected_state"));
    }
  }

  /// Batched verify: one batch_verify_sessions pass over the wavefront.
  /// Every world in the batch belongs to this pool task alone (the engine
  /// only batches a track whose ready sessions all sit at verify), so
  /// taking their locks cannot contend.
  void batch_verify(std::vector<core::StagedBatchItem>& items) {
    std::vector<World*> held;
    for (const auto& item : items) {
      held.push_back(worlds_[item.ctx.index / spec_.clients_per_world].get());
    }
    std::sort(held.begin(), held.end());
    held.erase(std::unique(held.begin(), held.end()), held.end());
    std::vector<std::unique_lock<std::mutex>> locks;
    for (World* world : held) locks.emplace_back(world->mu);

    std::vector<core::WebExtension::StagedAttestation*> staged;
    for (const auto& item : items) {
      staged.push_back(slots_[item.ctx.index].staged.get());
    }
    CpuTimer timer(ledger_, kSpanName[kVerify], kNoSession, run_span_);
    const auto statuses = core::batch_verify_sessions(staged);
    const double share = timer.stop() / static_cast<double>(items.size());
    for (std::size_t k = 0; k < items.size(); ++k) {
      slots_[items[k].ctx.index].stage_ms[kVerify] += share;
      if (statuses[k].ok()) {
        items[k].next = core::SessionState::kPageFetch;
      } else {
        items[k].ctx.failure = statuses[k];
        items[k].next = core::SessionState::kFailed;
      }
    }
  }

  FleetSpec spec_;
  Ledger& ledger_;
  Outcome& out_;
  std::string body_;
  ServiceImage service_;
  double image_build_ms_ = 0.0;
  std::string inputs_digest_;
  std::vector<std::unique_ptr<World>> worlds_;
  std::unique_ptr<core::SessionEngine> engine_;  // persists (attest_warm)
  std::vector<Slot> slots_;
  std::uint64_t round_base_ = 0;
  std::uint64_t run_span_ = 0;
  core::VcekCache::Stats last_vcek_;
  pki::ChainVerificationCache::Stats last_chain_;
  std::mutex gate_mu_;
  std::vector<std::string> gate_messages_;
};

/// Aggregates timed rounds into the metric table. Every timed round runs
/// the same sessions, so each stage call of session slot i is one repeated
/// unit of work; per-unit figures are medians over the rounds.
struct Tally {
  std::size_t rounds = 0;
  std::size_t attempted = 0;
  std::size_t verified = 0;
  std::array<RepeatedCosts, kSlots> stage;  // per session slot, ms
  RepeatedCosts session;                    // per session slot, ms
  // Per session slot: virtual time to the verified page plus the session's
  // own CPU, the latency a browser on an otherwise idle core would see.
  RepeatedCosts ready;
  RepeatedCosts engine_self;  // run_staged minus its stage calls, per round
  std::vector<double> round_per_cpu_s;  // verified sessions / round CPU
  std::vector<double> ready_virt_ms;    // every verified session
  std::array<double, kSlots> wait_total{};
  std::array<double, kSlots> wait_count{};
  std::map<std::string, double> counts;  // first timed round
  RepeatedCosts recover_ms;
  RepeatedCosts audit_verify_ms;

  void add(const Round& r, std::vector<std::string>& varied) {
    if (rounds == 0) {
      counts = r.counts;
    } else {
      for (const auto& [name, value] : r.counts) {
        if (counts[name] != value &&
            std::find(varied.begin(), varied.end(), name) == varied.end()) {
          varied.push_back(name);
        }
      }
    }
    ++rounds;
    attempted += r.report.sessions;
    double stage_calls_ms = 0.0;
    std::size_t round_verified = 0;
    for (std::size_t i = 0; i < r.verified.size(); ++i) {
      stage_calls_ms += r.session_cpu_ms[i];
      if (!r.verified[i]) continue;
      ++round_verified;
      ready_virt_ms.push_back(r.report.session_virt_ms[i]);
      ready.observe(i, r.report.session_virt_ms[i] + r.session_cpu_ms[i]);
      session.observe(i, r.session_cpu_ms[i]);
      for (int s = 0; s < kSlots; ++s) stage[s].observe(i, r.stage_cpu_ms[s][i]);
    }
    verified += round_verified;
    if (r.round_cpu_ms > 0.0) {
      round_per_cpu_s.push_back(static_cast<double>(round_verified) /
                                (r.round_cpu_ms / 1e3));
    }
    engine_self.observe(0, std::max(0.0, r.run_cpu_ms - stage_calls_ms));
    for (const auto& row : r.report.stage_breakdown) {
      const int s = slot_of(row.stage);
      if (s < 0) continue;
      wait_total[s] += row.wait_total_ms;
      wait_count[s] += static_cast<double>(row.count);
    }
    if (r.store_recover_ms > 0.0) recover_ms.observe(0, r.store_recover_ms);
    if (r.audit_verify_ms > 0.0) audit_verify_ms.observe(0, r.audit_verify_ms);
  }

  static int slot_of(core::SessionState state) {
    switch (state) {
      case core::SessionState::kHandshake: return kHandshake;
      case core::SessionState::kEvidenceFetch: return kEvidence;
      case core::SessionState::kKdsFetch: return kKds;
      case core::SessionState::kVerify: return kVerify;
      case core::SessionState::kPageFetch: return kPage;
      default: return -1;
    }
  }

  /// Verified sessions per process CPU-second of a round, median over rounds.
  double per_cpu_s() const { return percentile(round_per_cpu_s, 0.5); }
};

Outcome run_attest(const FleetSpec& spec, const Options& opt, Ledger& ledger) {
  Outcome out;
  init_layers(out);

  // Set-up is the image and world build plus one untimed warm-up round,
  // which fills the process-wide verify tables (and, for attest_warm, the
  // engine's VCEK and chain caches).
  std::uint64_t round_index = 0;
  std::unique_ptr<Fleet> fleet;
  const double setup_s = median_setup_s(
      [&] { fleet.reset(); },
      [&] {
        fleet = std::make_unique<Fleet>(spec, opt.seed, ledger, out);
        (void)fleet->run_round(round_index++);
      });
  out.inputs_digest = fleet->inputs_digest();
  const double rss_after_setup = current_rss_mib();

  // Peak memory is read after this many timed rounds (2048 sessions).
  constexpr std::size_t kRssRounds = 16;
  Tally untraced;
  Tally traced;
  std::vector<std::string> varied;
  const double want_fetches = spec.durable ? static_cast<double>(spec.worlds) : 0.0;
  const LoopResult loop =
      timed_loop(opt, ledger, kRssRounds, untraced, traced, [&](Tally& tally) {
        const Round r = fleet->run_round(round_index++);
        tally.add(r, varied);
        const double fetches = r.counts.at("revelio.vcek.fetches");
        if (fetches != want_fetches) {
          add_gate_failure(out, std::string(spec.name) + " round with " +
                                    std::to_string(fetches) +
                                    " KDS fetches, want " +
                                    std::to_string(want_fetches));
        }
      });

  const Tally& t = opt.trace ? traced : untraced;
  out.attempted = untraced.attempted + traced.attempted;
  out.failed = out.attempted - untraced.verified - traced.verified;

  const std::vector<double> session_ms = t.session.values();
  const std::vector<double> ready_ms = t.ready.values();
  out.end_to_end["work_per_cpu_s"] = {t.per_cpu_s(), "1/s"};
  out.end_to_end["work_cpu_us_mean"] = {mean(session_ms) * 1e3, "us"};
  out.end_to_end["work_cpu_us_p90"] = {percentile(session_ms, 0.9) * 1e3, "us"};
  out.end_to_end["ready_ms_p50"] = {percentile(ready_ms, 0.5), "ms"};
  out.end_to_end["ready_ms_p90"] = {percentile(ready_ms, 0.9), "ms"};
  out.end_to_end["peak_rss_mib"] = {loop.peak_rss_mib, "MiB"};
  out.end_to_end["setup_s"] = {setup_s, "s"};
  out.named["sessions_per_cpu_s"] = {t.per_cpu_s(), "1/s"};
  out.named["session_cpu_ms_p50"] = {percentile(session_ms, 0.5), "ms"};
  out.named["session_cpu_ms_p99"] = {percentile(session_ms, 0.99), "ms"};
  out.named["verified_page_ms_p50"] = {percentile(t.ready_virt_ms, 0.5), "ms"};
  out.named["verified_page_ms_p99"] = {percentile(t.ready_virt_ms, 0.99), "ms"};
  for (const char* name : {"verified_page_ms_p50", "verified_page_ms_p99"}) {
    out.fingerprint[name] = out.named[name].value;
  }

  double stages_ms = 0.0;
  for (const auto& stage : t.stage) stages_ms += stage.sum();
  for (int s = 0; s < kSlots; ++s) {
    const std::string prefix = std::string("revelio.") + kStageName[s];
    set_layer(out, prefix + ".cpu_ms", percentile(t.stage[s].values(), 0.5));
    set_layer(out, prefix + ".cpu_share",
              stages_ms > 0.0 ? t.stage[s].sum() / stages_ms : 0.0);
    if (s != kOpen) {
      set_layer(out, prefix + ".wait_virt_ms",
                t.wait_count[s] > 0.0 ? t.wait_total[s] / t.wait_count[s] : 0.0);
    }
  }
  // Engine self time: run_staged's process CPU minus every stage call in
  // it (common/event_loop, common/parallel dispatch, transcript digest).
  const double engine_self_ms = t.engine_self.sum();
  set_layer(out, "revelio.engine.self_cpu_ms",
            engine_self_ms / static_cast<double>(fleet->sessions()));
  set_layer(out, "revelio.engine.self_share",
            engine_self_ms + stages_ms > 0.0
                ? engine_self_ms / (engine_self_ms + stages_ms)
                : 0.0);

  for (const char* name :
       {"revelio.vcek.fetches", "revelio.vcek.coalesced", "revelio.vcek.hits",
        "revelio.vcek.store_hits", "pki.chain.hits", "pki.chain.misses",
        "net.tls.handshakes", "net.http.requests", "sevsnp.report_verifies",
        "crypto.verify_table.hits", "crypto.verify_table.misses",
        "crypto.pinned.hits", "crypto.pinned.misses", "crypto.batch.sigs",
        "crypto.batch.fallbacks"}) {
    set_layer(out, name, t.counts.count(name) ? t.counts.at(name) : 0.0);
  }
  if (spec.durable) {
    for (const char* name :
         {"store.wal_frames", "store.write_failures", "obs.audit.records"}) {
      set_layer(out, name, t.counts.count(name) ? t.counts.at(name) : 0.0);
    }
    set_layer(out, "store.recover.cpu_ms", t.recover_ms.sum());
    set_layer(out, "obs.audit.verify.cpu_ms", t.audit_verify_ms.sum());
  }
  const auto ratio = [&](const char* hit, std::initializer_list<const char*> all) {
    double total = 0.0;
    for (const char* name : all) total += t.counts.count(name) ? t.counts.at(name) : 0.0;
    return total > 0.0 ? (t.counts.count(hit) ? t.counts.at(hit) : 0.0) / total
                       : 0.0;
  };
  set_layer(out, "revelio.vcek.hit_ratio",
            ratio("revelio.vcek.hits",
                  {"revelio.vcek.hits", "revelio.vcek.fetches",
                   "revelio.vcek.coalesced", "revelio.vcek.store_hits"}));
  set_layer(out, "pki.chain.hit_ratio",
            ratio("pki.chain.hits", {"pki.chain.hits", "pki.chain.misses"}));
  set_layer(out, "imagebuild.build.cpu_ms", fleet->image_build_ms());
  set_layer(out, "mem.rss_growth_kib_per_unit",
            (current_rss_mib() - rss_after_setup) * 1024.0 /
                static_cast<double>(std::max<std::size_t>(1, out.attempted)));

  if (opt.trace) {
    set_ledger_layers(out, ledger, loop.traced_cpu_ms, untraced.per_cpu_s(),
                      traced.per_cpu_s());
  }
  out.varied = varied;
  return out;
}

}  // namespace

Outcome run_attest_warm(const Options& opt, Ledger& ledger) {
  // Returning visitors to one deployment: identical-seed replicas (one
  // chip, one service), caches warm, batched verify, 2 engine workers.
  const FleetSpec spec{"attest_warm", 32, 4, false, 2, true, false};
  return run_attest(spec, opt, ledger);
}

Outcome run_attest_cold(const Options& opt, Ledger& ledger) {
  // First visits to a 32-chip fleet: 96 distinct P-384 keys (ARK, ASK and
  // VCEK per chip) against the 64-entry verify-table LRU plus 16 pins, a
  // fresh engine and durable tier per round, per-session verify, 1 worker,
  // 4 browsers per chip. 32 chips rather than more keep a round short
  // enough that each session slot repeats some twenty times in a run.
  const FleetSpec spec{"attest_cold", 32, 4, true, 1, false, true};
  return run_attest(spec, opt, ledger);
}

}  // namespace repobench
