// Batch crypto layer: ecdsa_verify_batch vs N single verifies (bit for
// bit, including the fail-closed offender fallback), the pinned
// verify-table registry under threads, and the batched verify stage end
// to end — a staged gateway wavefront through ONE batch dispatch must
// reproduce the unbatched transcript digest exactly, and a bad session
// inside a batched wavefront must land as a rejection in the
// tamper-evident audit chain and as a verdict in its own flight ring, on
// the engine's time base.
// Labelled `batchcrypto`; runs tier-1 and under the asan/tsan presets.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "crypto/cpu_features.hpp"
#include "crypto/drbg.hpp"
#include "crypto/ec_precomp.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/sha2.hpp"
#include "imagebuild/builder.hpp"
#include "obs/audit_log.hpp"
#include "revelio/revelio_vm.hpp"
#include "revelio/session_engine.hpp"
#include "revelio/sp_node.hpp"
#include "revelio/web_extension.hpp"
#include "sevsnp/amd_sp.hpp"
#include "sevsnp/kds.hpp"
#include "vm/hypervisor.hpp"

namespace revelio::core {
namespace {

using crypto::HmacDrbg;

// ---------------------------------------------------------------------------
// ecdsa_verify_batch vs singles

std::vector<crypto::EcdsaBatchItem> make_batch(const crypto::Curve& curve,
                                               std::size_t n,
                                               std::string_view seed,
                                               std::size_t signer_keys = 4) {
  HmacDrbg drbg(to_bytes(seed));
  std::vector<crypto::EcKeyPair> keys;
  for (std::size_t i = 0; i < signer_keys; ++i) {
    keys.push_back(crypto::ec_generate(curve, drbg));
  }
  std::vector<crypto::EcdsaBatchItem> items(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& kp = keys[i % keys.size()];
    const auto hash = crypto::sha384(drbg.generate(100));
    items[i].pub = kp.q;
    append(items[i].msg_hash, hash.view());
    items[i].sig = crypto::ecdsa_sign(curve, kp.d, hash.view());
  }
  return items;
}

std::vector<bool> verify_singly(const crypto::Curve& curve,
                                const std::vector<crypto::EcdsaBatchItem>& v) {
  std::vector<bool> out;
  out.reserve(v.size());
  for (const auto& item : v) {
    out.push_back(
        crypto::ecdsa_verify(curve, item.pub, item.msg_hash, item.sig));
  }
  return out;
}

class BatchEcdsa : public ::testing::TestWithParam<const crypto::Curve*> {
 protected:
  const crypto::Curve& curve() const { return *GetParam(); }
};

TEST_P(BatchEcdsa, BatchVerdictsMatchSinglesOnValidBatch) {
  auto items = make_batch(curve(), 64, "batch-valid");
  EXPECT_EQ(crypto::ecdsa_verify_batch(curve(), items),
            verify_singly(curve(), items));
}

TEST_P(BatchEcdsa, EmptyAndSingleItemBatches) {
  EXPECT_TRUE(crypto::ecdsa_verify_batch(curve(), {}).empty());
  auto one = make_batch(curve(), 1, "batch-one", 1);
  EXPECT_EQ(crypto::ecdsa_verify_batch(curve(), one),
            std::vector<bool>{true});
}

TEST_P(BatchEcdsa, OneForgedSignatureInSixtyFourIsIdentifiedExactly) {
  auto items = make_batch(curve(), 64, "batch-forged");
  // Perturb one s; the combined equation collapses, the fallback must
  // pin the failure on exactly this index.
  crypto::add_with_carry(items[23].sig.s, items[23].sig.s,
                         crypto::U384::from_u64(1));
  const auto verdicts = crypto::ecdsa_verify_batch(curve(), items);
  ASSERT_EQ(verdicts.size(), 64u);
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    EXPECT_EQ(verdicts[i], i != 23) << "index " << i;
  }
  EXPECT_EQ(verdicts, verify_singly(curve(), items));
}

TEST_P(BatchEcdsa, WrongMessageInBatchIsIdentifiedExactly) {
  auto items = make_batch(curve(), 32, "batch-wrong-msg");
  items[7].msg_hash[0] ^= 0x01;
  const auto verdicts = crypto::ecdsa_verify_batch(curve(), items);
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    EXPECT_EQ(verdicts[i], i != 7) << "index " << i;
  }
  EXPECT_EQ(verdicts, verify_singly(curve(), items));
}

TEST_P(BatchEcdsa, HighSTwinFallsBackToSinglesAndStillVerifies) {
  // (r, n-s) verifies identically in single verification but its nonce
  // point has odd y, which lift_x_even cannot represent — the batch
  // equation fails and the fail-closed fallback must ACCEPT the twin.
  auto items = make_batch(curve(), 8, "batch-twin");
  crypto::U384 twin;
  crypto::sub_with_borrow(twin, curve().params().n, items[3].sig.s);
  items[3].sig.s = twin;
  ASSERT_TRUE(crypto::ecdsa_verify(curve(), items[3].pub, items[3].msg_hash,
                                   items[3].sig));
  const auto verdicts = crypto::ecdsa_verify_batch(curve(), items);
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    EXPECT_TRUE(verdicts[i]) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Curves, BatchEcdsa,
                         ::testing::Values(&crypto::p256(), &crypto::p384()));

// ---------------------------------------------------------------------------
// Pinned verify-table registry under threads

TEST(PinnedTables, RegistryServesConcurrentVerifiers) {
  const crypto::Curve& curve = crypto::p384();
  HmacDrbg drbg(to_bytes(std::string_view("pinned-threads")));
  const auto kp = crypto::ec_generate(curve, drbg);
  const auto hash = crypto::sha384(drbg.generate(64));
  const auto sig = crypto::ecdsa_sign(curve, kp.d, hash.view());

  curve.pin_verify_tables(kp.q);
  const auto before = crypto::ecp::PinnedTableRegistry::instance().stats();

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        if (!crypto::ecdsa_verify(curve, kp.q, hash.view(), sig)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  const auto after = crypto::ecp::PinnedTableRegistry::instance().stats();
  EXPECT_GE(after.pinned, 1u);
  EXPECT_GE(after.hits, before.hits + 32);
}

// ---------------------------------------------------------------------------
// sevsnp split verify: one forged report in a batch

TEST(SevsnpBatchVerify, ForgedReportAmongSixtyFourIsTheOnlyRejection) {
  HmacDrbg drbg(to_bytes(std::string_view("sevsnp-batch")));
  sevsnp::KeyDistributionServer kds(drbg);
  const sevsnp::TcbVersion tcb{2, 0, 8, 115};
  sevsnp::AmdSp platform(to_bytes(std::string_view("sevsnp-batch-sp")), tcb);
  kds.register_platform(platform);
  ASSERT_TRUE(platform.launch_start(0x30000).ok());
  ASSERT_TRUE(platform.launch_update(to_bytes(std::string_view("guest"))).ok());
  ASSERT_TRUE(platform.launch_finish().ok());
  auto vcek = kds.fetch_vcek(platform.chip_id(), tcb);
  ASSERT_TRUE(vcek.ok());

  constexpr std::size_t kReports = 64;
  constexpr std::size_t kForged = 41;
  std::vector<sevsnp::AttestationReport> reports;
  for (std::size_t i = 0; i < kReports; ++i) {
    sevsnp::ReportData data;
    data.data[0] = static_cast<std::uint8_t>(i);
    auto report = platform.get_report(data);
    ASSERT_TRUE(report.ok());
    reports.push_back(std::move(*report));
  }
  reports[kForged].signature[10] ^= 0x40;

  sevsnp::ReportVerifyOptions options;
  options.minimum_tcb = tcb;
  std::vector<crypto::EcdsaBatchItem> items(kReports);
  for (std::size_t i = 0; i < kReports; ++i) {
    auto prepared = sevsnp::prepare_report_verify(
        reports[i], *vcek, kds.intermediates(), kds.trusted_roots(), options);
    ASSERT_TRUE(prepared.ok()) << "report " << i;
    items[i].pub = prepared->vcek_pub;
    append(items[i].msg_hash, prepared->digest.view());
    items[i].sig = prepared->signature;
  }
  const auto verdicts = crypto::ecdsa_verify_batch(crypto::p384(), items);
  for (std::size_t i = 0; i < kReports; ++i) {
    const Status st =
        sevsnp::finish_report_verify(reports[i], verdicts[i], options);
    if (i == kForged) {
      ASSERT_FALSE(st.ok());
      EXPECT_EQ(st.error().code, "snp.signature_invalid");
      // The split halves must report the same error the blocking path does.
      const Status blocking = sevsnp::verify_report(
          reports[i], *vcek, kds.intermediates(), kds.trusted_roots(),
          options);
      ASSERT_FALSE(blocking.ok());
      EXPECT_EQ(st.error().code, blocking.error().code);
    } else {
      EXPECT_TRUE(st.ok()) << "report " << i << ": "
                           << st.error().to_string();
    }
  }
}

// ---------------------------------------------------------------------------
// Staged gateway end to end: batched wavefront vs per-session dispatch

constexpr const char* kDomain = "svc.revelio.app";
constexpr const char* kKdsPrimary = "kds.amd.com";
constexpr const char* kBody = "<html>app</html>";

/// Trimmed copy of the session-engine test fixture: one complete simulated
/// deployment per world, single-threaded by design (a session locks the
/// world and binds its clock for the duration of a stage).
struct GatewayWorld {
  explicit GatewayWorld(const std::string& seed)
      : network(clock),
        world_drbg(to_bytes("batch-gateway-" + seed)),
        kds(world_drbg),
        kds_service(kds, network, {kKdsPrimary, 443}),
        acme(clock, world_drbg),
        browser(network, "laptop", acme.trusted_roots(),
                HmacDrbg(to_bytes("browser-" + seed))) {
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
    inputs.initrd.services = {{"app", "/opt/service/app", 300.0}};
    inputs.initrd.allowed_inbound_ports = {"443", "8443"};
    imagebuild::ImageBuilder builder(registry);
    auto built = builder.build(inputs);
    EXPECT_TRUE(built.ok());
    image = *built;
    expected_measurement = vm::Hypervisor::expected_measurement(
        image.kernel_blob, image.initrd_blob, image.cmdline);

    net::HttpRouter routes;
    routes.route("GET", "/", [](const net::HttpRequest&) {
      return net::HttpResponse::ok(to_bytes(std::string_view(kBody)),
                                   "text/html");
    });
    platform = std::make_unique<sevsnp::AmdSp>(
        to_bytes("platform-10.0.0.1-" + seed),
        sevsnp::TcbVersion{2, 0, 8, 115});
    kds.register_platform(*platform);
    RevelioVmConfig config;
    config.domain = kDomain;
    config.host = "10.0.0.1";
    config.image = image;
    config.kds_address = {kKdsPrimary, 443};
    auto deployed = RevelioVm::deploy(*platform, network, config, routes);
    EXPECT_TRUE(deployed.ok());
    node = std::move(*deployed);

    SpNodeConfig sp_config;
    sp_config.domain = kDomain;
    sp_config.kds_address = {kKdsPrimary, 443};
    sp_config.expected_measurements = {expected_measurement};
    sp = std::make_unique<SpNode>(network, acme, sp_config);
    sp->approve_node(node->bootstrap_address(), platform->chip_id());
    EXPECT_TRUE(sp->provision_fleet().ok());
    network.dns_set_a(kDomain, "10.0.0.1");
  }

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
  pki::AcmeIssuer acme;
  Browser browser;
  imagebuild::PackageRegistry registry;
  imagebuild::VmImage image;
  sevsnp::Measurement expected_measurement;
  std::unique_ptr<sevsnp::AmdSp> platform;
  std::unique_ptr<RevelioVm> node;
  std::unique_ptr<SpNode> sp;
  std::mutex mu;  // one lane drives the world at a time
};

std::vector<std::unique_ptr<GatewayWorld>> build_worlds(std::size_t count,
                                                        const char* seed) {
  std::vector<std::unique_ptr<GatewayWorld>> worlds;
  worlds.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    worlds.push_back(std::make_unique<GatewayWorld>(seed));
  }
  return worlds;
}

struct StagedBatchRun {
  SessionEngine::StagedReport report;
  int unverified_accepts = 0;
};

/// Staged driver with optional batched verify dispatch — the bench's
/// staged_batch level in miniature. `bad_measurement_session`, when set,
/// registers that one session against a corrupted expected-measurement set
/// so its verdict fails policy INSIDE a batched wavefront.
StagedBatchRun run_staged(SessionEngine& engine,
                          std::vector<std::unique_ptr<GatewayWorld>>& worlds,
                          std::size_t sessions, bool batch_verify,
                          obs::AuditLog* audit = nullptr,
                          std::size_t bad_measurement_session = SIZE_MAX) {
  struct Slot {
    std::unique_ptr<WebExtension> ext;
    std::unique_ptr<WebExtension::StagedAttestation> staged;
  };
  std::vector<Slot> slots(sessions);
  std::atomic<int> unverified{0};

  BatchStageConfig batching;
  if (batch_verify) {
    batching.stage = SessionState::kVerify;
    batching.fn = [&](std::vector<StagedBatchItem>& items) {
      // The engine hands over track groups it fully subsumed, so these
      // worlds have no other lane touching them; lock them all for the
      // duration of the one-pass verify.
      std::vector<GatewayWorld*> held;
      for (const auto& item : items) {
        held.push_back(worlds[item.ctx.index % worlds.size()].get());
      }
      std::sort(held.begin(), held.end());
      held.erase(std::unique(held.begin(), held.end()), held.end());
      std::vector<std::unique_lock<std::mutex>> locks;
      for (GatewayWorld* world : held) locks.emplace_back(world->mu);

      std::vector<WebExtension::StagedAttestation*> staged;
      staged.reserve(items.size());
      for (const auto& item : items) {
        staged.push_back(slots[item.ctx.index].staged.get());
      }
      const std::vector<Status> statuses = batch_verify_sessions(staged);
      for (std::size_t k = 0; k < items.size(); ++k) {
        if (statuses[k].ok()) {
          items[k].next = SessionState::kPageFetch;
        } else {
          items[k].ctx.failure = statuses[k];
          items[k].next = SessionState::kFailed;
        }
      }
    };
  }

  StagedBatchRun out;
  out.report = engine.run_staged(
      sessions,
      [&](StagedContext& ctx) -> SessionState {
        GatewayWorld& world = *worlds[ctx.index % worlds.size()];
        std::lock_guard<std::mutex> world_lock(world.mu);
        ScopedClockCurrent clock_scope(world.clock);
        const SimClock::Micros virt_start = world.clock.now_us();
        Slot& slot = slots[ctx.index];
        const auto finish = [&](SessionState next) {
          ctx.stage_virt_ms =
              static_cast<double>(world.clock.now_us() - virt_start) / 1000.0;
          return next;
        };
        const auto fail = [&](Error error) {
          ctx.failure = std::move(error);
          return finish(SessionState::kFailed);
        };

        switch (ctx.state) {
          case SessionState::kHandshake: {
            world.browser.drop_session(kDomain);
            WebExtensionConfig config;
            config.kds_address = {kKdsPrimary, 443};
            config.shared_chain_cache = ctx.chain_cache;
            config.shared_vcek_cache = ctx.vcek_cache;
            config.audit_log = audit;
            config.audit_session_id = ctx.index;
            slot.ext = std::make_unique<WebExtension>(world.browser, config);
            SiteRegistration site = world.registration();
            if (ctx.index == bad_measurement_session) {
              site.expected_measurements[0].data[0] ^= 0xff;
            }
            slot.ext->register_site(kDomain, site);
            slot.staged = std::make_unique<WebExtension::StagedAttestation>(
                slot.ext->begin_session(kDomain, 443));
            auto st = slot.staged->handshake();
            if (!st.ok()) return fail(st.error());
            return finish(SessionState::kEvidenceFetch);
          }
          case SessionState::kEvidenceFetch: {
            auto st = slot.staged->fetch_evidence();
            if (!st.ok()) return fail(st.error());
            return finish(SessionState::kKdsFetch);
          }
          case SessionState::kKdsFetch: {
            auto st = slot.staged->fetch_kds();
            if (!st.ok()) return fail(st.error());
            return finish(SessionState::kVerify);
          }
          case SessionState::kVerify: {
            auto st = slot.staged->verify();
            if (!st.ok()) return fail(st.error());
            return finish(SessionState::kPageFetch);
          }
          case SessionState::kPageFetch: {
            auto page = slot.staged->fetch_page("/");
            if (!page.ok()) return fail(page.error());
            if (!slot.staged->checks().all_ok()) {
              unverified.fetch_add(1);
              return fail(Error::make("test.unverified_trust_accepted"));
            }
            return finish(SessionState::kDone);
          }
          default:
            return fail(Error::make("test.unexpected_state"));
        }
      },
      {}, [&](std::size_t i) { return i % worlds.size(); }, batching);
  out.unverified_accepts = unverified.load();
  return out;
}

TEST(BatchedStagedGateway, TranscriptMatchesUnbatchedBitForBit) {
  constexpr std::size_t kSessions = 4;
  SessionEngineConfig config;
  config.workers = 1;  // deterministic schedule; any digest delta is real

  SessionEngine plain_engine(config);
  auto plain_worlds = build_worlds(kSessions, "digest-parity");
  const StagedBatchRun plain =
      run_staged(plain_engine, plain_worlds, kSessions, /*batch_verify=*/false);

  SessionEngine batch_engine(config);
  auto batch_worlds = build_worlds(kSessions, "digest-parity");
  const StagedBatchRun batched =
      run_staged(batch_engine, batch_worlds, kSessions, /*batch_verify=*/true);

  EXPECT_EQ(plain.report.succeeded, kSessions);
  EXPECT_EQ(batched.report.succeeded, kSessions);
  EXPECT_EQ(plain.unverified_accepts, 0);
  EXPECT_EQ(batched.unverified_accepts, 0);
  EXPECT_GE(batched.report.batch_calls, 1u);
  EXPECT_EQ(plain.report.batch_calls, 0u);
  EXPECT_EQ(batched.report.transcript_digest, plain.report.transcript_digest);
}

TEST(BatchedStagedGateway, RejectionInsideBatchedWavefrontLandsInAuditChain) {
  constexpr std::size_t kSessions = 8;
  constexpr std::size_t kBad = 5;
  SessionEngineConfig config;
  config.workers = 2;
  SessionEngine engine(config);
  auto worlds = build_worlds(4, "batch-audit");
  obs::AuditLog audit(/*checkpoint_interval=*/4);

  const StagedBatchRun run = run_staged(engine, worlds, kSessions,
                                        /*batch_verify=*/true, &audit, kBad);

  EXPECT_GE(run.report.batch_calls, 1u);
  EXPECT_EQ(run.report.succeeded, kSessions - 1);
  EXPECT_EQ(run.report.failed, 1u);
  EXPECT_EQ(run.unverified_accepts, 0);
  for (std::size_t i = 0; i < kSessions; ++i) {
    if (i == kBad) {
      ASSERT_FALSE(run.report.outcomes[i].ok());
      EXPECT_EQ(run.report.outcomes[i].error().code,
                "extension.attestation_failed");
    } else {
      EXPECT_TRUE(run.report.outcomes[i].ok()) << "session " << i;
    }
  }

  // The rejection is a first-class record in the tamper-evident chain.
  const Bytes stream = audit.serialize();
  const auto summary = obs::AuditLog::verify(stream);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(audit.records(), kSessions);
  EXPECT_EQ(summary->accepted, kSessions - 1);
}

/// One flight-ring event of an anomaly dump: its instant and type name.
struct DumpEvent {
  std::uint64_t t_us = 0;
  std::string type;
};

std::vector<DumpEvent> dump_events(const std::string& dump) {
  static const std::regex kEvent("\\{\"t_us\":(\\d+),\"type\":\"(\\w+)\"");
  std::vector<DumpEvent> out;
  for (std::sregex_iterator it(dump.begin(), dump.end(), kEvent), end;
       it != end; ++it) {
    out.push_back({std::stoull((*it)[1].str()), (*it)[2].str()});
  }
  return out;
}

/// The anomaly dump of `session`, or "" when it has none.
std::string dump_of(const SessionEngine::StagedReport& report,
                    std::size_t session) {
  const std::string prefix =
      "{\"session\":" + std::to_string(session) + ",";
  for (const auto& dump : report.anomaly_dumps) {
    if (dump.rfind(prefix, 0) == 0) return dump;
  }
  return "";
}

TEST(BatchedStagedGateway, BatchedVerifyLandsInTheSessionsFlightRing) {
  constexpr std::size_t kSessions = 8;
  constexpr std::size_t kBad = 5;
  SessionEngineConfig config;
  config.workers = 1;
  config.flight_recorder = true;
  SessionEngine engine(config);
  auto worlds = build_worlds(4, "batch-ring");

  const StagedBatchRun run = run_staged(engine, worlds, kSessions,
                                        /*batch_verify=*/true, nullptr, kBad);

  ASSERT_GE(run.report.batch_calls, 1u);
  ASSERT_FALSE(run.report.outcomes[kBad].ok());
  const std::string dump = dump_of(run.report, kBad);
  ASSERT_NE(dump.find("\"reason\":\"failed\""), std::string::npos) << dump;
  // The rejection the batch concluded is in the session's own ring...
  EXPECT_NE(dump.find("\"type\":\"verdict\",\"arg\":0"), std::string::npos)
      << dump;
  // ...and so is the chain-cache probe (cache id 2) of its verifier.prepare.
  const auto verify_enter = dump.find(
      "\"type\":\"stage_enter\",\"arg\":" +
      std::to_string(static_cast<int>(SessionState::kVerify)));
  ASSERT_NE(verify_enter, std::string::npos) << dump;
  const bool probed =
      dump.find("\"type\":\"cache_hit\",\"arg\":2", verify_enter) !=
          std::string::npos ||
      dump.find("\"type\":\"cache_miss\",\"arg\":2", verify_enter) !=
          std::string::npos;
  EXPECT_TRUE(probed) << dump;
}

TEST(BatchedStagedGateway, FlightRingsKeepTheEnginesTimeBase) {
  // Events raised deep in a stage (cache probes, retries, verdicts) must
  // carry the engine's virtual time, not the world clock the stage drove,
  // so every ring reads on one time base inside the run's makespan.
  const std::vector<std::string> deep = {"retry", "cache_hit", "cache_miss",
                                         "verdict"};
  for (const bool batch_verify : {false, true}) {
    SessionEngineConfig config;
    config.workers = 1;
    config.flight_recorder = true;
    SessionEngine engine(config);
    auto worlds = build_worlds(4, "ring-clock");
    const StagedBatchRun run =
        run_staged(engine, worlds, 8, batch_verify, nullptr, /*bad=*/5);
    ASSERT_FALSE(run.report.anomaly_dumps.empty());
    const auto makespan_us = static_cast<std::uint64_t>(
        std::llround(run.report.virt_makespan_ms * 1000.0));
    for (const auto& dump : run.report.anomaly_dumps) {
      // Eight-session rings hold about 19 of their 32 events: nothing
      // wrapped, so every deep event follows its stage's enter.
      ASSERT_NE(dump.find("\"dropped\":0"), std::string::npos) << dump;
      std::uint64_t enter_us = 0;
      bool in_stage = false;
      std::vector<std::uint64_t> stage_deep;
      for (const DumpEvent& e : dump_events(dump)) {
        EXPECT_LE(e.t_us, makespan_us) << e.type << " in " << dump;
        if (e.type == "stage_enter") {
          enter_us = e.t_us;
          in_stage = true;
          stage_deep.clear();
        } else if (e.type == "stage_exit") {
          for (const std::uint64_t t : stage_deep) {
            EXPECT_GE(t, enter_us) << dump;
            EXPECT_LE(t, e.t_us) << dump;
          }
          in_stage = false;
        } else if (std::find(deep.begin(), deep.end(), e.type) !=
                   deep.end()) {
          EXPECT_TRUE(in_stage) << e.type << " outside a stage in " << dump;
          stage_deep.push_back(e.t_us);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pinned registry at capacity. Kept last: it leaves the process-wide
// registry full for anything that runs after it.

TEST(PinnedTables, FullRegistryRefusesWithoutBuildingTables) {
  using crypto::ecp::PinnedTableRegistry;
  auto& registry = PinnedTableRegistry::instance();
  int builds = 0;
  const auto build = [&builds] {
    ++builds;
    return std::make_shared<const crypto::ecp::VerifyTables>();
  };
  // Earlier tests in this process may already hold pins: fill only the
  // room that is left, with keys no curve point encodes to.
  Bytes filler;
  for (std::size_t i = registry.stats().pinned;
       i < PinnedTableRegistry::kCapacity; ++i) {
    filler = to_bytes("registry-filler-" + std::to_string(i));
    ASSERT_TRUE(registry.pin(filler, build));
  }
  ASSERT_EQ(registry.stats().pinned, PinnedTableRegistry::kCapacity);
  const int fill_builds = builds;
  const auto probes = registry.stats();

  EXPECT_FALSE(registry.pin(to_bytes(std::string_view("one-key-too-many")),
                            build));
  EXPECT_EQ(builds, fill_builds) << "a full registry must not build tables";
  EXPECT_EQ(registry.stats().pinned, PinnedTableRegistry::kCapacity);
  // Re-pinning a present key is a no-op, also without a build, and the
  // presence probes count as neither hits nor misses.
  if (!filler.empty()) {
    EXPECT_TRUE(registry.pin(filler, build));
  }
  EXPECT_EQ(builds, fill_builds);
  EXPECT_EQ(registry.stats().hits, probes.hits);
  EXPECT_EQ(registry.stats().misses, probes.misses);
}

}  // namespace
}  // namespace revelio::core
