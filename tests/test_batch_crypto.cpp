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
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "crypto/cpu_features.hpp"
#include "crypto/drbg.hpp"
#include "crypto/ec_precomp.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/sha2.hpp"
#include "gateway_world.hpp"
#include "obs/audit_log.hpp"
#include "obs/metrics.hpp"
#include "revelio/session_engine.hpp"
#include "revelio/web_extension.hpp"
#include "sevsnp/amd_sp.hpp"
#include "sevsnp/kds.hpp"

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

  const sevsnp::ReportVerifyOptions options;
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
    // The split halves must agree with the blocking path report by report.
    const Status blocking = sevsnp::verify_report(
        reports[i], *vcek, kds.intermediates(), kds.trusted_roots(), options);
    EXPECT_EQ(verdicts[i], i != kForged) << "report " << i;
    EXPECT_EQ(blocking.ok(), i != kForged) << "report " << i;
    if (i == kForged) {
      ASSERT_FALSE(blocking.ok());
      EXPECT_EQ(blocking.error().code, "snp.signature_invalid");
    }
  }
}

// ---------------------------------------------------------------------------
// Staged gateway end to end: batched wavefront vs per-session dispatch

using gateway::build_worlds;

/// The bench's staged and staged_batch levels in miniature: `sessions`
/// staged sessions over `worlds`, with or without the batched verify
/// hook, every verdict appended to `audit`. `bad`, when set, registers
/// that one session against a corrupted expected-measurement set so its
/// verdict fails policy INSIDE a batched wavefront.
SessionEngine::StagedReport run_staged(
    SessionEngine& engine,
    const std::vector<std::unique_ptr<gateway::GatewayWorld>>& worlds,
    std::size_t sessions, bool batch_verify, obs::AuditLog* audit = nullptr,
    std::size_t bad = SIZE_MAX) {
  WebExtensionConfig config;
  config.kds_address = {gateway::kKdsPrimary, 443};
  config.audit_log = audit;
  gateway::GatewaySessions<gateway::GatewayWorld> staged(worlds, sessions,
                                                          config);
  staged.bad_measurement_session = bad;
  const auto report = staged.run(engine, {}, batch_verify);
  EXPECT_EQ(staged.unverified_accepts(), 0);
  EXPECT_EQ(staged.wrong_bodies(), 0);
  return report;
}

TEST(StagedAttestation, OutOfOrderCallsAreRefusedAndChangeNothing) {
  // Each refused call returns extension.stage_order, leaves the pass
  // where it was, serves no page and appends no audit record.
  gateway::GatewayWorld world("stage-order");
  ScopedClockCurrent clock_scope(world.clock);
  obs::AuditLog audit(/*checkpoint_interval=*/4);
  WebExtensionConfig config;
  config.kds_address = {gateway::kKdsPrimary, 443};
  config.audit_log = &audit;
  WebExtension extension(world.browser, config);
  extension.register_site(gateway::kDomain, world.registration());
  const auto served = [] {
    return obs::metrics().counter_value("http.request.count",
                                        {{"status", "200"}});
  };
  const auto code = [](const Status& st) {
    return st.ok() ? std::string("ok") : st.error().code;
  };
  const std::string kOrder = "extension.stage_order";

  auto pass = extension.begin_session(gateway::kDomain, 443);
  ASSERT_TRUE(pass.handshake().ok());
  const std::uint64_t pages = served();
  EXPECT_EQ(code(pass.handshake()), kOrder) << "a second handshake";
  auto early = pass.fetch_page("/");
  ASSERT_FALSE(early.ok()) << "the page before verify";
  EXPECT_EQ(early.error().code, kOrder);
  EXPECT_EQ(pass.state(), SessionState::kEvidenceFetch);
  EXPECT_EQ(served(), pages);
  ASSERT_TRUE(pass.fetch_evidence().ok());
  ASSERT_TRUE(pass.fetch_kds().ok());
  EXPECT_EQ(audit.records(), 0u);

  // One batch: the pass at verify is verified; a fresh pass (at
  // handshake) is refused; a null entry fails closed, never verified.
  auto fresh = extension.begin_session(gateway::kDomain, 443);
  const std::vector<Status> statuses =
      batch_verify_sessions({&pass, &fresh, nullptr});
  ASSERT_EQ(statuses.size(), 3u);
  EXPECT_EQ(code(statuses[0]), "ok");
  EXPECT_EQ(code(statuses[1]), kOrder);
  EXPECT_EQ(code(statuses[2]), "extension.no_session");
  EXPECT_EQ(fresh.state(), SessionState::kHandshake);
  EXPECT_EQ(audit.records(), 1u) << "only the verified pass is audited";

  Status failure = Status::success();
  ASSERT_EQ(pass.step("/", failure), SessionState::kDone);
  EXPECT_EQ(to_string(pass.page().body), gateway::kBody);
  const std::uint64_t after_page = served();
  EXPECT_EQ(pass.step("/", failure), SessionState::kFailed)
      << "a finished pass";
  EXPECT_EQ(code(failure), kOrder);
  EXPECT_EQ(pass.state(), SessionState::kDone);
  EXPECT_EQ(served(), after_page);
  EXPECT_EQ(audit.records(), 1u);
}

TEST(BatchedStagedGateway, TranscriptMatchesUnbatchedBitForBit) {
  constexpr std::size_t kSessions = 4;
  SessionEngineConfig config;
  config.workers = 1;  // deterministic schedule; any digest delta is real

  SessionEngine plain_engine(config);
  auto plain_worlds = build_worlds(kSessions, "digest-parity");
  const auto plain =
      run_staged(plain_engine, plain_worlds, kSessions, /*batch_verify=*/false);

  SessionEngine batch_engine(config);
  auto batch_worlds = build_worlds(kSessions, "digest-parity");
  const auto batched =
      run_staged(batch_engine, batch_worlds, kSessions, /*batch_verify=*/true);

  EXPECT_EQ(plain.succeeded, kSessions);
  EXPECT_EQ(batched.succeeded, kSessions);
  EXPECT_GE(batched.batch_calls, 1u);
  EXPECT_EQ(plain.batch_calls, 0u);
  EXPECT_EQ(batched.transcript_digest, plain.transcript_digest);
}

TEST(BatchedStagedGateway, RejectionInsideBatchedWavefrontLandsInAuditChain) {
  constexpr std::size_t kSessions = 8;
  constexpr std::size_t kBad = 5;
  SessionEngineConfig config;
  config.workers = 2;
  SessionEngine engine(config);
  auto worlds = build_worlds(4, "batch-audit");
  obs::AuditLog audit(/*checkpoint_interval=*/4);

  const auto report = run_staged(engine, worlds, kSessions,
                                 /*batch_verify=*/true, &audit, kBad);

  EXPECT_GE(report.batch_calls, 1u);
  EXPECT_EQ(report.succeeded, kSessions - 1);
  EXPECT_EQ(report.failed, 1u);
  for (std::size_t i = 0; i < kSessions; ++i) {
    if (i == kBad) {
      ASSERT_FALSE(report.outcomes[i].ok());
      EXPECT_EQ(report.outcomes[i].error().code,
                "extension.attestation_failed");
    } else {
      EXPECT_TRUE(report.outcomes[i].ok()) << "session " << i;
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

  const auto report = run_staged(engine, worlds, kSessions,
                                 /*batch_verify=*/true, nullptr, kBad);

  ASSERT_GE(report.batch_calls, 1u);
  ASSERT_FALSE(report.outcomes[kBad].ok());
  const std::string dump = dump_of(report, kBad);
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
    const auto report =
        run_staged(engine, worlds, 8, batch_verify, nullptr, /*bad=*/5);
    ASSERT_FALSE(report.anomaly_dumps.empty());
    const auto makespan_us = static_cast<std::uint64_t>(
        std::llround(report.virt_makespan_ms * 1000.0));
    for (const auto& dump : report.anomaly_dumps) {
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
