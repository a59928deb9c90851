// Tests for the extension features layered on the paper's core: the
// mutually-attested VM-to-VM secure channel (§5.2.2's second identity use)
// and the Auditor (the delegated-verification workflow of D2/§3.4.7).
#include <gtest/gtest.h>

#include "imagebuild/builder.hpp"
#include "obs/audit_log.hpp"
#include "revelio/auditor.hpp"
#include "vm/hypervisor.hpp"
#include "revelio/secure_channel.hpp"

namespace revelio::core {
namespace {

using crypto::HmacDrbg;

// ------------------------------------------------------- secure channel

struct ChannelFixture : ::testing::Test {
  ChannelFixture()
      : drbg(to_bytes(std::string_view("channel-tests"))), kds(drbg) {}

  /// Simulates a VM with a given image blob: launches a guest on a fresh
  /// platform and creates the channel identity the way RevelioVm does.
  ChannelIdentity make_identity(const std::string& platform_seed,
                                std::string_view image_blob) {
    auto sp = std::make_unique<sevsnp::AmdSp>(
        to_bytes(platform_seed), sevsnp::TcbVersion{2, 0, 8, 115});
    kds.register_platform(*sp);
    EXPECT_TRUE(sp->launch_start(0x30000).ok());
    EXPECT_TRUE(sp->launch_update(to_bytes(image_blob)).ok());
    EXPECT_TRUE(sp->launch_finish().ok());

    HmacDrbg keygen(to_bytes(platform_seed),
                    to_bytes(std::string_view("identity")));
    ChannelIdentity identity;
    identity.key = crypto::ec_generate(crypto::p256(), keygen);
    const Bytes pubkey = identity.key.public_encoded(crypto::p256());
    auto report = sp->get_report(EvidenceBundle::bind(pubkey));
    EXPECT_TRUE(report.ok());
    identity.evidence = EvidenceBundle{std::move(*report), pubkey};
    measurements.push_back(identity.evidence.report.measurement);
    platforms.push_back(std::move(sp));
    return identity;
  }

  KdsService::VcekResponse kds_for(const ChannelIdentity& identity) {
    auto vcek = kds.fetch_vcek(identity.evidence.report.chip_id,
                               identity.evidence.report.reported_tcb);
    EXPECT_TRUE(vcek.ok());
    return {*vcek, kds.ask_certificate(), kds.ark_certificate()};
  }

  RelyingPartyPolicy policy_trusting_all() {
    RelyingPartyPolicy policy;
    policy.expected_measurements = measurements;
    return policy;
  }

  /// Full handshake helper; returns (initiator channel, responder channel).
  std::pair<SecureChannel, SecureChannel> establish(
      const ChannelIdentity& alice, const ChannelIdentity& bob) {
    const RelyingPartyPolicy policy = policy_trusting_all();
    Bytes alice_state;
    const ChannelHello hello1 =
        SecureChannel::initiate(alice, drbg, alice_state);
    auto responded = SecureChannel::respond(bob, policy, hello1,
                                            kds_for(alice), drbg, 0);
    EXPECT_TRUE(responded.ok()) << responded.error().to_string();
    auto completed = SecureChannel::complete(alice, policy, alice_state,
                                             responded->first,
                                             kds_for(bob), 0);
    EXPECT_TRUE(completed.ok()) << completed.error().to_string();
    return {std::move(*completed), std::move(responded->second)};
  }

  HmacDrbg drbg;
  sevsnp::KeyDistributionServer kds;
  std::vector<std::unique_ptr<sevsnp::AmdSp>> platforms;
  std::vector<sevsnp::Measurement> measurements;
};

TEST_F(ChannelFixture, HandshakeAndBidirectionalTraffic) {
  const auto alice = make_identity("platform-a", "image-v1");
  const auto bob = make_identity("platform-b", "image-v1");
  auto [a, b] = establish(alice, bob);

  const Bytes sealed = a.send(to_bytes(std::string_view("state chunk 1")));
  auto received = b.receive(sealed);
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(to_string(*received), "state chunk 1");

  const Bytes reply = b.send(to_bytes(std::string_view("ack")));
  auto got = a.receive(reply);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(to_string(*got), "ack");
}

TEST_F(ChannelFixture, PeersLearnEachOthersMeasurement) {
  const auto alice = make_identity("platform-a", "image-v1");
  const auto bob = make_identity("platform-b", "image-v2");
  auto [a, b] = establish(alice, bob);
  EXPECT_EQ(a.peer_measurement(), bob.evidence.report.measurement);
  EXPECT_EQ(b.peer_measurement(), alice.evidence.report.measurement);
}

TEST_F(ChannelFixture, ReplayedPayloadRejected) {
  const auto alice = make_identity("platform-a", "image-v1");
  const auto bob = make_identity("platform-b", "image-v1");
  auto [a, b] = establish(alice, bob);
  const Bytes sealed = a.send(to_bytes(std::string_view("once")));
  ASSERT_TRUE(b.receive(sealed).ok());
  const auto replay = b.receive(sealed);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.error().code, "channel.auth_failed");
}

TEST_F(ChannelFixture, TamperedPayloadRejected) {
  const auto alice = make_identity("platform-a", "image-v1");
  const auto bob = make_identity("platform-b", "image-v1");
  auto [a, b] = establish(alice, bob);
  Bytes sealed = a.send(to_bytes(std::string_view("payload")));
  sealed[sealed.size() / 2] ^= 0x01;
  EXPECT_FALSE(b.receive(sealed).ok());
}

TEST_F(ChannelFixture, UntrustedMeasurementRefused) {
  const auto alice = make_identity("platform-a", "image-good");
  const auto mallory = make_identity("platform-m", "image-backdoored");
  RelyingPartyPolicy policy;
  policy.expected_measurements = {alice.evidence.report.measurement};
  std::vector<obs::AuditRecord> records;
  obs::AuditLog audit;
  audit.set_sink([&](std::uint8_t, ByteView body) {
    if (auto rec = obs::AuditRecord::parse(body); rec.ok()) {
      records.push_back(*rec);
    }
    return Status::success();
  });
  policy.audit_log = &audit;

  Bytes state;
  const ChannelHello hello = SecureChannel::initiate(mallory, drbg, state);
  const auto r = SecureChannel::respond(alice, policy, hello,
                                        kds_for(mallory), drbg, 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "attest.measurement");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_FALSE(records[0].accepted);
  EXPECT_EQ(records[0].failure_step, "measurement");
}

TEST_F(ChannelFixture, StolenEvidenceWithoutKeyRefused) {
  // Mallory replays Alice's (genuine) evidence but cannot sign with
  // Alice's identity key.
  const auto alice = make_identity("platform-a", "image-v1");
  const auto bob = make_identity("platform-b", "image-v1");
  HmacDrbg mallory_drbg(to_bytes(std::string_view("mallory")));
  const auto mallory_key = crypto::ec_generate(crypto::p256(), mallory_drbg);

  ChannelHello forged;
  forged.evidence = alice.evidence.serialize();
  const auto eph = crypto::ec_generate(crypto::p256(), mallory_drbg);
  forged.ephemeral_pub = eph.public_encoded(crypto::p256());
  const auto hash = crypto::sha384(forged.evidence);
  forged.signature = crypto::ecdsa_sign(crypto::p256(), mallory_key.d,
                                        hash.view())
                         .encode(crypto::p256());

  const auto r = SecureChannel::respond(bob, policy_trusting_all(), forged,
                                        kds_for(alice), drbg, 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "channel.bad_initiator_signature");
}

TEST_F(ChannelFixture, InitiatorStateOfWrongLengthFailsClosed) {
  // The state is decoded as the ephemeral scalar; a longer buffer must not
  // reach the 48-byte decoder, and a padded one must not alias the key.
  const auto alice = make_identity("platform-a", "image-v1");
  const auto bob = make_identity("platform-b", "image-v1");
  const RelyingPartyPolicy policy = policy_trusting_all();
  Bytes state;
  const ChannelHello hello = SecureChannel::initiate(alice, drbg, state);
  auto responded =
      SecureChannel::respond(bob, policy, hello, kds_for(alice), drbg, 0);
  ASSERT_TRUE(responded.ok()) << responded.error().to_string();

  Bytes padded(1, 0x00);
  append(padded, state);
  Bytes oversized = state;
  oversized.resize(64, 0xAB);
  const Bytes truncated(state.begin(), state.begin() + 31);
  for (const Bytes& bad : {padded, oversized, truncated, Bytes{}}) {
    const auto r = SecureChannel::complete(alice, policy, bad,
                                           responded->first, kds_for(bob), 0);
    ASSERT_FALSE(r.ok()) << bad.size();
    EXPECT_EQ(r.error().code, "channel.bad_initiator_state") << bad.size();
  }
  // The genuine state still completes the same handshake.
  EXPECT_TRUE(SecureChannel::complete(alice, policy, state, responded->first,
                                      kds_for(bob), 0)
                  .ok());
}

TEST_F(ChannelFixture, HelloSerializationRoundTrip) {
  const auto alice = make_identity("platform-a", "image-v1");
  Bytes state;
  const ChannelHello hello = SecureChannel::initiate(alice, drbg, state);
  auto parsed = ChannelHello::parse(hello.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->evidence, hello.evidence);
  EXPECT_EQ(parsed->ephemeral_pub, hello.ephemeral_pub);
  EXPECT_EQ(parsed->signature, hello.signature);
  EXPECT_FALSE(ChannelHello::parse(to_bytes(std::string_view("junk"))).ok());
}

TEST_F(ChannelFixture, TcbFloorEnforcedOnPeers) {
  const auto alice = make_identity("platform-a", "image-v1");
  const auto bob = make_identity("platform-b", "image-v1");
  RelyingPartyPolicy policy = policy_trusting_all();
  policy.minimum_tcb = sevsnp::TcbVersion{9, 9, 9, 200};
  Bytes state;
  const ChannelHello hello = SecureChannel::initiate(alice, drbg, state);
  EXPECT_FALSE(
      SecureChannel::respond(bob, policy, hello, kds_for(alice), drbg, 0)
          .ok());
}

// --------------------------------------------------------------- auditor

struct AuditorFixture : ::testing::Test {
  AuditorFixture() {
    imagebuild::BaseImage base;
    base.name = "ubuntu";
    base.tag = "20.04";
    base.packages = {{"nginx", "1.18",
                      {{"/usr/sbin/nginx",
                        to_bytes(std::string_view("nginx-binary"))}}}};
    digest = registry.publish(base);
  }

  imagebuild::BuildInputs good_inputs() {
    imagebuild::BuildInputs inputs;
    inputs.base_image_digest = digest;
    inputs.service_files["/opt/app"] = to_bytes(std::string_view("app-v1"));
    inputs.initrd.services = {{"app", "/opt/app", 10.0}};
    inputs.initrd.allowed_inbound_ports = {"443"};
    return inputs;
  }

  imagebuild::PackageRegistry registry;
  crypto::Digest32 digest;
};

TEST_F(AuditorFixture, CleanBuildPasses) {
  Auditor auditor(registry);
  const AuditReport report = auditor.audit(good_inputs());
  EXPECT_TRUE(report.reproducible);
  EXPECT_TRUE(report.passed());
  EXPECT_EQ(report.count(AuditFinding::Severity::kCritical), 0u);
}

TEST_F(AuditorFixture, MeasurementMatchesDeployment) {
  Auditor auditor(registry);
  const AuditReport report = auditor.audit(good_inputs());
  imagebuild::ImageBuilder builder(registry);
  const auto image = *builder.build(good_inputs());
  EXPECT_EQ(report.measurement,
            vm::Hypervisor::expected_measurement(
                image.kernel_blob, image.initrd_blob, image.cmdline));
}

TEST_F(AuditorFixture, UnpinnedBaseImageIsCritical) {
  Auditor auditor(registry);
  auto inputs = good_inputs();
  inputs.base_image_digest.reset();
  const AuditReport report = auditor.audit(inputs);
  EXPECT_FALSE(report.passed());
}

TEST_F(AuditorFixture, DisabledVerityIsCritical) {
  Auditor auditor(registry);
  auto inputs = good_inputs();
  inputs.initrd.setup_verity = false;
  EXPECT_FALSE(auditor.audit(inputs).passed());
}

TEST_F(AuditorFixture, OpenSshPortIsCritical) {
  Auditor auditor(registry);
  auto inputs = good_inputs();
  inputs.initrd.allowed_inbound_ports.push_back("22");
  const AuditReport report = auditor.audit(inputs);
  EXPECT_FALSE(report.passed());
}

TEST_F(AuditorFixture, OpenFirewallIsCritical) {
  Auditor auditor(registry);
  auto inputs = good_inputs();
  inputs.initrd.block_inbound_network = false;
  EXPECT_FALSE(auditor.audit(inputs).passed());
}

TEST_F(AuditorFixture, MissingCryptIsOnlyWarning) {
  Auditor auditor(registry);
  auto inputs = good_inputs();
  inputs.initrd.setup_crypt = false;
  const AuditReport report = auditor.audit(inputs);
  EXPECT_TRUE(report.passed());
  EXPECT_GE(report.count(AuditFinding::Severity::kWarning), 1u);
}

TEST_F(AuditorFixture, PublishOnlyOnPass) {
  Auditor auditor(registry);
  TrustedRegistry trusted;
  auto good = auditor.audit_and_publish(good_inputs(), "svc", trusted);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(trusted.is_acceptable("svc", *good));

  auto bad_inputs = good_inputs();
  bad_inputs.initrd.setup_verity = false;
  auto bad = auditor.audit_and_publish(bad_inputs, "svc", trusted);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, "auditor.rejected");
}

TEST_F(AuditorFixture, UnknownBaseImageReportsBuildFailure) {
  Auditor auditor(registry);
  auto inputs = good_inputs();
  crypto::Digest32 bogus;
  bogus[0] = 0xff;
  inputs.base_image_digest = bogus;
  const AuditReport report = auditor.audit(inputs);
  EXPECT_FALSE(report.reproducible);
  EXPECT_FALSE(report.passed());
}

}  // namespace
}  // namespace revelio::core
