#include <gtest/gtest.h>

#include "sevsnp/amd_sp.hpp"
#include "sevsnp/attestation_report.hpp"
#include "obs/metrics.hpp"
#include "sevsnp/guest_channel.hpp"
#include "sevsnp/kds.hpp"

namespace revelio::sevsnp {
namespace {

using crypto::HmacDrbg;

TcbVersion tcb(std::uint8_t bl, std::uint8_t tee, std::uint8_t snp,
               std::uint8_t ucode) {
  return TcbVersion{bl, tee, snp, ucode};
}

struct SnpFixture : ::testing::Test {
  SnpFixture()
      : sp(to_bytes(std::string_view("platform-seed-1")), tcb(2, 0, 8, 115)),
        kds_drbg(to_bytes(std::string_view("kds-seed"))),
        kds(kds_drbg) {
    kds.register_platform(sp);
  }

  Measurement launch_guest(std::string_view blob = "firmware-image") {
    EXPECT_TRUE(sp.launch_start(0x30000).ok());
    EXPECT_TRUE(sp.launch_update(to_bytes(blob)).ok());
    auto m = sp.launch_finish();
    EXPECT_TRUE(m.ok());
    return *m;
  }

  AmdSp sp;
  HmacDrbg kds_drbg;
  KeyDistributionServer kds;
};

// ------------------------------------------------------------ TcbVersion

TEST(TcbVersion, EncodeDecodeRoundTrip) {
  const TcbVersion v = tcb(3, 1, 8, 115);
  EXPECT_EQ(TcbVersion::decode(v.encode()), v);
}

TEST(TcbVersion, AtLeastIsComponentwise) {
  EXPECT_TRUE(tcb(3, 1, 8, 115).at_least(tcb(2, 0, 8, 100)));
  EXPECT_FALSE(tcb(3, 1, 7, 115).at_least(tcb(2, 0, 8, 100)))
      << "one older component must fail the floor check";
  EXPECT_TRUE(tcb(1, 1, 1, 1).at_least(tcb(1, 1, 1, 1)));
}

// ----------------------------------------------------------------- AmdSp

TEST_F(SnpFixture, ChipIdIsStableAndUnique) {
  AmdSp same_seed(to_bytes(std::string_view("platform-seed-1")),
                  tcb(2, 0, 8, 115));
  AmdSp other_seed(to_bytes(std::string_view("platform-seed-2")),
                   tcb(2, 0, 8, 115));
  EXPECT_EQ(sp.chip_id(), same_seed.chip_id());
  EXPECT_NE(sp.chip_id().bytes(), other_seed.chip_id().bytes());
}

TEST_F(SnpFixture, LaunchStateMachineEnforced) {
  EXPECT_FALSE(sp.launch_update(to_bytes(std::string_view("x"))).ok());
  EXPECT_FALSE(sp.launch_finish().ok());
  EXPECT_FALSE(sp.get_report({}).ok());
  ASSERT_TRUE(sp.launch_start(0).ok());
  EXPECT_FALSE(sp.launch_start(0).ok()) << "no nested launches";
  ASSERT_TRUE(sp.launch_update(to_bytes(std::string_view("fw"))).ok());
  ASSERT_TRUE(sp.launch_finish().ok());
  EXPECT_TRUE(sp.get_report({}).ok());
  sp.launch_reset();
  EXPECT_FALSE(sp.get_report({}).ok());
}

TEST_F(SnpFixture, MeasurementDependsOnContent) {
  const auto m1 = launch_guest("image-a");
  sp.launch_reset();
  const auto m2 = launch_guest("image-b");
  EXPECT_FALSE(m1 == m2);
}

TEST_F(SnpFixture, MeasurementDependsOnBlobBoundaries) {
  ASSERT_TRUE(sp.launch_start(0).ok());
  ASSERT_TRUE(sp.launch_update(to_bytes(std::string_view("ab"))).ok());
  ASSERT_TRUE(sp.launch_update(to_bytes(std::string_view("c"))).ok());
  const auto m1 = sp.launch_finish();
  sp.launch_reset();
  ASSERT_TRUE(sp.launch_start(0).ok());
  ASSERT_TRUE(sp.launch_update(to_bytes(std::string_view("a"))).ok());
  ASSERT_TRUE(sp.launch_update(to_bytes(std::string_view("bc"))).ok());
  const auto m2 = sp.launch_finish();
  EXPECT_FALSE(*m1 == *m2)
      << "length framing must distinguish split points";
}

TEST_F(SnpFixture, MeasurementIsReproducible) {
  const auto m1 = launch_guest("same-image");
  sp.launch_reset();
  const auto m2 = launch_guest("same-image");
  EXPECT_EQ(m1, m2);
}

TEST_F(SnpFixture, ReportSerializationRoundTrip) {
  launch_guest();
  ReportData rd = ReportData::from(to_bytes(std::string_view("user data")));
  auto report = sp.get_report(rd);
  ASSERT_TRUE(report.ok());
  auto parsed = AttestationReport::parse(report->serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->version, report->version);
  EXPECT_EQ(parsed->guest_policy, report->guest_policy);
  EXPECT_EQ(parsed->measurement, report->measurement);
  EXPECT_EQ(parsed->report_data, rd);
  EXPECT_EQ(parsed->chip_id, sp.chip_id());
  EXPECT_EQ(parsed->reported_tcb, sp.tcb());
  EXPECT_EQ(parsed->vmpl, report->vmpl);
  EXPECT_EQ(parsed->signature, report->signature);
  EXPECT_EQ(parsed->serialize(), report->serialize());
}

TEST_F(SnpFixture, ReportParseRequiresExactEnd) {
  launch_guest();
  auto report = sp.get_report({});
  ASSERT_TRUE(report.ok());
  const Bytes wire = report->serialize();
  ASSERT_TRUE(AttestationReport::parse(wire).ok());

  Bytes trailing = wire;
  trailing.push_back(0);
  auto parsed = AttestationReport::parse(trailing);
  ASSERT_FALSE(parsed.ok()) << "one trailing byte";
  EXPECT_EQ(parsed.error().code, "snp.report_trailing_bytes");

  // The length a report had while it carried four 48-byte runtime
  // registers: zero padding after the signature...
  Bytes padded = wire;
  padded.resize(wire.size() + 4 * 48, 0);
  EXPECT_FALSE(AttestationReport::parse(padded).ok()) << "padded after";
  // ...or the registers where they sat, between VMPL and the signature.
  Bytes old_layout = report->signed_body();
  old_layout.resize(old_layout.size() + 4 * 48, 0);
  append(old_layout, ByteView(wire).subspan(report->signed_body().size()));
  EXPECT_FALSE(AttestationReport::parse(old_layout).ok()) << "old layout";
}

TEST(AttestationReport, ParseRejectsGarbage) {
  EXPECT_FALSE(AttestationReport::parse({}).ok());
  EXPECT_FALSE(
      AttestationReport::parse(to_bytes(std::string_view("junk"))).ok());
  Bytes big(300, 0xab);
  EXPECT_FALSE(AttestationReport::parse(big).ok());
}

// ------------------------------------------------------- Report + KDS

TEST_F(SnpFixture, ReportVerifiesAgainstKdsChain) {
  launch_guest();
  auto report = sp.get_report({});
  ASSERT_TRUE(report.ok());
  auto vcek = kds.fetch_vcek(report->chip_id, report->reported_tcb);
  ASSERT_TRUE(vcek.ok());
  EXPECT_TRUE(verify_report(*report, *vcek, kds.intermediates(),
                            kds.trusted_roots(), {})
                  .ok());
}

TEST_F(SnpFixture, TamperedReportFieldsFailVerification) {
  launch_guest();
  auto report = sp.get_report({});
  ASSERT_TRUE(report.ok());
  auto vcek = kds.fetch_vcek(report->chip_id, report->reported_tcb);
  ASSERT_TRUE(vcek.ok());

  // One flip in each signed field.
  using Tamper = void (*)(AttestationReport&);
  const Tamper tampers[] = {
      [](AttestationReport& r) { r.version ^= 1; },
      [](AttestationReport& r) { r.guest_policy ^= 1; },
      [](AttestationReport& r) { r.measurement[0] ^= 1; },
      [](AttestationReport& r) { r.report_data[0] ^= 1; },
      [](AttestationReport& r) { r.chip_id[0] ^= 1; },
      [](AttestationReport& r) { r.reported_tcb.microcode ^= 1; },
      [](AttestationReport& r) { r.vmpl ^= 1; },
  };
  for (std::size_t i = 0; i < std::size(tampers); ++i) {
    AttestationReport tampered = *report;
    tampers[i](tampered);
    EXPECT_FALSE(verify_report(tampered, *vcek, kds.intermediates(),
                               kds.trusted_roots(), {})
                     .ok())
        << "field " << i;
  }
}

TEST_F(SnpFixture, ReportSignedByOtherChipFails) {
  launch_guest();
  auto report = sp.get_report({});
  ASSERT_TRUE(report.ok());

  AmdSp other(to_bytes(std::string_view("other-platform")), sp.tcb());
  kds.register_platform(other);
  auto other_vcek = kds.fetch_vcek(other.chip_id(), sp.tcb());
  ASSERT_TRUE(other_vcek.ok());
  const auto st = verify_report(*report, *other_vcek, kds.intermediates(),
                                kds.trusted_roots(), {});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, "snp.signature_invalid");
}

TEST_F(SnpFixture, KdsRejectsUnknownChip) {
  ChipId unknown = ChipId::from(to_bytes(std::string_view("nobody")));
  EXPECT_EQ(kds.fetch_vcek(unknown, sp.tcb()).error().code,
            "kds.unknown_chip");
}

TEST_F(SnpFixture, FirmwareUpdateRotatesVcek) {
  const Bytes old_key = sp.vcek_public_key(sp.tcb());
  const TcbVersion new_tcb = tcb(3, 0, 9, 120);
  sp.update_firmware(new_tcb);
  const Bytes new_key = sp.vcek_public_key(sp.tcb());
  EXPECT_NE(old_key, new_key);
  // Old TCB still derivable (KDS serves certs for historic TCBs).
  EXPECT_EQ(sp.vcek_public_key(tcb(2, 0, 8, 115)), old_key);
}

TEST_F(SnpFixture, TcbFloorRejectsOldFirmware) {
  launch_guest();
  auto report = sp.get_report({});
  ASSERT_TRUE(report.ok());
  auto vcek = kds.fetch_vcek(report->chip_id, report->reported_tcb);
  ASSERT_TRUE(vcek.ok());
  ReportVerifyOptions options;
  options.minimum_tcb = tcb(3, 0, 9, 120);  // higher than platform's
  const auto st = verify_report(*report, *vcek, kds.intermediates(),
                                kds.trusted_roots(), options);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, "snp.tcb_too_old");
}

TEST_F(SnpFixture, ReportAfterFirmwareUpdateNeedsNewVcek) {
  launch_guest();
  auto old_vcek = kds.fetch_vcek(sp.chip_id(), sp.tcb());
  ASSERT_TRUE(old_vcek.ok());
  sp.update_firmware(tcb(3, 0, 9, 120));
  auto report = sp.get_report({});
  ASSERT_TRUE(report.ok());
  // Old VCEK no longer verifies the new report...
  EXPECT_FALSE(verify_report(*report, *old_vcek, kds.intermediates(),
                             kds.trusted_roots(), {})
                   .ok());
  // ...but the TCB-matched VCEK does.
  auto new_vcek = kds.fetch_vcek(report->chip_id, report->reported_tcb);
  ASSERT_TRUE(new_vcek.ok());
  EXPECT_TRUE(verify_report(*report, *new_vcek, kds.intermediates(),
                            kds.trusted_roots(), {})
                  .ok());
}

// -------------------------------------------------------- Key derivation

TEST_F(SnpFixture, SealingKeyBoundToMeasurement) {
  launch_guest("image-a");
  KeyDerivationPolicy policy;
  policy.context = "disk-encryption";
  auto key_a = sp.derive_key(policy);
  ASSERT_TRUE(key_a.ok());

  // Same measurement again -> same key (across "reboots").
  sp.launch_reset();
  launch_guest("image-a");
  auto key_a2 = sp.derive_key(policy);
  ASSERT_TRUE(key_a2.ok());
  EXPECT_EQ(*key_a, *key_a2);

  // Different image -> different key.
  sp.launch_reset();
  launch_guest("image-b");
  auto key_b = sp.derive_key(policy);
  ASSERT_TRUE(key_b.ok());
  EXPECT_NE(*key_a, *key_b);
}

TEST_F(SnpFixture, SealingKeyBoundToPlatform) {
  launch_guest("image-a");
  KeyDerivationPolicy policy;
  policy.context = "disk-encryption";
  auto key_here = sp.derive_key(policy);
  ASSERT_TRUE(key_here.ok());

  AmdSp other(to_bytes(std::string_view("other-platform")), sp.tcb());
  ASSERT_TRUE(other.launch_start(0x30000).ok());
  ASSERT_TRUE(other.launch_update(to_bytes(std::string_view("image-a"))).ok());
  ASSERT_TRUE(other.launch_finish().ok());
  auto key_there = other.derive_key(policy);
  ASSERT_TRUE(key_there.ok());
  EXPECT_NE(*key_here, *key_there)
      << "sealing keys must not migrate across chips";
}

TEST_F(SnpFixture, ContextSeparatesKeys) {
  launch_guest();
  KeyDerivationPolicy a;
  a.context = "disk";
  KeyDerivationPolicy b;
  b.context = "tls";
  EXPECT_NE(*sp.derive_key(a), *sp.derive_key(b));
}

TEST_F(SnpFixture, UnmeasuredPolicyIgnoresMeasurement) {
  launch_guest("image-a");
  KeyDerivationPolicy policy;
  policy.mix_measurement = false;
  policy.context = "platform-key";
  auto k1 = sp.derive_key(policy);
  sp.launch_reset();
  launch_guest("image-b");
  auto k2 = sp.derive_key(policy);
  EXPECT_EQ(*k1, *k2);
}

// ------------------------------------------------------------- Channel

TEST_F(SnpFixture, ChannelReportMatchesDirectRequest) {
  launch_guest();
  auto channel = GuestChannel::open(sp);
  ASSERT_TRUE(channel.ok());
  ReportData rd = ReportData::from(to_bytes(std::string_view("pubkey-hash")));
  auto via_channel = channel->request_report(rd);
  ASSERT_TRUE(via_channel.ok());
  auto direct = sp.get_report(rd);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(via_channel->serialize(), direct->serialize());
}

TEST_F(SnpFixture, ChannelKeyRequestWorks) {
  launch_guest();
  auto channel = GuestChannel::open(sp);
  ASSERT_TRUE(channel.ok());
  KeyDerivationPolicy policy;
  policy.context = "disk";
  auto via_channel = channel->request_key(policy, 32);
  ASSERT_TRUE(via_channel.ok());
  EXPECT_EQ(*via_channel, *sp.derive_key(policy, 32));
}

TEST_F(SnpFixture, ChannelRejectsReplay) {
  launch_guest();
  auto channel = GuestChannel::open(sp);
  ASSERT_TRUE(channel.ok());
  // Capture a sealed request, deliver it once (ok), then replay it.
  Bytes request;
  append_u8(request, 1);  // MSG_REPORT_REQ
  request.resize(1 + 64, 0);
  const Bytes sealed = channel->seal_request(request);
  EXPECT_TRUE(channel->deliver_to_sp(sealed).ok());
  const auto replay = channel->deliver_to_sp(sealed);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.error().code, "snp.channel_auth_failed");
}

TEST_F(SnpFixture, ChannelRejectsForgedMessages) {
  launch_guest();
  auto channel = GuestChannel::open(sp);
  ASSERT_TRUE(channel.ok());
  Bytes forged(120, 0x41);  // hypervisor-invented ciphertext
  EXPECT_FALSE(channel->deliver_to_sp(forged).ok());
}

TEST_F(SnpFixture, ChannelRequiresRunningGuest) {
  EXPECT_FALSE(GuestChannel::open(sp).ok());
}

TEST_F(SnpFixture, ChannelRetriesFlakyTransportAndRecovers) {
  launch_guest();
  auto channel = GuestChannel::open(sp);
  ASSERT_TRUE(channel.ok());
  SimClock clock;
  net::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.jitter = 0.0;
  channel->set_resilience(clock, policy);
  // The hypervisor shuttle loses the first two *requests* — the SP never
  // sees them, so resending the identical ciphertext is safe.
  int attempts = 0;
  channel->set_transport([&](ByteView sealed) -> Result<Bytes> {
    if (++attempts <= 2) return Error::make("net.drop", "shuttle lost it");
    return channel->deliver_to_sp(sealed);
  });
  const auto before = obs::metrics().counter_value(
      "retry.attempts", {{"op", "snp.guest_channel"}});
  ReportData rd = ReportData::from(to_bytes(std::string_view("flaky")));
  auto report = channel->request_report(rd);
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(clock.now_us(), 150'000u) << "50 + 100 ms virtual backoff";
  EXPECT_EQ(obs::metrics().counter_value("retry.attempts",
                                         {{"op", "snp.guest_channel"}}),
            before + 3);
}

TEST_F(SnpFixture, ChannelLostResponseFailsClosed) {
  launch_guest();
  auto channel = GuestChannel::open(sp);
  ASSERT_TRUE(channel.ok());
  SimClock clock;
  net::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.jitter = 0.0;
  channel->set_resilience(clock, policy);
  // The SP processes the request but the *response* is lost in transit. On
  // resend the SP has already advanced its expected sequence number, so the
  // identical ciphertext authenticates as a replay: the channel must fail
  // closed rather than resynchronise — the guest cannot tell an unlucky
  // drop from an active replay attempt.
  int attempts = 0;
  channel->set_transport([&](ByteView sealed) -> Result<Bytes> {
    auto response = channel->deliver_to_sp(sealed);
    if (++attempts == 1 && response.ok()) {
      return Error::make("net.drop", "response lost on the way back");
    }
    return response;
  });
  ReportData rd = ReportData::from(to_bytes(std::string_view("lost-resp")));
  auto report = channel->request_report(rd);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error().code, "snp.channel_auth_failed");
  EXPECT_EQ(attempts, 2) << "the auth failure is permanent: no third try";
}

TEST_F(SnpFixture, ChannelRejectsMalformedRequests) {
  launch_guest();
  auto channel = GuestChannel::open(sp);
  ASSERT_TRUE(channel.ok());
  // Type 9 does not exist; sealed correctly but semantically invalid.
  Bytes request;
  append_u8(request, 9);
  const Bytes sealed = channel->seal_request(request);
  const auto r = channel->deliver_to_sp(sealed);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "snp.unknown_message_type");
}

}  // namespace
}  // namespace revelio::sevsnp
