#include "sevsnp/amd_sp.hpp"

#include "crypto/hmac.hpp"
#include "crypto/kdf.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace revelio::sevsnp {

AmdSp::AmdSp(ByteView platform_seed, TcbVersion tcb) : tcb_(tcb) {
  crypto::HmacDrbg drbg(platform_seed,
                        to_bytes(std::string_view("amd-sp-chip-secret")));
  chip_secret_ = drbg.generate(32);
  // CHIP_ID is public and derived from (but does not reveal) the secret.
  const auto id_lo = crypto::hmac_sha256(
      chip_secret_, to_bytes(std::string_view("chip-id-lo")));
  const auto id_hi = crypto::hmac_sha256(
      chip_secret_, to_bytes(std::string_view("chip-id-hi")));
  chip_id_ = ChipId::from(concat(id_lo.view(), id_hi.view()));
}

void AmdSp::update_firmware(TcbVersion new_tcb) { tcb_ = new_tcb; }

crypto::EcKeyPair AmdSp::vcek_for(TcbVersion tcb) const {
  // VCEK = KDF(chip secret, TCB) — the "versioned" in Versioned Chip
  // Endorsement Key: a firmware update yields a fresh signing key.
  Bytes info = to_bytes(std::string_view("vcek-derivation"));
  append_u64be(info, tcb.encode());
  const Bytes seed = crypto::hkdf_sha256(chip_secret_, {}, info, 48);
  crypto::HmacDrbg drbg(seed, to_bytes(std::string_view("vcek-keygen")));
  return crypto::ec_generate(crypto::p384(), drbg);
}

Bytes AmdSp::vcek_public_key(TcbVersion tcb) const {
  return vcek_for(tcb).public_encoded(crypto::p384());
}

Status AmdSp::launch_start(std::uint64_t guest_policy) {
  if (state_ != State::kIdle) {
    return Error::make("snp.launch_in_progress",
                       "guest context already active");
  }
  state_ = State::kLaunching;
  guest_policy_ = guest_policy;
  launch_digest_ = crypto::Sha384();
  return Status::success();
}

Status AmdSp::launch_update(ByteView data) {
  if (state_ != State::kLaunching) {
    return Error::make("snp.not_launching",
                       "launch_update outside launch window");
  }
  // Length-prefix each extend so blob boundaries are part of the digest.
  Bytes framed;
  append_u64be(framed, data.size());
  launch_digest_.update(framed);
  launch_digest_.update(data);
  return Status::success();
}

Result<Measurement> AmdSp::launch_finish() {
  if (state_ != State::kLaunching) {
    return Error::make("snp.not_launching",
                       "launch_finish outside launch window");
  }
  measurement_ = launch_digest_.finish();
  state_ = State::kRunning;
  return measurement_;
}

void AmdSp::launch_reset() {
  state_ = State::kIdle;
  guest_policy_ = 0;
  measurement_ = Measurement{};
}

Result<AttestationReport> AmdSp::get_report(
    const ReportData& report_data) const {
  if (state_ != State::kRunning) {
    return Error::make("snp.no_guest", "no measured guest is running");
  }
  obs::Span span("sevsnp.report_sign");
  span.attr("tcb", static_cast<std::uint64_t>(tcb_.encode()));
  obs::metrics().counter("sevsnp.report_sign.count").inc();
  AttestationReport report;
  report.guest_policy = guest_policy_;
  report.measurement = measurement_;
  report.report_data = report_data;
  report.chip_id = chip_id_;
  report.reported_tcb = tcb_;
  report.vmpl = 0;

  const crypto::EcKeyPair vcek = vcek_for(tcb_);
  const auto hash = crypto::sha384(report.signed_body());
  report.signature = crypto::ecdsa_sign(crypto::p384(), vcek.d, hash.view())
                         .encode(crypto::p384());
  return report;
}

Result<Bytes> AmdSp::derive_key(const KeyDerivationPolicy& policy,
                                std::size_t length) const {
  if (state_ != State::kRunning) {
    return Error::make("snp.no_guest", "no measured guest is running");
  }
  Bytes info = to_bytes(std::string_view("snp-derived-key"));
  append_u8(info, policy.mix_measurement ? 1 : 0);
  if (policy.mix_measurement) append(info, measurement_.view());
  append_u8(info, policy.mix_policy ? 1 : 0);
  if (policy.mix_policy) append_u64be(info, guest_policy_);
  append_u32be(info, static_cast<std::uint32_t>(policy.context.size()));
  append(info, policy.context);
  return crypto::hkdf_sha256(chip_secret_,
                             to_bytes(std::string_view("sealing")), info,
                             length);
}

Result<std::uint64_t> AmdSp::counter_read(std::size_t index) const {
  if (state_ != State::kRunning) {
    return Error::make("snp.no_guest", "no measured guest is running");
  }
  if (index >= kCounterSlots) return Error::make("snp.bad_counter_index");
  const auto it = counters_.find({measurement_.bytes(), index});
  return it == counters_.end() ? 0 : it->second;
}

Result<std::uint64_t> AmdSp::counter_increment(std::size_t index) {
  if (state_ != State::kRunning) {
    return Error::make("snp.no_guest", "no measured guest is running");
  }
  if (index >= kCounterSlots) return Error::make("snp.bad_counter_index");
  return ++counters_[{measurement_.bytes(), index}];
}

}  // namespace revelio::sevsnp
