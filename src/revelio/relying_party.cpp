#include "revelio/relying_party.hpp"

#include "crypto/sha2.hpp"
#include "fleet/tcb_horizon.hpp"
#include "obs/audit_log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "revelio/revocation.hpp"

namespace revelio::core {

namespace {

/// What an audit record's VCEK chain digest covers: vcek || ask || ark DER.
Bytes chain_encoding(const KdsService::VcekResponse& kds) {
  Bytes der;
  append(der, kds.vcek.serialize());
  append(der, kds.ask.serialize());
  append(der, kds.ark.serialize());
  return der;
}

}  // namespace

bool RelyingPartyVerifier::check_binding(EvidenceBundle bundle) {
  checks_.evidence_fetched = true;
  if (!bundle.binding_ok()) {
    return reject("binding", "REPORT_DATA does not cover the payload");
  }
  checks_.binding_ok = true;
  bundle_ = std::move(bundle);
  return true;
}

bool RelyingPartyVerifier::check_revocation() {
  // Evidence from a revoked identity or below its chip's update horizon
  // must not even reach the crypto.
  if (policy_.revocation_set == nullptr) return true;
  const RevocationSet& set = *policy_.revocation_set;
  std::string what;
  if (set.is_measurement_revoked(bundle_->report.measurement)) {
    what = "measurement";
  } else if (set.is_chip_revoked(bundle_->report.chip_id)) {
    what = "chip";
  } else if (set.is_vcek_revoked(kds_->vcek.fingerprint())) {
    what = "VCEK certificate";
  } else {
    return true;
  }
  obs::metrics().counter("attest.revoked.count", {{"kind", what}}).inc();
  return reject("revocation", what + " is revoked");
}

bool RelyingPartyVerifier::check_tcb_horizon(std::uint64_t now_us) {
  // The policy's static floor and the chip's announced horizon are one
  // gate: a report below either never reaches the signature check.
  const sevsnp::TcbVersion& tcb = bundle_->report.reported_tcb;
  const bool above_floor =
      !policy_.minimum_tcb || tcb.at_least(*policy_.minimum_tcb);
  if (above_floor &&
      (policy_.tcb_horizon == nullptr ||
       policy_.tcb_horizon->acceptable(bundle_->report.chip_id, tcb,
                                       now_us))) {
    return true;
  }
  obs::metrics().counter("attest.tcb_horizon.count").inc();
  return reject("tcb_horizon",
                above_floor ? "report TCB is below the chip's update horizon"
                            : "report TCB is below the policy's minimum");
}

sevsnp::ReportVerifyOptions RelyingPartyVerifier::report_options(
    std::uint64_t now_us) const {
  return {now_us, policy_.chain_cache};
}

bool RelyingPartyVerifier::verify(std::uint64_t now_us) {
  return check_revocation() && check_tcb_horizon(now_us) &&
         judge(sevsnp::verify_report(bundle_->report, kds_->vcek, {kds_->ask},
                                     {kds_->ark}, report_options(now_us)));
}

std::optional<sevsnp::PreparedReportVerify> RelyingPartyVerifier::prepare(
    std::uint64_t now_us) {
  if (!check_revocation() || !check_tcb_horizon(now_us)) return std::nullopt;
  auto prepared = sevsnp::prepare_report_verify(
      bundle_->report, kds_->vcek, {kds_->ask}, {kds_->ark},
      report_options(now_us));
  if (!prepared.ok()) {
    sevsnp::record_report_verify_result(prepared.error());
    judge(prepared.error());
    return std::nullopt;
  }
  return *prepared;
}

bool RelyingPartyVerifier::finish(bool signature_ok) {
  const Status st =
      signature_ok ? Status::success()
                   : Error::make("snp.signature_invalid",
                                 "report not signed by presented VCEK");
  sevsnp::record_report_verify_result(st);
  return judge(st);
}

bool RelyingPartyVerifier::judge(const Status& report_status) {
  // 3. Chain failures are told apart from signature failures for the UI.
  if (!report_status.ok()) {
    if (report_status.error().code == "snp.vcek_chain_invalid") {
      return reject("chain", report_status.error().to_string());
    }
    checks_.chain_ok = true;
    return reject("report_verify", report_status.error().to_string());
  }
  checks_.chain_ok = true;
  checks_.signature_ok = true;

  // 4. Measurement: manual pin or delegated registry. A revoked release
  // never gets here (check_revocation), whichever way it was accepted.
  const sevsnp::Measurement& measurement = bundle_->report.measurement;
  bool acceptable = false;
  for (const auto& m : policy_.expected_measurements) {
    acceptable = acceptable || measurement == m;
  }
  if (policy_.registry != nullptr) {
    acceptable = acceptable || policy_.registry->is_acceptable(
                                   policy_.registry_service, measurement);
  }
  if (!acceptable) {
    return reject("measurement", "measurement not in the accepted set");
  }
  checks_.measurement_ok = true;

  // 5. The attested key must be the one the party expected (§3.4.5).
  if (policy_.expected_payload &&
      !(*policy_.expected_payload == bundle_->payload)) {
    return reject("tls_binding",
                  "TLS connection does not terminate at the attested key");
  }
  checks_.tls_binding_ok = true;
  return true;
}

void RelyingPartyVerifier::record_verdict(bool accepted,
                                          std::uint64_t now_us) {
  obs::flight_record(obs::FlightEventType::kVerdict, accepted ? 1 : 0);
  if (policy_.audit_log == nullptr) return;
  obs::AuditRecord rec;
  rec.session = policy_.audit_session_id;
  rec.virt_us = now_us;
  rec.accepted = accepted;
  rec.failure_step = checks_.failure_step;
  if (checks_.evidence_fetched) rec.checks |= obs::AuditRecord::kEvidenceFetched;
  if (checks_.binding_ok) rec.checks |= obs::AuditRecord::kBindingOk;
  if (checks_.chain_ok) rec.checks |= obs::AuditRecord::kChainOk;
  if (checks_.signature_ok) rec.checks |= obs::AuditRecord::kSignatureOk;
  if (checks_.measurement_ok) rec.checks |= obs::AuditRecord::kMeasurementOk;
  if (checks_.tls_binding_ok) rec.checks |= obs::AuditRecord::kTlsBindingOk;
  if (bundle_) {
    // What the verdict was based on: the exact evidence bytes and the
    // claimed launch measurement / TCB inside them.
    rec.measurement = bundle_->report.measurement;
    rec.tcb = bundle_->report.reported_tcb.encode();
    rec.evidence_digest = crypto::sha256(bundle_->serialize());
  }
  if (kds_) {
    // One digest binding all three certificates the chain walk consumed.
    rec.vcek_chain = crypto::sha256(chain_encoding(*kds_));
  }
  policy_.audit_log->append(rec);
}

Status verify_evidence(const EvidenceBundle& bundle,
                       const KdsService::VcekResponse& kds,
                       std::uint64_t now_us, RelyingPartyPolicy policy) {
  RelyingPartyVerifier verifier(std::move(policy));
  verifier.set_chain(kds);
  const bool accepted =
      verifier.check_binding(bundle) && verifier.verify(now_us);
  verifier.record_verdict(accepted, now_us);
  if (accepted) return Status::success();
  return Error::make("attest." + verifier.checks().failure_step,
                     verifier.checks().failure);
}

}  // namespace revelio::core
