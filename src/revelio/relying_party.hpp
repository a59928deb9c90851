// The one relying-party verifier: what the browser extension, the SP node
// and the key-sharing leader and replicas check before they trust an SNP
// report (§5.3). Gates, in order: binding, revocation, tcb_horizon, chain,
// report_verify, measurement, tls_binding; a rejection names the same
// failure_step whichever party asked (docs/THREAT_MODEL.md, "Gate call
// sites").
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "revelio/evidence.hpp"
#include "revelio/trusted_registry.hpp"

namespace revelio::obs {
class AuditLog;  // obs/audit_log.hpp
}  // namespace revelio::obs

namespace revelio {
class RevocationSet;  // revelio/revocation.hpp
}  // namespace revelio

namespace revelio::fleet {
class TcbHorizon;  // fleet/tcb_horizon.hpp
}  // namespace revelio::fleet

namespace revelio::core {

/// Outcome of one attestation pass — what the extension's UI would render.
struct AttestationChecks {
  bool evidence_fetched = false;
  bool binding_ok = false;       // REPORT_DATA covers the served key
  bool chain_ok = false;         // VCEK chains to the AMD root
  bool signature_ok = false;     // report signed by that VCEK
  bool measurement_ok = false;   // measurement is a known-good image
  bool tls_binding_ok = false;   // session terminates at the attested key
  std::string failure;
  /// Machine-readable step id of the first failed check ("" when all pass):
  /// evidence_fetch | evidence_parse | binding | kds_fetch | revocation |
  /// tcb_horizon | chain | report_verify | measurement | tls_binding.
  /// Mirrors the `result` label on ext.attest.result.count.
  std::string failure_step;

  bool all_ok() const {
    return evidence_fetched && binding_ok && chain_ok && signature_ok &&
           measurement_ok && tls_binding_ok;
  }
};

/// Which launch images a relying party accepts (the extension registers
/// one per site as its SiteRegistration).
struct MeasurementPolicy {
  /// Manual registration: the expected measurement(s), computed from the
  /// reproducible build or received out of band.
  std::vector<sevsnp::Measurement> expected_measurements;
  /// Delegated: consult a third-party registry (auditor / DAO). A revoked
  /// release is a FleetState::revocation_set entry, which overrides both.
  const TrustedRegistry* registry = nullptr;
  std::string registry_service;
  /// Static TCB floor, checked with the fleet's TCB horizons before any
  /// signature work (failure_step "tcb_horizon").
  std::optional<sevsnp::TcbVersion> minimum_tcb;
};

/// The fleet state every relying party consults, also carried by the
/// extension's, the SP node's and the VM's configs. Each pointer is
/// optional, must outlive its user, and is thread-safe.
struct FleetState {
  /// Revoked measurements, chips and VCEKs: checked before any signature
  /// work (failure_step "revocation"). A revoked measurement is refused
  /// even when a policy pins it or its registry publishes it.
  const RevocationSet* revocation_set = nullptr;
  /// Per-chip TCB update horizons, also before any signature work
  /// (failure_step "tcb_horizon").
  const fleet::TcbHorizon* tcb_horizon = nullptr;
  /// Every verdict, accept or reject, is appended to this chain.
  obs::AuditLog* audit_log = nullptr;
};

/// Everything one relying party checks a report against.
struct RelyingPartyPolicy : MeasurementPolicy, FleetState {
  /// Session id stamped on the audit records.
  std::uint64_t audit_session_id = 0;
  /// When set, the bundle's payload must equal it (failure_step
  /// "tls_binding").
  std::optional<Bytes> expected_payload;
  /// Memoizes the ARK -> ASK -> VCEK chain walk across verifications.
  pki::ChainVerificationCache* chain_cache = nullptr;
};

/// One relying party's pass over one evidence bundle. Each step returns
/// false with checks() naming the failed step; a caller runs the steps in
/// order and stops at the first false.
class RelyingPartyVerifier {
 public:
  explicit RelyingPartyVerifier(RelyingPartyPolicy policy)
      : policy_(std::move(policy)) {}

  RelyingPartyPolicy& policy() { return policy_; }
  const AttestationChecks& checks() const { return checks_; }
  /// The evidence once it is bound.
  const EvidenceBundle* bundle() const {
    return bundle_ ? &*bundle_ : nullptr;
  }

  /// Step 1, which needs no VCEK chain: REPORT_DATA must cover the payload.
  /// The pass keeps the bundle once it is bound.
  bool check_binding(EvidenceBundle bundle);
  /// The bound bundle's VCEK chain, which steps 2-5 check.
  void set_chain(KdsService::VcekResponse kds) { kds_ = std::move(kds); }
  /// Steps 2-5 in one blocking call, after check_binding and set_chain.
  bool verify(std::uint64_t now_us);
  /// The split form of verify(): steps 2 and 3's chain walk, returning the
  /// inputs of the signature check (nullopt when a step rejected) ...
  std::optional<sevsnp::PreparedReportVerify> prepare(std::uint64_t now_us);
  /// ... then, given the out-of-line signature verdict, steps 3-5.
  bool finish(bool signature_ok);

  /// Step 5, the tls_binding gate: when the policy expects a payload (the
  /// session's TLS key), it must equal `attested_key`. verify and finish
  /// run it on the bundle's payload; the extension's monitoring re-check
  /// runs it on every later request of an attested session.
  bool check_tls_binding(const Bytes& attested_key);

  /// Records a caller's own failed step (evidence_fetch, kds_fetch, ...)
  /// as the first failed check. Returns false.
  bool reject(const char* step, std::string failure) {
    checks_.failure = std::move(failure);
    checks_.failure_step = step;
    return false;
  }

  /// The terminal verdict: a kVerdict flight event and, when the policy
  /// has an audit log, one AuditRecord of whatever evidence the pass got
  /// as far as gathering.
  void record_verdict(bool accepted, std::uint64_t now_us);

 private:
  /// Step 2, before any signature work: revocations, then the TCB floor
  /// and horizon.
  bool check_revocation();
  bool check_tcb_horizon(std::uint64_t now_us);
  sevsnp::ReportVerifyOptions report_options(std::uint64_t now_us) const;
  /// Step 3's verdict from the report-verify status, then steps 4 and 5.
  bool judge(const Status& report_status);

  RelyingPartyPolicy policy_;
  AttestationChecks checks_;
  std::optional<EvidenceBundle> bundle_;
  std::optional<KdsService::VcekResponse> kds_;
};

/// Steps 1-5 for a party that already holds the bundle and its VCEK chain,
/// and the one verdict record. A rejection returns "attest.<failure_step>"
/// whichever party called.
Status verify_evidence(const EvidenceBundle& bundle,
                       const KdsService::VcekResponse& kds,
                       std::uint64_t now_us, RelyingPartyPolicy policy);

}  // namespace revelio::core
