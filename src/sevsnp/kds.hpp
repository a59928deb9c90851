// AMD Key Distribution Server (KDS) model.
//
// Serves the endorsement chain a verifier needs (§5.3): the self-signed
// AMD Root Key (ARK) certificate, the AMD SEV Key (ASK) intermediate, and
// per-chip VCEK certificates addressed by (CHIP_ID, TCB version) — the
// lookup the paper's web extension performs against kdsintf.amd.com, and
// whose round trip dominates Table 3's fresh-attestation latency.
#pragma once

#include <map>

#include "crypto/ecdsa.hpp"
#include "pki/ca.hpp"
#include "pki/chain_cache.hpp"
#include "sevsnp/amd_sp.hpp"

namespace revelio::sevsnp {

class KeyDistributionServer {
 public:
  explicit KeyDistributionServer(crypto::HmacDrbg& drbg);

  /// Manufacturing step: AMD registers a produced chip so the KDS can later
  /// endorse its VCEKs.
  void register_platform(const AmdSp& platform);

  /// VCEK certificate for (chip, TCB). Issued lazily, then cached.
  Result<pki::Certificate> fetch_vcek(const ChipId& chip_id, TcbVersion tcb);

  /// Overrides the expiry instant (absolute not_after, µs) of VCEKs
  /// issued from now on (default: a century out, so simulated clocks
  /// never outrun them). Expiry tests use this to place a certificate's
  /// not_after at a chosen instant; already-issued (cached) VCEKs keep
  /// their original window.
  void set_vcek_not_after(std::uint64_t not_after_us) {
    vcek_not_after_us_ = not_after_us;
  }

  const pki::Certificate& ark_certificate() const { return ark_cert_; }
  const pki::Certificate& ask_certificate() const { return ask_cert_; }

  /// Root set a verifier pins (the ARK).
  std::vector<pki::Certificate> trusted_roots() const { return {ark_cert_}; }
  std::vector<pki::Certificate> intermediates() const { return {ask_cert_}; }

 private:
  std::unique_ptr<pki::CertificateAuthority> ark_;
  std::unique_ptr<pki::CertificateAuthority> ask_;
  pki::Certificate ark_cert_;
  pki::Certificate ask_cert_;
  std::map<Bytes, const AmdSp*> platforms_;  // keyed by chip id bytes
  std::map<std::pair<Bytes, std::uint64_t>, pki::Certificate> vcek_cache_;
  std::uint64_t vcek_not_after_us_ = 0;  // 0 = the century default
};

/// Report verification as the paper's web extension performs it (§5.3.2):
/// the VCEK chain to the ARK, then the report signature against the VCEK.
/// Policy on the report's contents (measurement, TCB floor) is the relying
/// party's (revelio/relying_party).
struct ReportVerifyOptions {
  std::uint64_t now_us = 0;
  /// Optional memoization of the VCEK chain walk: verifiers that see the
  /// same ARK/ASK/VCEK every session (the web extension) skip the two
  /// chain signature checks on a hit.
  pki::ChainVerificationCache* chain_cache = nullptr;
};

Status verify_report(const AttestationReport& report,
                     const pki::Certificate& vcek_cert,
                     const std::vector<pki::Certificate>& intermediates,
                     const std::vector<pki::Certificate>& roots,
                     const ReportVerifyOptions& options);

/// Chain-checked, decoded inputs for a report-signature check that runs out
/// of line — the handle a batch verifier carries between the two halves of
/// a split verify_report.
struct PreparedReportVerify {
  crypto::Curve::Point vcek_pub;
  crypto::EcdsaSignature signature;
  crypto::Digest48 digest;  // SHA-384 over the report's signed body
};

/// First half of verify_report: the VCEK chain walk, public-key and
/// signature decoding, and the signed-body digest — everything except the
/// ECDSA equation itself. Error codes and messages are byte-identical to
/// verify_report, so blocking and batched verifiers are indistinguishable
/// to callers and audit logs.
Result<PreparedReportVerify> prepare_report_verify(
    const AttestationReport& report, const pki::Certificate& vcek_cert,
    const std::vector<pki::Certificate>& intermediates,
    const std::vector<pki::Certificate>& roots,
    const ReportVerifyOptions& options);

/// Emits the sevsnp.report_verify.result counter verify_report would emit
/// for `st`. Split verifiers call this once per report, with
/// snp.signature_invalid when the out-of-line signature check failed.
void record_report_verify_result(const Status& st);

}  // namespace revelio::sevsnp
