#include "sevsnp/kds.hpp"

#include "common/hex.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace revelio::sevsnp {

namespace {
// Endorsement certificates are long-lived; give them a century so simulated
// clocks never outrun them.
constexpr std::uint64_t kCenturyUs = 100ull * 365 * 24 * 3600 * 1000 * 1000;
}  // namespace

KeyDistributionServer::KeyDistributionServer(crypto::HmacDrbg& drbg) {
  ark_ = std::make_unique<pki::CertificateAuthority>(
      pki::CertificateAuthority::create_root(
          crypto::p384(), {"ARK-Milan", "Advanced Micro Devices", "US"}, 0,
          kCenturyUs, drbg));
  ask_ = std::make_unique<pki::CertificateAuthority>(
      pki::CertificateAuthority::create_intermediate(
          crypto::p384(), {"SEV-Milan", "Advanced Micro Devices", "US"}, 0,
          kCenturyUs, *ark_, drbg));
  ark_cert_ = ark_->certificate();
  ask_cert_ = ask_->certificate();
}

void KeyDistributionServer::register_platform(const AmdSp& platform) {
  platforms_[platform.chip_id().bytes()] = &platform;
}

Result<pki::Certificate> KeyDistributionServer::fetch_vcek(
    const ChipId& chip_id, TcbVersion tcb) {
  const auto cache_key = std::make_pair(chip_id.bytes(), tcb.encode());
  if (const auto it = vcek_cache_.find(cache_key); it != vcek_cache_.end()) {
    return it->second;
  }
  const auto platform_it = platforms_.find(chip_id.bytes());
  if (platform_it == platforms_.end()) {
    return Error::make("kds.unknown_chip",
                       to_hex(chip_id.view()).substr(0, 16) + "...");
  }
  const Bytes vcek_pub = platform_it->second->vcek_public_key(tcb);
  const std::uint64_t not_after =
      vcek_not_after_us_ != 0 ? vcek_not_after_us_ : kCenturyUs;
  pki::Certificate cert = ask_->issue_for_key(
      "P-384", vcek_pub,
      {"VCEK-" + to_hex(chip_id.view()).substr(0, 16), "AMD", "US"}, {}, 0,
      not_after);
  vcek_cache_[cache_key] = cert;
  return cert;
}

Result<PreparedReportVerify> prepare_report_verify(
    const AttestationReport& report, const pki::Certificate& vcek_cert,
    const std::vector<pki::Certificate>& intermediates,
    const std::vector<pki::Certificate>& roots,
    const ReportVerifyOptions& options) {
  // 1. The VCEK certificate must chain to a pinned AMD root.
  pki::ChainVerifyOptions chain_options;
  chain_options.now_us = options.now_us;
  Status chain_status = Status::success();
  if (options.chain_cache != nullptr) {
    // The cache emits its own pki.chain_verify span + result counters.
    chain_status = options.chain_cache->verify(vcek_cert, intermediates,
                                               roots, chain_options);
  } else {
    obs::Span chain_span("pki.chain_verify");
    chain_span.attr("cache", "none");
    chain_span.attr("chain_len",
                    static_cast<std::uint64_t>(1 + intermediates.size()));
    chain_status =
        pki::verify_chain(vcek_cert, intermediates, roots, chain_options);
    const std::string result =
        chain_status.ok() ? "ok" : chain_status.error().code;
    chain_span.attr("result", result);
    obs::metrics()
        .counter("pki.chain_verify.result.count", {{"result", result}})
        .inc();
  }
  if (!chain_status.ok()) {
    return Error::make("snp.vcek_chain_invalid",
                       chain_status.error().to_string());
  }
  // 2. Decode the VCEK key and signature, and digest the signed body. The
  // span covers the decode + hash here; the ECDSA equation itself runs in
  // the caller (inline for verify_report, pooled for the batch verifier).
  obs::Span sig_span("sevsnp.signature_verify");
  const auto pub = crypto::p384().decode_point(vcek_cert.public_key);
  if (!pub.ok()) {
    sig_span.attr("result", "bad_vcek_key");
    return Error::make("snp.bad_vcek_key", pub.error().to_string());
  }
  auto sig = crypto::EcdsaSignature::decode(crypto::p384(), report.signature);
  if (!sig.ok()) {
    sig_span.attr("result", "bad_encoding");
    return Error::make("snp.bad_signature_encoding");
  }
  PreparedReportVerify prepared;
  prepared.vcek_pub = *pub;
  prepared.signature = *sig;
  prepared.digest = crypto::sha384(report.signed_body());
  sig_span.attr("result", "ok");
  return prepared;
}

void record_report_verify_result(const Status& st) {
  const std::string result = st.ok() ? "ok" : st.error().code;
  obs::metrics()
      .counter("sevsnp.report_verify.result.count", {{"result", result}})
      .inc();
}

Status verify_report(const AttestationReport& report,
                     const pki::Certificate& vcek_cert,
                     const std::vector<pki::Certificate>& intermediates,
                     const std::vector<pki::Certificate>& roots,
                     const ReportVerifyOptions& options) {
  obs::Span span("sevsnp.report_verify");
  Status st = Status::success();
  auto prepared =
      prepare_report_verify(report, vcek_cert, intermediates, roots, options);
  if (!prepared.ok()) {
    st = prepared.error();
  } else {
    if (!crypto::ecdsa_verify(crypto::p384(), prepared->vcek_pub,
                              prepared->digest.view(), prepared->signature)) {
      st = Error::make("snp.signature_invalid",
                       "report not signed by presented VCEK");
    }
  }
  const std::string result = st.ok() ? "ok" : st.error().code;
  span.attr("result", result);
  span.attr("measurement_ok", st.ok());
  record_report_verify_result(st);
  return st;
}

}  // namespace revelio::sevsnp
