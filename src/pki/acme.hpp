// ACME-style automated certificate issuance (Let's Encrypt stand-in).
//
// Models the parts of the ACME flow the paper's design depends on:
//  - DNS-01 domain validation: the requester must plant a challenge token
//    in DNS, proving control of the domain — which is why the SP node (the
//    machine holding the DNS API credentials) performs issuance, not the
//    cloud-hosted VMs (§3.4.6, §5.3).
//  - Rate limits per registered domain (the paper cites Let's Encrypt's
//    limits as the reason all Revelio VMs share one certificate).
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <string>

#include "common/sim_clock.hpp"
#include "crypto/drbg.hpp"
#include "pki/ca.hpp"

namespace revelio::pki {

/// Looks up TXT records for a DNS name. Supplied by the network layer;
/// kept as a callback so pki does not depend on net.
using DnsTxtLookup =
    std::function<std::vector<std::string>(const std::string& name)>;

struct AcmeConfig {
  // Let's Encrypt's headline limit: 50 certificates per registered domain
  // per 7 sliding days.
  std::uint32_t certs_per_domain = 50;
  std::uint64_t rate_window_us = 7ull * 24 * 3600 * 1000 * 1000;
  std::uint64_t cert_lifetime_us = 90ull * 24 * 3600 * 1000 * 1000;  // 90 days
  double issuance_latency_ms = 2900.0;  // dominated by CA-side pipeline
};

class AcmeIssuer {
 public:
  /// Builds the CA hierarchy (root + issuing intermediate) at start-up.
  AcmeIssuer(SimClock& clock, crypto::HmacDrbg& drbg, AcmeConfig config = {});

  /// Step 1: request a challenge for a domain. Returns the token the
  /// account must publish as TXT record `_acme-challenge.<domain>`.
  std::string request_challenge(const std::string& account,
                                const std::string& domain);

  /// Step 2: submit the CSR; the issuer validates the DNS challenge via
  /// `lookup` and enforces the per-domain rate limit, then issues.
  Result<Certificate> finalize(const std::string& account,
                               const CertificateSigningRequest& csr,
                               const DnsTxtLookup& lookup);

  /// Roots a relying party must pin to trust ACME-issued certificates.
  std::vector<Certificate> trusted_roots() const { return {root_cert_}; }
  /// Intermediates servers staple alongside their leaf.
  std::vector<Certificate> intermediates() const { return {issuing_cert_}; }

  /// Issued-certificate count for a registered domain within the current
  /// rate window (observability for the rate-limit ablation bench).
  std::size_t issued_in_window(const std::string& registered_domain) const;

  /// Simulated CA outage: while the virtual clock is inside
  /// [start_us, end_us), finalize() fails fast with the *transient* error
  /// `acme.unavailable` instead of issuing. Lets the chaos layer exercise
  /// the SP node's issuance retry/backoff path; challenges stay
  /// outstanding so a retry after the window succeeds.
  void set_outage_window(std::uint64_t start_us, std::uint64_t end_us);

 private:
  std::string registered_domain(const std::string& fqdn) const;
  void prune_window(std::deque<std::uint64_t>& times) const;

  SimClock& clock_;
  AcmeConfig config_;
  crypto::HmacDrbg challenge_drbg_;
  std::unique_ptr<CertificateAuthority> root_ca_;
  std::unique_ptr<CertificateAuthority> issuing_ca_;
  Certificate root_cert_;
  Certificate issuing_cert_;
  // (account, domain) -> outstanding challenge token
  std::map<std::pair<std::string, std::string>, std::string> challenges_;
  std::uint64_t outage_start_us_ = 0;
  std::uint64_t outage_end_us_ = 0;
  // registered domain -> issuance timestamps (sliding window)
  mutable std::map<std::string, std::deque<std::uint64_t>> issuance_log_;
};

}  // namespace revelio::pki
