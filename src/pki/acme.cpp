#include "pki/acme.hpp"

#include "common/hex.hpp"

namespace revelio::pki {

AcmeIssuer::AcmeIssuer(SimClock& clock, crypto::HmacDrbg& drbg,
                       AcmeConfig config)
    : clock_(clock),
      config_(config),
      challenge_drbg_(drbg.generate(32),
                      to_bytes(std::string_view("acme-challenges"))) {
  const std::uint64_t now = clock_.now_us();
  const std::uint64_t ten_years = 10ull * 365 * 24 * 3600 * 1000 * 1000;
  root_ca_ = std::make_unique<CertificateAuthority>(
      CertificateAuthority::create_root(
          crypto::p384(), {"Revelio Trust Services Root X1", "Revelio CA", "US"},
          now, now + ten_years, drbg));
  issuing_ca_ = std::make_unique<CertificateAuthority>(
      CertificateAuthority::create_intermediate(
          crypto::p384(), {"Revelio Intermediate R3", "Revelio CA", "US"}, now,
          now + ten_years / 2, *root_ca_, drbg));
  root_cert_ = root_ca_->certificate();
  issuing_cert_ = issuing_ca_->certificate();
}

std::string AcmeIssuer::request_challenge(const std::string& account,
                                          const std::string& domain) {
  const std::string token = to_hex(challenge_drbg_.generate(16));
  challenges_[{account, domain}] = token;
  return token;
}

std::string AcmeIssuer::registered_domain(const std::string& fqdn) const {
  // Registered domain = last two labels (example.com from a.b.example.com).
  std::size_t last = fqdn.rfind('.');
  if (last == std::string::npos) return fqdn;
  std::size_t second = fqdn.rfind('.', last - 1);
  if (second == std::string::npos) return fqdn;
  return fqdn.substr(second + 1);
}

void AcmeIssuer::prune_window(std::deque<std::uint64_t>& times) const {
  const std::uint64_t now = clock_.now_us();
  const std::uint64_t cutoff =
      now > config_.rate_window_us ? now - config_.rate_window_us : 0;
  while (!times.empty() && times.front() < cutoff) times.pop_front();
}

std::size_t AcmeIssuer::issued_in_window(
    const std::string& registered) const {
  auto it = issuance_log_.find(registered);
  if (it == issuance_log_.end()) return 0;
  prune_window(it->second);
  return it->second.size();
}

void AcmeIssuer::set_outage_window(std::uint64_t start_us,
                                   std::uint64_t end_us) {
  outage_start_us_ = start_us;
  outage_end_us_ = end_us;
}

Result<Certificate> AcmeIssuer::finalize(const std::string& account,
                                         const CertificateSigningRequest& csr,
                                         const DnsTxtLookup& lookup) {
  if (clock_.now_us() >= outage_start_us_ &&
      clock_.now_us() < outage_end_us_) {
    return Error::make("acme.unavailable", "CA maintenance window");
  }
  if (!csr.verify()) {
    return Error::make("acme.bad_csr", "CSR proof-of-possession failed");
  }
  if (csr.san_dns.empty()) {
    return Error::make("acme.no_identifiers", "CSR names no domains");
  }
  // Every named domain must pass DNS-01.
  for (const auto& domain : csr.san_dns) {
    const auto it = challenges_.find({account, domain});
    if (it == challenges_.end()) {
      return Error::make("acme.no_challenge",
                         "no outstanding challenge for " + domain);
    }
    const auto records = lookup("_acme-challenge." + domain);
    bool found = false;
    for (const auto& record : records) {
      if (record == it->second) {
        found = true;
        break;
      }
    }
    if (!found) {
      return Error::make("acme.challenge_failed",
                         "DNS-01 token not found for " + domain);
    }
  }
  // Rate limiting per registered domain.
  for (const auto& domain : csr.san_dns) {
    const std::string registered = registered_domain(domain);
    auto& log = issuance_log_[registered];
    prune_window(log);
    if (log.size() >= config_.certs_per_domain) {
      return Error::make("acme.rate_limited",
                         registered + " exceeded " +
                             std::to_string(config_.certs_per_domain) +
                             " certificates per window");
    }
  }

  // Issue. The latency models Let's Encrypt's server-side pipeline and is
  // charged to the simulated clock (Table 2's dominant term).
  clock_.advance_us(SimClock::from_ms(config_.issuance_latency_ms));
  auto cert = issuing_ca_->issue(csr, clock_.now_us(),
                                 clock_.now_us() + config_.cert_lifetime_us);
  if (!cert.ok()) return cert.error();

  for (const auto& domain : csr.san_dns) {
    issuance_log_[registered_domain(domain)].push_back(clock_.now_us());
    challenges_.erase({account, domain});
  }
  return cert;
}

}  // namespace revelio::pki
