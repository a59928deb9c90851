// SP node: the service provider's isolated provisioning machine (§5.3).
//
// Lives outside the public cloud, holds the DNS API credentials and the
// ACME account, and drives certificate management: it attests every fleet
// node (chip-id and IP allowlists and the CSR, then the relying-party
// verifier's gates: CSR binding, revocation, TCB horizon, report signature
// + chain, measurement), picks a leader, obtains one shared SSL
// certificate for the leader's CSR (respecting CA rate limits, §3.4.6),
// and distributes it — after which the nodes fetch the private key from
// the leader themselves (Fig 4).
#pragma once

#include <set>

#include "net/http.hpp"
#include "net/resilience.hpp"
#include "pki/acme.hpp"
#include "revelio/relying_party.hpp"

namespace revelio::core {

/// FleetState: the revocation set, TCB horizons and audit log it consults.
struct SpNodeConfig : FleetState {
  std::string domain;
  std::string acme_account = "revelio-sp";
  net::Address kds_address;
  /// Acceptable launch measurements for fleet nodes (from the reproducible
  /// build, or the trusted registry).
  std::vector<sevsnp::Measurement> expected_measurements;
  std::optional<sevsnp::TcbVersion> minimum_tcb;
  /// Transient-transport retry policy for node fetches, certificate
  /// distribution and ACME issuance (an `acme.unavailable` outage is
  /// transient; every attestation failure is permanent and never retried).
  net::RetryPolicy retry{.max_attempts = 1};
  /// Virtual-time budget for one provision_fleet() round (0 = unlimited).
  double provision_deadline_ms = 0.0;
};

/// Per-node provisioning outcome (observability + Table 2 accounting).
struct NodeAttestation {
  net::Address bootstrap_address;
  bool attested = false;
  std::string failure;  // empty when attested
  Bytes public_key;     // the node's identity key (from the CSR)
};

class SpNode {
 public:
  SpNode(net::Network& network, pki::AcmeIssuer& acme, SpNodeConfig config);

  /// Registers an approved node: its provisioning address and the chip it
  /// is expected to run on (§5.3.1's chip-id + IP check).
  void approve_node(const net::Address& bootstrap_address,
                    const sevsnp::ChipId& chip_id);

  /// Full provisioning round: attest all approved nodes, lead with the
  /// first healthy one, obtain the shared certificate, distribute it.
  /// Returns per-node outcomes (provisioning succeeds if >=1 node works).
  Result<std::vector<NodeAttestation>> provision_fleet();

  /// Attests a single node by fetching and validating its CSR bundle.
  Result<pki::CertificateSigningRequest> attest_node(
      const net::Address& bootstrap_address);

  const std::optional<pki::Certificate>& issued_certificate() const {
    return certificate_;
  }

  /// True when the issued certificate is inside its renewal overlap window:
  /// `now_us >= not_after - overlap_us` (or no certificate exists yet).
  /// Rotation itself is a provision_fleet() re-run — the round is
  /// idempotent over the approved set, obtains a fresh certificate under
  /// the same ACME rate limits, and redistributes it while the old one is
  /// still valid, so sessions never observe a gap (§3.4.6). The old
  /// certificate keeps verifying until its own not_after passes; pki's
  /// half-open validity window then fails it closed and clients
  /// re-handshake against the rotated one.
  bool renewal_due(std::uint64_t now_us, std::uint64_t overlap_us) const {
    if (!certificate_) return true;
    // Compared without `now_us + overlap_us`: the sum wraps std::uint64_t
    // for century-scale overlap windows (used elsewhere in this codebase
    // as "never expires"), which would suppress rotation exactly when the
    // caller asked for the widest window.
    const std::uint64_t not_after = certificate_->not_after_us;
    return not_after <= now_us || not_after - now_us <= overlap_us;
  }

 private:
  Result<pki::Certificate> obtain_certificate(
      const pki::CertificateSigningRequest& leader_csr,
      const net::Deadline& deadline);
  Status distribute_certificate(const net::Address& node,
                                const net::Address& leader,
                                const net::Deadline& deadline);

  net::Network* network_;
  pki::AcmeIssuer* acme_;
  SpNodeConfig config_;
  crypto::HmacDrbg retry_jitter_{to_bytes("sp-retry-jitter")};
  net::Address own_address_{"sp-node.internal", 9000};
  std::map<net::Address, Bytes> approved_;  // address -> chip id bytes
  std::optional<pki::Certificate> certificate_;
  std::vector<pki::Certificate> chain_;
};

}  // namespace revelio::core
