// RevelioVm: a web-facing service inside an attested confidential VM.
//
// Composes the whole stack of §5: measured direct boot of the built image,
// dm-verity rootfs, sealed data volume, first-boot identity creation
// (§5.2.2) — a P-256 key pair plus two attestation reports binding the
// public key and the CSR into REPORT_DATA — and the HTTP surface: the
// application routes, the `/.well-known/revelio-attestation` endpoint the
// web extension fetches, and the provisioning endpoints the SP node and
// peer nodes use for certificate and key distribution (§5.3.1, Fig 4).
#pragma once

#include <memory>

#include "imagebuild/builder.hpp"
#include "net/http.hpp"
#include "net/resilience.hpp"
#include "net/tls.hpp"
#include "revelio/relying_party.hpp"
#include "vm/hypervisor.hpp"

namespace revelio::core {

/// FleetState: the revocation set, TCB horizons (the key exchange's only
/// TCB floor) and audit log its key exchange consults.
struct RevelioVmConfig : FleetState {
  std::string domain;      // the service's DNS name
  std::string host;        // network host this VM answers at
  std::uint16_t https_port = 443;
  std::uint16_t bootstrap_port = 8443;  // SP-side provisioning endpoints
  /// The image to boot. On a first boot `deploy` moves its disk_bytes into
  /// the VM's disk instead of copying them; the blobs, cmdline and root stay.
  imagebuild::VmImage image;

  /// Reboot path: reuse an existing disk (with its sealed data volume)
  /// instead of instantiating a fresh one from the image. The VM unseals
  /// its persisted TLS identity and resumes serving without a new SP
  /// provisioning round (F6).
  std::shared_ptr<storage::MemDisk> existing_disk;

  /// Expected measurements of fleet peers (baked into the image at build
  /// time in the paper; here passed alongside it). Used during mutual
  /// attestation of key exchange.
  std::vector<sevsnp::Measurement> trusted_peer_measurements;
  /// KDS address for VCEK fetches during mutual attestation.
  net::Address kds_address;
  /// Ordered KDS mirrors tried when the primary is transiently down; the
  /// fetched chain still has to verify against the pinned AMD root.
  std::vector<net::Address> kds_mirrors;
  /// Transient-transport retry policy for KDS fetches and the leader key
  /// exchange. Defaults to a single attempt (no behavioural change).
  net::RetryPolicy retry{.max_attempts = 1};
};

class RevelioVm {
 public:
  /// Launches and boots the VM on `sp`, creates its identity, and registers
  /// its endpoints on the network. Fails on any integrity violation.
  static Result<std::unique_ptr<RevelioVm>> deploy(
      sevsnp::AmdSp& sp, net::Network& network, RevelioVmConfig config,
      net::HttpRouter app_routes);

  // --- Observability ----------------------------------------------------

  const vm::BootReport& boot_report() const { return boot_report_; }
  const vm::GuestVm& guest() const { return *guest_; }
  const sevsnp::Measurement& measurement() const {
    return guest_->measurement();
  }

  /// Evidence bundle: report with REPORT_DATA = sha256(identity pubkey).
  const EvidenceBundle& identity_evidence() const {
    return identity_evidence_;
  }
  /// Evidence bundle: report with REPORT_DATA = sha256(CSR).
  const EvidenceBundle& csr_evidence() const { return csr_evidence_; }
  const pki::CertificateSigningRequest& csr() const { return csr_; }
  Bytes identity_public_key() const {
    return identity_.public_encoded(crypto::p256());
  }

  bool serving_tls() const { return tls_server_ != nullptr; }

  /// True when boot found a sealed identity whose monotonic-counter stamp
  /// did not match the chip (volume rollback, or a torn/lost persist).
  /// The record was discarded unserved; the VM booted unprovisioned and
  /// the next SP provisioning round re-seals a fresh identity. Operators
  /// alert on this signal (and on the revelio.rollback.detected.count
  /// metric) — see docs/OPERATIONS.md.
  bool rollback_detected() const { return rollback_detected_; }
  /// Stamp-vs-counter detail for the detection above (empty when none).
  const std::string& rollback_detail() const { return rollback_detail_; }
  const net::Address& bootstrap_address() const { return bootstrap_address_; }

  /// The disk backing this VM (hand to `existing_disk` to reboot it).
  std::shared_ptr<storage::MemDisk> disk() const { return disk_; }

  /// Re-requests both attestation reports (identity and CSR) from the
  /// AMD-SP so the evidence carries the chip's *current* TCB. Operators
  /// call this after a staged firmware update: evidence minted before the
  /// update names the old TCB and is rejected once the fleet's update
  /// horizon passes (failure_step "tcb_horizon"); refreshing re-signs the
  /// unchanged identity under the post-update VCEK.
  Status refresh_evidence();

  /// Direct HTTP dispatch (used by tests; network traffic arrives via the
  /// registered handlers).
  net::HttpResponse dispatch(const net::HttpRequest& request);

 private:
  RevelioVm() = default;

  Status create_identity(sevsnp::AmdSp& sp, net::Network& network);
  Status persist_tls_identity();
  /// Restores a persisted TLS identity from the sealed volume, if any.
  Result<bool> load_tls_identity();
  void register_endpoints(net::Network& network);
  net::HttpResponse handle_bootstrap(const net::HttpRequest& request);
  net::HttpResponse handle_certificate_install(const net::HttpRequest& req);
  net::HttpResponse handle_key_request(const net::HttpRequest& request);
  Status start_tls_server(net::Network& network);
  Status acquire_key_from_leader(const net::Address& leader);

  /// Mutual attestation: fetches the peer's VCEK chain and runs the
  /// relying-party verifier against this node's trusted measurements and,
  /// when given, the key the peer must have attested.
  Status verify_peer_bundle(const EvidenceBundle& bundle,
                            std::optional<Bytes> expected_payload = {});

  RevelioVmConfig config_;
  net::Network* network_ = nullptr;
  /// KDS replica set (primary + mirrors); built once config_ is known.
  std::optional<net::Failover> kds_failover_;
  crypto::HmacDrbg retry_jitter_{to_bytes("vm-retry-jitter")};
  std::shared_ptr<storage::MemDisk> disk_;
  std::unique_ptr<vm::GuestVm> guest_;
  vm::BootReport boot_report_;

  crypto::EcKeyPair identity_;        // per-VM key pair (§5.2.2)
  EvidenceBundle identity_evidence_;
  EvidenceBundle csr_evidence_;
  pki::CertificateSigningRequest csr_;
  crypto::HmacDrbg entropy_{Bytes{}};  // reseeded from the sealing key

  // Installed shared TLS identity (leader's key + ACME certificate).
  std::optional<pki::Certificate> tls_certificate_;
  std::vector<pki::Certificate> tls_chain_;
  std::optional<crypto::U384> tls_private_key_;
  std::unique_ptr<net::TlsServer> tls_server_;
  bool rollback_detected_ = false;
  std::string rollback_detail_;

  net::HttpRouter app_routes_;
  net::Address https_address_;
  net::Address bootstrap_address_;
};

}  // namespace revelio::core
