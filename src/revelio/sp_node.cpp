#include "revelio/sp_node.hpp"

namespace revelio::core {

namespace {
void append_field(Bytes& out, ByteView v) {
  append_u32be(out, static_cast<std::uint32_t>(v.size()));
  append(out, v);
}
}  // namespace

SpNode::SpNode(net::Network& network, pki::AcmeIssuer& acme,
               SpNodeConfig config)
    : network_(&network), acme_(&acme), config_(std::move(config)) {}

void SpNode::approve_node(const net::Address& bootstrap_address,
                          const sevsnp::ChipId& chip_id) {
  approved_[bootstrap_address] = chip_id.bytes();
}

Result<pki::CertificateSigningRequest> SpNode::attest_node(
    const net::Address& bootstrap_address) {
  // The node must be pre-approved: an impersonator with a *valid* report
  // from some other machine still fails the chip-id + address check.
  const auto approved_it = approved_.find(bootstrap_address);
  if (approved_it == approved_.end()) {
    return Error::make("sp.node_not_approved", bootstrap_address.to_string());
  }

  // 1. Retrieve the report-CSR bundle.
  net::HttpRequest request;
  request.method = "GET";
  request.path = "/revelio/csr-bundle";
  request.host = config_.domain;
  auto raw = net::with_retries(
      network_->clock(), retry_jitter_, config_.retry,
      net::Deadline::unlimited(), "sp.csr_fetch", [&] {
        return network_->call(own_address_, bootstrap_address,
                              request.serialize());
      });
  if (!raw.ok()) return raw.error();
  auto response = net::HttpResponse::parse(*raw);
  if (!response.ok()) return response.error();
  if (response->status != 200) {
    return Error::make("sp.bundle_fetch_failed",
                       std::to_string(response->status));
  }
  auto bundle = EvidenceBundle::parse(response->body);
  if (!bundle.ok()) return bundle.error();

  // 2. Chip id must match the approved platform for this address. The SP
  // node's own checks run first, so the verifier's verdict is the last.
  if (bundle->report.chip_id.bytes() != approved_it->second) {
    return Error::make("sp.chip_mismatch",
                       "report comes from an unapproved chip");
  }
  // 3. The CSR itself must verify and name our domain.
  auto csr = pki::CertificateSigningRequest::parse(bundle->payload);
  if (!csr.ok()) return csr.error();
  if (!csr->verify()) {
    return Error::make("sp.bad_csr", "proof of possession failed");
  }
  bool names_domain = false;
  for (const auto& san : csr->san_dns) {
    names_domain = names_domain || san == config_.domain;
  }
  if (!names_domain) {
    return Error::make("sp.bad_csr", "CSR does not name the service domain");
  }
  // 4. The endorsement chain via the KDS.
  auto kds = net::with_retries(
      network_->clock(), retry_jitter_, config_.retry,
      net::Deadline::unlimited(), "sp.kds_fetch", [&] {
        return KdsService::fetch(*network_, own_address_, config_.kds_address,
                                 bundle->report.chip_id,
                                 bundle->report.reported_tcb);
      });
  if (!kds.ok()) return kds.error();
  // 5. The relying-party gates: the CSR hash imprinted in REPORT_DATA
  // (§5.2.2), revocation, TCB horizon, signature + chain, measurement.
  RelyingPartyPolicy policy;
  static_cast<MeasurementPolicy&>(policy) = config_;
  static_cast<FleetState&>(policy) = config_;
  if (auto st = verify_evidence(*bundle, *kds, network_->clock().now_us(),
                                std::move(policy));
      !st.ok()) {
    return st.error();
  }
  return csr;
}

Result<pki::Certificate> SpNode::obtain_certificate(
    const pki::CertificateSigningRequest& leader_csr) {
  // DNS-01: the SP node controls the domain's DNS (the credentials never
  // leave its premises).
  const std::string token =
      acme_->request_challenge(config_.acme_account, config_.domain);
  network_->dns_set_txt("_acme-challenge." + config_.domain, token);
  // An `acme.unavailable` outage is transient and retried on backoff; an
  // issuance *refusal* (bad CSR, failed challenge, rate limit) is final.
  auto cert = net::with_retries(
      network_->clock(), retry_jitter_, config_.retry,
      net::Deadline::unlimited(), "sp.acme_finalize", [&] {
        return acme_->finalize(config_.acme_account, leader_csr,
                               [this](const std::string& name) {
                                 return network_->dns_txt(name);
                               });
      });
  network_->dns_clear_txt("_acme-challenge." + config_.domain);
  return cert;
}

Status SpNode::distribute_certificate(const net::Address& node,
                                      const net::Address& leader) {
  Bytes body;
  append_field(body, certificate_->serialize());
  append_u32be(body, static_cast<std::uint32_t>(chain_.size()));
  for (const auto& link : chain_) append_field(body, link.serialize());
  append_field(body, to_bytes(leader.host));
  append_u32be(body, leader.port);

  net::HttpRequest request;
  request.method = "POST";
  request.path = "/revelio/certificate";
  request.host = config_.domain;
  request.body = std::move(body);
  // Certificate installation is idempotent on the node, so re-sending
  // after a transport loss is safe.
  auto raw = net::with_retries(
      network_->clock(), retry_jitter_, config_.retry,
      net::Deadline::unlimited(), "sp.distribute",
      [&] { return network_->call(own_address_, node, request.serialize()); });
  if (!raw.ok()) return raw.error();
  auto response = net::HttpResponse::parse(*raw);
  if (!response.ok()) return response.error();
  if (response->status != 200) {
    return Error::make("sp.distribution_failed", to_string(response->body));
  }
  return Status::success();
}

Result<std::vector<NodeAttestation>> SpNode::provision_fleet() {
  if (approved_.empty()) {
    return Error::make("sp.no_nodes", "no approved nodes registered");
  }
  std::vector<NodeAttestation> outcomes;
  std::optional<net::Address> leader;
  std::optional<pki::CertificateSigningRequest> leader_csr;

  // Round 1: attest everyone; first healthy node becomes the leader.
  for (const auto& [address, chip] : approved_) {
    NodeAttestation outcome;
    outcome.bootstrap_address = address;
    auto csr = attest_node(address);
    if (csr.ok()) {
      outcome.attested = true;
      outcome.public_key = csr->public_key;
      if (!leader) {
        leader = address;
        leader_csr = std::move(*csr);
      }
    } else {
      outcome.failure = csr.error().to_string();
    }
    outcomes.push_back(std::move(outcome));
  }
  if (!leader) {
    return Error::make("sp.no_healthy_nodes",
                       "every node failed attestation");
  }

  // Round 2: one shared certificate for the leader's key (§3.4.6).
  auto cert = obtain_certificate(*leader_csr);
  if (!cert.ok()) return cert.error();
  certificate_ = std::move(*cert);
  chain_ = acme_->intermediates();

  // Round 3: distribute; the leader installs directly, the others fetch the
  // wrapped key from the leader during the same exchange (Fig 4).
  // The leader must be first so it is ready to serve key requests.
  if (auto st = distribute_certificate(*leader, *leader); !st.ok()) {
    return st.error();
  }
  for (auto& outcome : outcomes) {
    if (!outcome.attested || outcome.bootstrap_address == *leader) continue;
    if (auto st = distribute_certificate(outcome.bootstrap_address, *leader);
        !st.ok()) {
      outcome.attested = false;
      outcome.failure = st.error().to_string();
    }
  }
  return outcomes;
}

}  // namespace revelio::core
