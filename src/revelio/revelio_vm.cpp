#include "revelio/revelio_vm.hpp"

#include <chrono>

#include "crypto/ecies.hpp"
#include "obs/metrics.hpp"

namespace revelio::core {

namespace {

/// AMD-SP monotonic counter slot stamping the sealed TLS identity record.
constexpr std::size_t kIdentityCounterSlot = 0;

/// Parses "host:port" from a length-prefixed wire field layout used by the
/// certificate-install message.
struct Reader {
  ByteView data;
  std::size_t off = 0;
  bool failed = false;

  std::uint32_t u32() {
    if (off + 4 > data.size()) {
      failed = true;
      return 0;
    }
    const std::uint32_t v = read_u32be(data, off);
    off += 4;
    return v;
  }
  std::uint64_t u64() {
    if (off + 8 > data.size()) {
      failed = true;
      return 0;
    }
    const std::uint64_t v = read_u64be(data, off);
    off += 8;
    return v;
  }
  Bytes bytes() {
    const std::uint32_t len = u32();
    if (failed || off + len > data.size()) {
      failed = true;
      return {};
    }
    Bytes b = to_bytes(data.subspan(off, len));
    off += len;
    return b;
  }
};

void append_field(Bytes& out, ByteView v) {
  append_u32be(out, static_cast<std::uint32_t>(v.size()));
  append(out, v);
}

}  // namespace

Result<std::unique_ptr<RevelioVm>> RevelioVm::deploy(
    sevsnp::AmdSp& sp, net::Network& network, RevelioVmConfig config,
    net::HttpRouter app_routes) {
  auto node = std::unique_ptr<RevelioVm>(new RevelioVm());
  node->config_ = std::move(config);
  node->network_ = &network;
  node->app_routes_ = std::move(app_routes);
  node->https_address_ = {node->config_.host, node->config_.https_port};
  node->bootstrap_address_ = {node->config_.host,
                              node->config_.bootstrap_port};
  std::vector<net::Address> kds_replicas{node->config_.kds_address};
  kds_replicas.insert(kds_replicas.end(), node->config_.kds_mirrors.begin(),
                      node->config_.kds_mirrors.end());
  node->kds_failover_.emplace(std::move(kds_replicas),
                              net::CircuitBreaker::Config{}, "vm-kds");
  node->retry_jitter_.reseed(to_bytes(node->config_.host));

  // 1. Measured direct boot through the (untrusted) hypervisor.
  vm::Hypervisor hypervisor(sp, network.clock());
  vm::LaunchConfig launch;
  launch.kernel_blob = node->config_.image.kernel_blob;
  launch.initrd_blob = node->config_.image.initrd_blob;
  launch.cmdline = node->config_.image.cmdline;
  node->disk_ = node->config_.existing_disk
                    ? node->config_.existing_disk
                    : std::move(node->config_.image).instantiate_disk();
  launch.disk = node->disk_;
  auto guest = hypervisor.launch(launch);
  if (!guest.ok()) return guest.error();
  node->guest_ = std::move(*guest);

  // 2. Guest init: verity, sealed volume, services.
  auto report = node->guest_->boot();
  if (!report.ok()) return report.error();
  node->boot_report_ = std::move(*report);

  // 3. Revelio first-boot service: identity creation (§5.2.2). The
  // identity is derived from the measurement-bound sealing entropy, so a
  // reboot of the same image on the same chip recreates the same identity.
  if (auto st = node->create_identity(sp, network); !st.ok()) {
    return st.error();
  }

  // 4. Reboot path: unseal a previously installed TLS identity and resume
  // serving immediately (no SP round needed). A counter-stamp mismatch
  // (volume rollback, torn persist) restores nothing: the stale record is
  // discarded, rollback_detected() reports it, and the node boots
  // unprovisioned so the next SP round re-seals a fresh identity.
  auto restored = node->load_tls_identity();
  if (!restored.ok()) return restored.error();
  if (*restored) {
    if (auto st = node->start_tls_server(network); !st.ok()) {
      return st.error();
    }
  }

  // 5. Network endpoints (subject to the measured firewall posture).
  node->register_endpoints(network);
  return node;
}

Status RevelioVm::create_identity(sevsnp::AmdSp& sp, net::Network& network) {
  (void)sp;
  (void)network;
  const auto start = std::chrono::steady_clock::now();

  auto& channel = guest_->channel();
  // Identity entropy comes from the measured context via the protected
  // channel; a different image (or chip) yields a different identity.
  sevsnp::KeyDerivationPolicy id_policy;
  id_policy.mix_measurement = true;
  id_policy.context = "revelio-vm-identity";
  auto seed = channel.request_key(id_policy, 48);
  if (!seed.ok()) return seed.error();
  crypto::HmacDrbg keygen(*seed, to_bytes(std::string_view("identity")));
  identity_ = crypto::ec_generate(crypto::p256(), keygen);

  sevsnp::KeyDerivationPolicy rng_policy;
  rng_policy.mix_measurement = true;
  rng_policy.context = "revelio-vm-entropy";
  auto rng_seed = channel.request_key(rng_policy, 48);
  if (!rng_seed.ok()) return rng_seed.error();
  entropy_ = crypto::HmacDrbg(*rng_seed, to_bytes(config_.host));

  // CSR for the service domain (§5.2.2).
  csr_ = pki::make_csr(crypto::p256(), identity_,
                       {config_.domain, "Revelio Service", "CH"},
                       {config_.domain});

  // Report #1: REPORT_DATA = sha256(public key).
  const Bytes pubkey = identity_.public_encoded(crypto::p256());
  auto id_report = channel.request_report(EvidenceBundle::bind(pubkey));
  if (!id_report.ok()) return id_report.error();
  identity_evidence_ = EvidenceBundle{std::move(*id_report), pubkey};

  // Report #2: REPORT_DATA = sha256(CSR).
  const Bytes csr_bytes = csr_.serialize();
  auto csr_report = channel.request_report(EvidenceBundle::bind(csr_bytes));
  if (!csr_report.ok()) return csr_report.error();
  csr_evidence_ = EvidenceBundle{std::move(*csr_report), csr_bytes};

  const double real_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  guest_->clock().advance_us(SimClock::from_ms(real_ms));
  boot_report_.phases.push_back(
      vm::BootPhase{"identity creation", real_ms, real_ms});
  return Status::success();
}

void RevelioVm::register_endpoints(net::Network& network) {
  // The bootstrap surface carries only self-authenticating evidence and
  // provisioning messages; it must still be on an allowed port.
  if (guest_->inbound_allowed(config_.bootstrap_port)) {
    network.listen(bootstrap_address_,
                   [this](ByteView raw, const net::Address&) {
                     auto request = net::HttpRequest::parse(raw);
                     if (!request.ok()) {
                       return net::HttpResponse::error(400, "bad frame")
                           .serialize();
                     }
                     return handle_bootstrap(*request).serialize();
                   });
  }
}

net::HttpResponse RevelioVm::dispatch(const net::HttpRequest& request) {
  if (request.path == "/.well-known/revelio-attestation") {
    return net::HttpResponse::ok(identity_evidence_.serialize(),
                                 "application/revelio-evidence");
  }
  return app_routes_.dispatch(request);
}

net::HttpResponse RevelioVm::handle_bootstrap(
    const net::HttpRequest& request) {
  if (request.method == "GET" && request.path == "/revelio/csr-bundle") {
    return net::HttpResponse::ok(csr_evidence_.serialize(),
                                 "application/revelio-evidence");
  }
  if (request.method == "POST" && request.path == "/revelio/certificate") {
    return handle_certificate_install(request);
  }
  if (request.method == "POST" && request.path == "/revelio/key-request") {
    return handle_key_request(request);
  }
  return net::HttpResponse::not_found();
}

net::HttpResponse RevelioVm::handle_certificate_install(
    const net::HttpRequest& request) {
  // Body: cert | chain_count | chain... | leader_host | leader_port(u32)
  Reader r{request.body};
  const Bytes cert_bytes = r.bytes();
  auto cert = pki::Certificate::parse(cert_bytes);
  if (!cert.ok()) return net::HttpResponse::error(400, "bad certificate");
  const std::uint32_t chain_count = r.u32();
  if (chain_count > 8) return net::HttpResponse::error(400, "chain too long");
  std::vector<pki::Certificate> chain;
  for (std::uint32_t i = 0; i < chain_count && !r.failed; ++i) {
    auto link = pki::Certificate::parse(r.bytes());
    if (!link.ok()) return net::HttpResponse::error(400, "bad chain");
    chain.push_back(std::move(*link));
  }
  const Bytes leader_host = r.bytes();
  const std::uint32_t leader_port = r.u32();
  if (r.failed) return net::HttpResponse::error(400, "truncated");

  if (!cert->matches_dns(config_.domain)) {
    return net::HttpResponse::error(400, "certificate names wrong domain");
  }
  tls_certificate_ = std::move(*cert);
  tls_chain_ = std::move(chain);

  if (tls_certificate_->public_key == identity_public_key()) {
    // We are the leader: the certified key is ours.
    tls_private_key_ = identity_.d;
    if (auto st = persist_tls_identity(); !st.ok()) {
      return net::HttpResponse::error(500, st.error().to_string());
    }
    if (auto st = start_tls_server(*network_); !st.ok()) {
      return net::HttpResponse::error(500, st.error().to_string());
    }
    return net::HttpResponse::ok(to_bytes(std::string_view("leader-ready")));
  }

  // Otherwise fetch the shared private key from the leader (Fig 4).
  const net::Address leader{to_string(leader_host),
                            static_cast<std::uint16_t>(leader_port)};
  if (auto st = acquire_key_from_leader(leader); !st.ok()) {
    return net::HttpResponse::error(502, st.error().to_string());
  }
  if (auto st = start_tls_server(*network_); !st.ok()) {
    return net::HttpResponse::error(500, st.error().to_string());
  }
  return net::HttpResponse::ok(to_bytes(std::string_view("node-ready")));
}

Status RevelioVm::verify_peer_bundle(const EvidenceBundle& bundle,
                                     std::optional<Bytes> expected_payload) {
  auto kds = net::with_retries(
      network_->clock(), retry_jitter_, config_.retry,
      net::Deadline::unlimited(), "vm.kds_fetch", [&] {
        return kds_failover_->execute(
            network_->clock(), [&](const net::Address& kds_addr) {
              return KdsService::fetch(*network_, https_address_, kds_addr,
                                       bundle.report.chip_id,
                                       bundle.report.reported_tcb);
            });
      });
  if (!kds.ok()) return kds.error();
  // The peer must run a trusted image (usually our own).
  RelyingPartyPolicy policy;
  static_cast<FleetState&>(policy) = config_;
  policy.expected_measurements = config_.trusted_peer_measurements;
  policy.expected_measurements.push_back(guest_->measurement());
  policy.expected_payload = std::move(expected_payload);
  return verify_evidence(bundle, *kds, network_->clock().now_us(),
                         std::move(policy));
}

net::HttpResponse RevelioVm::handle_key_request(
    const net::HttpRequest& request) {
  if (!tls_private_key_ || !tls_certificate_) {
    return net::HttpResponse::error(503, "no TLS identity installed yet");
  }
  if (!(tls_certificate_->public_key == identity_public_key())) {
    return net::HttpResponse::error(403, "not the leader");
  }
  auto bundle = EvidenceBundle::parse(request.body);
  if (!bundle.ok()) return net::HttpResponse::error(400, "bad bundle");
  if (auto st = verify_peer_bundle(*bundle); !st.ok()) {
    return net::HttpResponse::error(403, st.error().to_string());
  }
  // Wrap the private key for the attested peer's public key.
  auto wrapped =
      crypto::ecies_seal(crypto::p256(), bundle->payload,
                         tls_private_key_->to_bytes_be(32), entropy_);
  if (!wrapped.ok()) {
    return net::HttpResponse::error(500, wrapped.error().to_string());
  }
  // Response: leader evidence bundle | wrapped key.
  Bytes body;
  append_field(body, identity_evidence_.serialize());
  append_field(body, *wrapped);
  return net::HttpResponse::ok(std::move(body),
                               "application/revelio-keywrap");
}

Status RevelioVm::acquire_key_from_leader(const net::Address& leader) {
  net::HttpRequest request;
  request.method = "POST";
  request.path = "/revelio/key-request";
  request.host = config_.domain;
  request.body = identity_evidence_.serialize();
  // The key request is idempotent (the leader just re-wraps the same key),
  // so resending after a transport loss is safe.
  auto raw = net::with_retries(
      network_->clock(), retry_jitter_, config_.retry,
      net::Deadline::unlimited(), "vm.key_request",
      [&] { return network_->call(https_address_, leader, request.serialize()); });
  if (!raw.ok()) return raw.error();
  auto response = net::HttpResponse::parse(*raw);
  if (!response.ok()) return response.error();
  if (response->status != 200) {
    return Error::make("revelio.key_request_refused",
                       to_string(response->body));
  }
  Reader r{response->body};
  const Bytes leader_bundle_bytes = r.bytes();
  const Bytes wrapped = r.bytes();
  if (r.failed) return Error::make("revelio.bad_key_response");

  // Mutually attest: validate the leader's evidence before trusting the
  // key. The leader's attested key must be the one in the certificate.
  auto leader_bundle = EvidenceBundle::parse(leader_bundle_bytes);
  if (!leader_bundle.ok()) return leader_bundle.error();
  if (auto st = verify_peer_bundle(*leader_bundle,
                                   tls_certificate_->public_key);
      !st.ok()) {
    return st;
  }

  auto key_bytes = crypto::ecies_open(crypto::p256(), identity_.d, wrapped);
  if (!key_bytes.ok()) return key_bytes.error();
  // A P-256 private key is exactly 32 bytes; anything else would overrun
  // the decoder (> 48 bytes) or alias a differently encoded key.
  if (key_bytes->size() != 32) {
    return Error::make("revelio.bad_key_response", "wrapped key length");
  }
  const crypto::U384 key = crypto::U384::from_bytes_be(*key_bytes);
  // Sanity: the received private key must match the certificate.
  const auto derived = crypto::p256().scalar_mult_base(key);
  if (!(crypto::p256().encode_point(derived) ==
        tls_certificate_->public_key)) {
    return Error::make("revelio.key_cert_mismatch",
                       "received key does not match the certificate");
  }
  tls_private_key_ = key;
  return persist_tls_identity();
}

Status RevelioVm::refresh_evidence() {
  // The identity key pair and CSR are unchanged — only the reports are
  // re-signed, so the new bundles bind the same public key and CSR bytes
  // under the VCEK of the chip's current (post-update) TCB.
  auto& channel = guest_->channel();
  const Bytes pubkey = identity_.public_encoded(crypto::p256());
  auto id_report = channel.request_report(EvidenceBundle::bind(pubkey));
  if (!id_report.ok()) return id_report.error();
  const Bytes csr_bytes = csr_.serialize();
  auto csr_report = channel.request_report(EvidenceBundle::bind(csr_bytes));
  if (!csr_report.ok()) return csr_report.error();
  identity_evidence_ = EvidenceBundle{std::move(*id_report), pubkey};
  csr_evidence_ = EvidenceBundle{std::move(*csr_report), csr_bytes};
  return Status::success();
}

Status RevelioVm::persist_tls_identity() {
  // The private key (and the certificate it belongs to) lives in the
  // sealed (dm-crypt) partition: unreadable at rest, after migration to a
  // different image, and after decommissioning (§5.3.1, F6).
  auto volume = guest_->data_volume();
  if (!volume) return Error::make("revelio.no_sealed_volume");
  if (!tls_private_key_ || !tls_certificate_) {
    return Error::make("revelio.no_tls_identity", "nothing to persist");
  }
  // Rollback defence: every persist advances the AMD-SP's measurement-
  // bound monotonic counter and stamps the new value into the sealed
  // record. The counter lives in the chip, out of the host's reach, so a
  // host that later serves an older volume snapshot presents a stale
  // stamp — load_tls_identity refuses it (§6.1.4 applied to state).
  //
  // Ordering matters for availability: stamp the record with counter+1,
  // write it durably, and only then advance the chip counter. An ordinary
  // write failure therefore leaves the counter untouched and the
  // previously sealed record still matching — the node stays bootable. A
  // crash in the window between the write and the increment leaves the
  // stamp one AHEAD of the chip; load_tls_identity treats any mismatch
  // the same way (discard, re-provision), never as trusted state.
  auto counter =
      guest_->channel().request_counter(kIdentityCounterSlot, false);
  if (!counter.ok()) return counter.error();
  const std::uint64_t stamp = *counter + 1;
  Bytes record;
  append(record, std::string_view("TLSID2"));
  append_u64be(record, stamp);
  append_field(record, tls_private_key_->to_bytes_be(32));
  append_field(record, tls_certificate_->serialize());
  append_u32be(record, static_cast<std::uint32_t>(tls_chain_.size()));
  for (const auto& link : tls_chain_) append_field(record, link.serialize());
  if (record.size() > volume->block_size()) {
    return Error::make("revelio.identity_too_large");
  }
  record.resize(volume->block_size(), 0);
  if (auto st = volume->write_block(0, record); !st.ok()) return st;
  auto advanced = guest_->channel().request_counter(kIdentityCounterSlot, true);
  if (!advanced.ok()) return advanced.error();
  if (*advanced != stamp) {
    // Another persist raced this one between read and increment; the
    // record on disk no longer matches the chip. Surface it — the next
    // boot will discard and re-provision rather than serve it.
    return Error::make("revelio.counter_skew",
                       "chip counter advanced to " + std::to_string(*advanced) +
                           ", stamped " + std::to_string(stamp));
  }
  return Status::success();
}

Result<bool> RevelioVm::load_tls_identity() {
  auto volume = guest_->data_volume();
  if (!volume) return false;  // image built without a sealed volume
  Bytes record(volume->block_size());
  if (auto st = volume->read_block(0, record); !st.ok()) return st.error();
  constexpr std::string_view kTag = "TLSID2";
  if (record.size() < kTag.size() ||
      to_string(ByteView(record).subspan(0, kTag.size())) != kTag) {
    return false;  // first boot: nothing persisted yet
  }
  Reader r{record, kTag.size()};
  const std::uint64_t stamped = r.u64();
  // Freshness first: the stamp must equal the chip counter exactly. Less
  // means the host rolled the volume back to an older snapshot (or a
  // persist's durable write was lost after the counter moved); more means
  // a torn persist crashed between write and increment. Either way the
  // identity inside must not be trusted or served — but detection must
  // not brick the node either: the record is discarded unserved, the
  // detection is surfaced (rollback_detected() + metric, for operator
  // alerting — see docs/OPERATIONS.md), and boot falls through to the
  // fresh-provision path. The next SP round re-attests this VM from
  // scratch and re-seals a new identity with a fresh stamp. Fail closed
  // on trust, not on availability.
  auto counter =
      guest_->channel().request_counter(kIdentityCounterSlot, false);
  if (!counter.ok()) return counter.error();
  if (stamped != *counter) {
    rollback_detected_ = true;
    rollback_detail_ = "sealed identity stamp " + std::to_string(stamped) +
                       " != chip counter " + std::to_string(*counter);
    obs::metrics().counter("revelio.rollback.detected.count").inc();
    return false;
  }
  const Bytes key_bytes = r.bytes();
  const Bytes cert_bytes = r.bytes();
  const std::uint32_t chain_count = r.u32();
  if (r.failed || key_bytes.size() != 32 || chain_count > 8) {
    return Error::make("revelio.corrupt_persisted_identity");
  }
  auto cert = pki::Certificate::parse(cert_bytes);
  if (!cert.ok()) return cert.error();
  std::vector<pki::Certificate> chain;
  for (std::uint32_t i = 0; i < chain_count; ++i) {
    auto link = pki::Certificate::parse(r.bytes());
    if (!link.ok()) return link.error();
    chain.push_back(std::move(*link));
  }
  if (r.failed) return Error::make("revelio.corrupt_persisted_identity");

  const crypto::U384 key = crypto::U384::from_bytes_be(key_bytes);
  const auto derived = crypto::p256().scalar_mult_base(key);
  if (!(crypto::p256().encode_point(derived) == cert->public_key)) {
    return Error::make("revelio.corrupt_persisted_identity",
                       "key does not match certificate");
  }
  tls_private_key_ = key;
  tls_certificate_ = std::move(*cert);
  tls_chain_ = std::move(chain);
  return true;
}

Status RevelioVm::start_tls_server(net::Network& network) {
  if (!tls_private_key_ || !tls_certificate_) {
    return Error::make("revelio.no_tls_identity");
  }
  if (!guest_->inbound_allowed(config_.https_port)) {
    return Error::make("revelio.port_blocked",
                       "https port not in the measured firewall allowlist");
  }
  net::TlsServerIdentity identity;
  identity.curve = &crypto::p256();
  identity.key =
      crypto::EcKeyPair{*tls_private_key_,
                        crypto::p256().scalar_mult_base(*tls_private_key_)};
  identity.certificate = *tls_certificate_;
  identity.intermediates = tls_chain_;
  tls_server_ = std::make_unique<net::TlsServer>(
      std::move(identity),
      [this](ByteView plaintext, const net::Address&) {
        auto request = net::HttpRequest::parse(plaintext);
        if (!request.ok()) {
          return net::HttpResponse::error(400, "bad frame").serialize();
        }
        return dispatch(*request).serialize();
      },
      crypto::HmacDrbg(entropy_.generate(32),
                       to_bytes(std::string_view("tls-server"))));
  tls_server_->install(network, https_address_);
  return Status::success();
}

}  // namespace revelio::core
