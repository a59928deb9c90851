#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "crypto/ecdsa.hpp"
#include "crypto/ecies.hpp"
#include "fleet/tcb_horizon.hpp"
#include "imagebuild/builder.hpp"
#include "obs/audit_log.hpp"
#include "obs/metrics.hpp"
#include "revelio/revelio_vm.hpp"
#include "revelio/revocation.hpp"
#include "revelio/sp_node.hpp"
#include "revelio/trusted_registry.hpp"
#include "revelio/web_extension.hpp"
#include "storage/partition.hpp"

namespace revelio::core {
namespace {

using crypto::HmacDrbg;

constexpr const char* kDomain = "svc.revelio.app";

/// An audit log that keeps every verdict record appended to it.
struct AuditCapture {
  AuditCapture() {
    log.set_sink([this](std::uint8_t, ByteView body) {
      if (auto rec = obs::AuditRecord::parse(body); rec.ok()) {
        records.push_back(*rec);
      }
      return Status::success();
    });
  }

  obs::AuditLog log{/*checkpoint_interval=*/1024};
  std::vector<obs::AuditRecord> records;
};

/// Full deployment fixture: 3 SEV-SNP platforms, KDS, ACME, SP node,
/// 3 Revelio VMs behind one domain, a browser with the extension.
struct RevelioFixture : ::testing::Test {
  RevelioFixture()
      : network(clock),
        fixture_drbg(to_bytes(std::string_view("revelio-e2e"))),
        kds(fixture_drbg),
        kds_service(kds, network, {"kds.amd.com", 443}),
        acme(clock, fixture_drbg) {
    // Base image + service artefacts.
    imagebuild::BaseImage base;
    base.name = "ubuntu";
    base.tag = "20.04";
    base.packages = {
        {"nginx", "1.18", {{"/usr/sbin/nginx",
                            to_bytes(std::string_view("nginx-binary"))}}}};
    base_digest = registry.publish(base);

    image = build_image("service-binary-v1");
    expected_measurement = vm::Hypervisor::expected_measurement(
        image.kernel_blob, image.initrd_blob, image.cmdline);
  }

  imagebuild::VmImage build_image(std::string_view service_content) {
    imagebuild::BuildInputs inputs;
    inputs.base_image_digest = base_digest;
    inputs.service_files["/opt/service/app"] = to_bytes(service_content);
    inputs.initrd.services = {{"nginx", "/usr/sbin/nginx", 120.0},
                              {"app", "/opt/service/app", 300.0}};
    inputs.initrd.allowed_inbound_ports = {"443", "8443"};
    imagebuild::ImageBuilder builder(registry);
    auto built = builder.build(inputs);
    EXPECT_TRUE(built.ok());
    return *built;
  }

  net::HttpRouter app_routes() {
    net::HttpRouter routes;
    routes.route("GET", "/", [](const net::HttpRequest&) {
      return net::HttpResponse::ok(to_bytes(std::string_view("<html>app</html>")),
                                   "text/html");
    });
    return routes;
  }

  /// Deploys one node on a fresh platform; `config` may carry the fleet
  /// state its key exchange consults.
  std::unique_ptr<RevelioVm> deploy_node(const std::string& host,
                                         const imagebuild::VmImage& img,
                                         RevelioVmConfig config = {}) {
    auto sp = std::make_unique<sevsnp::AmdSp>(
        to_bytes("platform-" + host), sevsnp::TcbVersion{2, 0, 8, 115});
    kds.register_platform(*sp);
    config.domain = kDomain;
    config.host = host;
    config.image = img;
    config.kds_address = {"kds.amd.com", 443};
    auto node = RevelioVm::deploy(*sp, network, config, app_routes());
    EXPECT_TRUE(node.ok()) << (node.ok() ? "" : node.error().to_string());
    platforms.push_back(std::move(sp));
    return std::move(*node);
  }

  /// Deploys the standard 3-node fleet and provisions certificates.
  void provision_standard_fleet(const RevelioVmConfig& node_config = {}) {
    for (const std::string host : {"10.0.0.1", "10.0.0.2", "10.0.0.3"}) {
      nodes.push_back(deploy_node(host, image, node_config));
    }
    SpNodeConfig sp_config;
    sp_config.domain = kDomain;
    sp_config.kds_address = {"kds.amd.com", 443};
    sp_config.expected_measurements = {expected_measurement};
    sp = std::make_unique<SpNode>(network, acme, sp_config);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      sp->approve_node(nodes[i]->bootstrap_address(),
                       platforms[i]->chip_id());
    }
    auto outcomes = sp->provision_fleet();
    ASSERT_TRUE(outcomes.ok()) << outcomes.error().to_string();
    fleet_outcomes = *outcomes;
    network.dns_set_a(kDomain, "10.0.0.1");
  }

  Browser make_browser() {
    return Browser(network, "laptop", acme.trusted_roots(),
                   HmacDrbg(to_bytes(std::string_view("browser-entropy"))));
  }

  WebExtension make_extension(Browser& browser) {
    WebExtensionConfig config;
    config.kds_address = {"kds.amd.com", 443};
    return WebExtension(browser, config);
  }

  SiteRegistration manual_registration() {
    SiteRegistration site;
    site.expected_measurements = {expected_measurement};
    return site;
  }

  /// Repoints the domain at a lookalike holding a CA-valid certificate for
  /// a fresh key. It serves `evidence` on the well-known route and a page
  /// everywhere else, so the blocking path's page fetch still succeeds.
  void serve_lookalike(net::HttpResponse evidence) {
    HmacDrbg drbg(to_bytes(std::string_view("lookalike")));
    const auto key = crypto::ec_generate(crypto::p256(), drbg);
    const auto csr = pki::make_csr(crypto::p256(), key,
                                   {kDomain, "Lookalike", "US"}, {kDomain});
    const std::string token = acme.request_challenge("lookalike", kDomain);
    network.dns_set_txt("_acme-challenge." + std::string(kDomain), token);
    auto cert = acme.finalize("lookalike", csr, [&](const auto& name) {
      return network.dns_txt(name);
    });
    ASSERT_TRUE(cert.ok());
    net::TlsServerIdentity identity;
    identity.curve = &crypto::p256();
    identity.key = key;
    identity.certificate = *cert;
    identity.intermediates = acme.intermediates();
    const Bytes evidence_wire = evidence.serialize();
    lookalike = std::make_unique<net::TlsServer>(
        std::move(identity),
        [evidence_wire](ByteView raw, const net::Address&) {
          auto request = net::HttpRequest::parse(raw);
          if (request.ok() &&
              request->path == "/.well-known/revelio-attestation") {
            return evidence_wire;
          }
          return net::HttpResponse::ok(
                     to_bytes(std::string_view("<html>lookalike</html>")))
              .serialize();
        },
        HmacDrbg(to_bytes(std::string_view("lookalike-entropy"))));
    lookalike->install(network, {"6.6.6.6", 443});
    network.dns_set_a(kDomain, "6.6.6.6");
  }

  SimClock clock;
  net::Network network;
  HmacDrbg fixture_drbg;
  sevsnp::KeyDistributionServer kds;
  KdsService kds_service;
  pki::AcmeIssuer acme;
  imagebuild::PackageRegistry registry;
  crypto::Digest32 base_digest;
  imagebuild::VmImage image;
  sevsnp::Measurement expected_measurement;
  std::vector<std::unique_ptr<sevsnp::AmdSp>> platforms;
  std::vector<std::unique_ptr<RevelioVm>> nodes;
  std::unique_ptr<SpNode> sp;
  std::vector<NodeAttestation> fleet_outcomes;
  std::unique_ptr<net::TlsServer> lookalike;
};

// ------------------------------------------------------------ provisioning

TEST_F(RevelioFixture, FleetProvisioningSharesOneCertificate) {
  provision_standard_fleet();
  ASSERT_EQ(fleet_outcomes.size(), 3u);
  for (const auto& outcome : fleet_outcomes) {
    EXPECT_TRUE(outcome.attested) << outcome.failure;
  }
  for (const auto& node : nodes) {
    EXPECT_TRUE(node->serving_tls());
  }
  // One ACME issuance for the whole fleet (rate-limit friendly, §3.4.6).
  EXPECT_EQ(acme.issued_in_window("revelio.app"), 1u);
  ASSERT_TRUE(sp->issued_certificate().has_value());
  // The certificate key is the leader's identity key.
  EXPECT_EQ(sp->issued_certificate()->public_key,
            nodes[0]->identity_public_key());
}

TEST_F(RevelioFixture, AcmeOutageRetriedOnBackoffUntilWindowEnds) {
  for (const std::string host : {"10.0.0.1", "10.0.0.2", "10.0.0.3"}) {
    nodes.push_back(deploy_node(host, image));
  }
  SpNodeConfig sp_config;
  sp_config.domain = kDomain;
  sp_config.kds_address = {"kds.amd.com", 443};
  sp_config.expected_measurements = {expected_measurement};
  sp_config.retry = {.max_attempts = 6,
                     .initial_backoff_ms = 200.0,
                     .multiplier = 2.0,
                     .max_backoff_ms = 1600.0,
                     .jitter = 0.0};
  sp = std::make_unique<SpNode>(network, acme, sp_config);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    sp->approve_node(nodes[i]->bootstrap_address(), platforms[i]->chip_id());
  }
  // CA maintenance window opens now and lasts 500ms of virtual time; the
  // SP's backoff schedule (200, 400, ...) carries the clock past it.
  const auto outage_end = clock.now_us() + 500'000;
  acme.set_outage_window(clock.now_us(), outage_end);
  const std::uint64_t attempts_before = obs::metrics().counter_value(
      "retry.attempts", {{"op", "sp.acme_finalize"}});

  auto outcomes = sp->provision_fleet();
  ASSERT_TRUE(outcomes.ok()) << outcomes.error().to_string();
  for (const auto& outcome : *outcomes) {
    EXPECT_TRUE(outcome.attested) << outcome.failure;
  }
  ASSERT_TRUE(sp->issued_certificate().has_value());
  // Issuance only succeeded after the window closed, on a later attempt.
  EXPECT_GE(clock.now_us(), outage_end);
  EXPECT_GE(obs::metrics().counter_value("retry.attempts",
                                         {{"op", "sp.acme_finalize"}}),
            attempts_before + 2);
}

TEST_F(RevelioFixture, AllNodesServeTheSameTlsIdentity) {
  provision_standard_fleet();
  Browser browser = make_browser();
  // Hit every node directly: the served leaf key must be identical.
  Bytes first_key;
  for (const std::string host : {"10.0.0.1", "10.0.0.2", "10.0.0.3"}) {
    network.dns_set_a(kDomain, host);
    browser.drop_session(kDomain);
    auto result = browser.get(kDomain, 443, "/");
    ASSERT_TRUE(result.ok()) << result.error().to_string();
    if (first_key.empty()) {
      first_key = result->tls_server_key;
    } else {
      EXPECT_EQ(result->tls_server_key, first_key);
    }
  }
}

TEST_F(RevelioFixture, TamperedNodeFailsSpAttestationOthersProceed) {
  nodes.push_back(deploy_node("10.0.0.1", image));
  // Node 2 runs a backdoored build.
  const imagebuild::VmImage backdoored = build_image("service-backdoored");
  nodes.push_back(deploy_node("10.0.0.2", backdoored));

  SpNodeConfig sp_config;
  sp_config.domain = kDomain;
  sp_config.kds_address = {"kds.amd.com", 443};
  sp_config.expected_measurements = {expected_measurement};
  AuditCapture audit;
  sp_config.audit_log = &audit.log;
  sp = std::make_unique<SpNode>(network, acme, sp_config);
  sp->approve_node(nodes[0]->bootstrap_address(), platforms[0]->chip_id());
  sp->approve_node(nodes[1]->bootstrap_address(), platforms[1]->chip_id());

  auto outcomes = sp->provision_fleet();
  ASSERT_TRUE(outcomes.ok());
  ASSERT_EQ(outcomes->size(), 2u);
  EXPECT_TRUE((*outcomes)[0].attested);
  EXPECT_FALSE((*outcomes)[1].attested);
  EXPECT_NE((*outcomes)[1].failure.find("attest.measurement"),
            std::string::npos);
  ASSERT_EQ(audit.records.size(), 2u);
  EXPECT_TRUE(audit.records[0].accepted);
  EXPECT_EQ(audit.records[1].failure_step, "measurement");
  EXPECT_TRUE(nodes[0]->serving_tls());
  EXPECT_FALSE(nodes[1]->serving_tls());
}

TEST_F(RevelioFixture, WrongChipRejectedDespiteValidReport) {
  nodes.push_back(deploy_node("10.0.0.1", image));
  SpNodeConfig sp_config;
  sp_config.domain = kDomain;
  sp_config.kds_address = {"kds.amd.com", 443};
  sp_config.expected_measurements = {expected_measurement};
  sp = std::make_unique<SpNode>(network, acme, sp_config);
  // Approve the address but bind it to a different chip.
  sevsnp::AmdSp other(to_bytes(std::string_view("unrelated-platform")),
                      sevsnp::TcbVersion{2, 0, 8, 115});
  sp->approve_node(nodes[0]->bootstrap_address(), other.chip_id());
  auto csr = sp->attest_node(nodes[0]->bootstrap_address());
  ASSERT_FALSE(csr.ok());
  EXPECT_EQ(csr.error().code, "sp.chip_mismatch");
}

TEST_F(RevelioFixture, UnapprovedNodeRejected) {
  nodes.push_back(deploy_node("10.0.0.1", image));
  SpNodeConfig sp_config;
  sp_config.domain = kDomain;
  sp_config.kds_address = {"kds.amd.com", 443};
  sp_config.expected_measurements = {expected_measurement};
  sp = std::make_unique<SpNode>(network, acme, sp_config);
  auto csr = sp->attest_node(nodes[0]->bootstrap_address());
  ASSERT_FALSE(csr.ok());
  EXPECT_EQ(csr.error().code, "sp.node_not_approved");
}

TEST_F(RevelioFixture, TcbFloorBlocksOldFirmware) {
  nodes.push_back(deploy_node("10.0.0.1", image));
  SpNodeConfig sp_config;
  sp_config.domain = kDomain;
  sp_config.kds_address = {"kds.amd.com", 443};
  sp_config.expected_measurements = {expected_measurement};
  sp_config.minimum_tcb = sevsnp::TcbVersion{3, 0, 9, 120};
  AuditCapture audit;
  sp_config.audit_log = &audit.log;
  sp = std::make_unique<SpNode>(network, acme, sp_config);
  sp->approve_node(nodes[0]->bootstrap_address(), platforms[0]->chip_id());
  auto csr = sp->attest_node(nodes[0]->bootstrap_address());
  ASSERT_FALSE(csr.ok());
  EXPECT_EQ(csr.error().code, "attest.tcb_horizon");
  ASSERT_EQ(audit.records.size(), 1u);
  EXPECT_EQ(audit.records[0].failure_step, "tcb_horizon");
  // The floor refuses the report before any signature work.
  EXPECT_EQ(audit.records[0].checks & (obs::AuditRecord::kChainOk |
                                       obs::AuditRecord::kSignatureOk),
            0u);
}

TEST_F(RevelioFixture, KeyRequestFromUntrustedImageRefused) {
  provision_standard_fleet();
  // A backdoored node (valid report, wrong measurement) asks the leader
  // for the shared key.
  const imagebuild::VmImage backdoored = build_image("service-backdoored");
  auto rogue = deploy_node("6.6.6.6", backdoored);
  net::HttpRequest request;
  request.method = "POST";
  request.path = "/revelio/key-request";
  request.host = kDomain;
  request.body = rogue->identity_evidence().serialize();
  auto raw = network.call({"6.6.6.6", 1}, nodes[0]->bootstrap_address(),
                          request.serialize());
  ASSERT_TRUE(raw.ok());
  auto response = net::HttpResponse::parse(*raw);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 403);
}

TEST_F(RevelioFixture, WrappedKeyOfWrongLengthFailsClosed) {
  provision_standard_fleet();
  // A rogue "leader" replays the real leader's evidence (so mutual
  // attestation passes) but wraps a plaintext that is not a 32-byte key.
  auto follower = deploy_node("10.0.0.4", image);
  const net::Address rogue{"6.6.6.6", 9443};
  Bytes plaintext;
  HmacDrbg rogue_drbg(to_bytes(std::string_view("rogue-leader")));
  auto field = [](Bytes& out, ByteView v) {
    append_u32be(out, static_cast<std::uint32_t>(v.size()));
    append(out, v);
  };
  network.listen(rogue, [&](ByteView raw, const net::Address&) {
    auto request = net::HttpRequest::parse(raw);
    auto bundle = EvidenceBundle::parse(request->body);
    auto wrapped = crypto::ecies_seal(crypto::p256(), bundle->payload,
                                      plaintext, rogue_drbg);
    Bytes body;
    field(body, nodes[0]->identity_evidence().serialize());
    field(body, *wrapped);
    return net::HttpResponse::ok(std::move(body)).serialize();
  });

  Bytes install;
  field(install, sp->issued_certificate()->serialize());
  append_u32be(install, 0);  // no chain
  field(install, to_bytes(rogue.host));
  append_u32be(install, rogue.port);
  net::HttpRequest request;
  request.method = "POST";
  request.path = "/revelio/certificate";
  request.host = kDomain;
  request.body = install;

  Bytes padded(1, 0x00);
  append(padded, rogue_drbg.generate(32));
  for (const Bytes& bad : {padded, rogue_drbg.generate(64),
                           rogue_drbg.generate(31), Bytes{}}) {
    plaintext = bad;
    auto raw = network.call({"6.6.6.6", 1}, follower->bootstrap_address(),
                            request.serialize());
    ASSERT_TRUE(raw.ok());
    auto response = net::HttpResponse::parse(*raw);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 502) << bad.size();
    EXPECT_NE(to_string(response->body).find("revelio.bad_key_response"),
              std::string::npos)
        << bad.size() << ": " << to_string(response->body);
    EXPECT_FALSE(follower->serving_tls());
  }
}

TEST_F(RevelioFixture, ReplicaRefusesLeaderWhoseAttestedKeyIsNotTheCertKey) {
  provision_standard_fleet();
  // A rogue "leader" answers with the genuine evidence of a fleet node
  // that is not the leader: trusted image, valid report, but its attested
  // key is not the certificate's.
  auto follower = deploy_node("10.0.0.4", image);
  const net::Address rogue{"6.6.6.6", 9443};
  HmacDrbg rogue_drbg(to_bytes(std::string_view("rogue-leader")));
  auto field = [](Bytes& out, ByteView v) {
    append_u32be(out, static_cast<std::uint32_t>(v.size()));
    append(out, v);
  };
  network.listen(rogue, [&](ByteView raw, const net::Address&) {
    auto request = net::HttpRequest::parse(raw);
    auto bundle = EvidenceBundle::parse(request->body);
    auto wrapped = crypto::ecies_seal(crypto::p256(), bundle->payload,
                                      rogue_drbg.generate(32), rogue_drbg);
    Bytes body;
    field(body, nodes[1]->identity_evidence().serialize());
    field(body, *wrapped);
    return net::HttpResponse::ok(std::move(body)).serialize();
  });
  Bytes install;
  field(install, sp->issued_certificate()->serialize());
  append_u32be(install, 0);  // no chain
  field(install, to_bytes(rogue.host));
  append_u32be(install, rogue.port);
  net::HttpRequest request;
  request.method = "POST";
  request.path = "/revelio/certificate";
  request.host = kDomain;
  request.body = install;

  auto raw = network.call({"6.6.6.6", 1}, follower->bootstrap_address(),
                          request.serialize());
  ASSERT_TRUE(raw.ok());
  auto response = net::HttpResponse::parse(*raw);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 502);
  EXPECT_NE(to_string(response->body).find("attest.tls_binding"),
            std::string::npos)
      << to_string(response->body);
  EXPECT_FALSE(follower->serving_tls());
}

// --------------------------------------------------------------- end-user

TEST_F(RevelioFixture, EndUserAttestationSucceeds) {
  provision_standard_fleet();
  Browser browser = make_browser();
  WebExtension extension = make_extension(browser);
  extension.register_site(kDomain, manual_registration());

  auto verified = extension.get(kDomain, 443, "/");
  ASSERT_TRUE(verified.ok()) << verified.error().to_string();
  EXPECT_TRUE(verified->checks.all_ok());
  EXPECT_EQ(to_string(verified->response.body), "<html>app</html>");
  EXPECT_EQ(extension.attestations_performed(), 1u);
  EXPECT_EQ(extension.kds_fetches(), 1u);
}

TEST_F(RevelioFixture, MonitoringSkipsReattestationWithinSession) {
  provision_standard_fleet();
  Browser browser = make_browser();
  WebExtension extension = make_extension(browser);
  extension.register_site(kDomain, manual_registration());
  ASSERT_TRUE(extension.get(kDomain, 443, "/").ok());
  const auto after_attest = clock.now_us();
  for (int i = 0; i < 5; ++i) {
    auto verified = extension.get(kDomain, 443, "/");
    ASSERT_TRUE(verified.ok());
    EXPECT_TRUE(verified->checks.all_ok());
  }
  EXPECT_EQ(extension.attestations_performed(), 1u);
  // Monitoring costs the connection-context query, not a full attestation.
  const double per_request =
      static_cast<double>(clock.now_us() - after_attest) / 1000.0 / 5.0;
  EXPECT_LT(per_request, 100.0);
  EXPECT_GE(per_request, 14.0);
}

TEST_F(RevelioFixture, VcekCacheEliminatesKdsRoundTrip) {
  provision_standard_fleet();
  Browser browser = make_browser();
  WebExtension extension = make_extension(browser);
  extension.register_site(kDomain, manual_registration());
  ASSERT_TRUE(extension.get(kDomain, 443, "/").ok());
  EXPECT_EQ(extension.kds_fetches(), 1u);
  // Fresh browser session -> full re-attestation, but the VCEK is cached.
  browser.drop_session(kDomain);
  extension.invalidate(kDomain);
  ASSERT_TRUE(extension.get(kDomain, 443, "/").ok());
  EXPECT_EQ(extension.attestations_performed(), 2u);
  EXPECT_EQ(extension.kds_fetches(), 1u);
  EXPECT_EQ(extension.vcek_cache_hits(), 1u);
}

TEST_F(RevelioFixture, UnregisteredSiteIsRejected) {
  provision_standard_fleet();
  Browser browser = make_browser();
  WebExtension extension = make_extension(browser);
  auto r = extension.get(kDomain, 443, "/");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "extension.site_not_registered");
}

TEST_F(RevelioFixture, DiscoveryFindsRevelioSites) {
  provision_standard_fleet();
  Browser browser = make_browser();
  WebExtension extension = make_extension(browser);
  auto discovered = extension.discover(kDomain, 443);
  ASSERT_TRUE(discovered.ok());
  EXPECT_TRUE(*discovered);
}

TEST_F(RevelioFixture, WrongExpectedMeasurementFailsClosed) {
  provision_standard_fleet();
  Browser browser = make_browser();
  WebExtension extension = make_extension(browser);
  SiteRegistration site;
  sevsnp::Measurement wrong = expected_measurement;
  wrong[0] ^= 1;
  site.expected_measurements = {wrong};
  extension.register_site(kDomain, site);
  auto r = extension.get(kDomain, 443, "/");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "extension.attestation_failed");
  const auto* checks = extension.last_checks(kDomain);
  ASSERT_NE(checks, nullptr);
  EXPECT_TRUE(checks->signature_ok);
  EXPECT_FALSE(checks->measurement_ok);
}

TEST_F(RevelioFixture, RegistryDelegationAndRollbackRevocation) {
  provision_standard_fleet();
  TrustedRegistry trusted;
  trusted.publish(kDomain, expected_measurement);

  RevocationSet revocations;
  Browser browser = make_browser();
  WebExtensionConfig config;
  config.kds_address = {"kds.amd.com", 443};
  config.revocation_set = &revocations;
  WebExtension extension(browser, config);
  SiteRegistration site;
  site.registry = &trusted;
  site.registry_service = kDomain;
  extension.register_site(kDomain, site);
  ASSERT_TRUE(extension.get(kDomain, 443, "/").ok());

  // 6.1.4: the image is found vulnerable and revoked; users must now
  // reject the (otherwise valid, still published) measurement.
  ASSERT_TRUE(
      revocations.revoke_measurement(expected_measurement, "CVE").ok());
  browser.drop_session(kDomain);
  extension.invalidate(kDomain);
  auto r = extension.get(kDomain, 443, "/");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "extension.attestation_failed");
  ASSERT_NE(extension.last_checks(kDomain), nullptr);
  EXPECT_EQ(extension.last_checks(kDomain)->failure_step, "revocation");
}

TEST_F(RevelioFixture, RedirectToLookalikeFailsFreshAttestation) {
  provision_standard_fleet();
  Browser browser = make_browser();
  WebExtension extension = make_extension(browser);
  extension.register_site(kDomain, manual_registration());
  ASSERT_TRUE(extension.get(kDomain, 443, "/").ok());

  // The malicious provider obtains a *CA-valid* certificate for the domain
  // with a fresh key (it controls DNS), stands up a lookalike server and
  // repoints DNS at it. The victim's session is reset, so the browser
  // reconnects to the lookalike. Plain TLS accepts it — the extension must
  // not.
  serve_lookalike(net::HttpResponse::not_found());
  browser.drop_session(kDomain);
  auto r = extension.get(kDomain, 443, "/");
  ASSERT_FALSE(r.ok());
  // The reconnect triggers a fresh attestation, which fails at evidence or
  // binding: the lookalike has no valid report for its key.
  EXPECT_EQ(r.error().code, "extension.attestation_failed");
}

TEST_F(RevelioFixture, SessionOpenedOutsideTheExtensionIsCaughtByMonitoring) {
  provision_standard_fleet();
  Browser browser = make_browser();
  WebExtension extension = make_extension(browser);
  extension.register_site(kDomain, manual_registration());
  ASSERT_TRUE(extension.get(kDomain, 443, "/").ok());

  // The lookalike takes over DNS, and the new session to it is opened by
  // discovery, outside the extension's attestation. The next request rides
  // that session, so it takes the monitoring path, not a fresh attestation.
  serve_lookalike(net::HttpResponse::not_found());
  browser.drop_session(kDomain);
  ASSERT_TRUE(extension.discover(kDomain, 443).ok());
  const std::uint64_t hijacked0 = obs::metrics().counter_value(
      "ext.monitor.fail.count", {{"reason", "key_changed"}});
  auto r = extension.get(kDomain, 443, "/");
  ASSERT_FALSE(r.ok()) << "the lookalike's page must not be served";
  EXPECT_EQ(r.error().code, "extension.connection_hijacked");
  ASSERT_NE(extension.last_checks(kDomain), nullptr);
  EXPECT_EQ(extension.last_checks(kDomain)->failure_step, "tls_binding");
  EXPECT_FALSE(extension.last_checks(kDomain)->tls_binding_ok);
  EXPECT_EQ(obs::metrics().counter_value("ext.monitor.fail.count",
                                         {{"reason", "key_changed"}}),
            hijacked0 + 1);
}

TEST_F(RevelioFixture, StolenEvidenceCannotCoverForeignTlsKey) {
  provision_standard_fleet();
  // The attacker replays the *real* node's evidence bundle from its own
  // server: every signature checks out, but the TLS session terminates at
  // the attacker's key, so the binding check fails.
  const Bytes stolen_evidence = nodes[0]->identity_evidence().serialize();

  HmacDrbg evil_drbg(to_bytes(std::string_view("evil-2")));
  const auto evil_key = crypto::ec_generate(crypto::p256(), evil_drbg);
  const auto evil_csr = pki::make_csr(crypto::p256(), evil_key,
                                      {kDomain, "Evil", "US"}, {kDomain});
  const std::string token = acme.request_challenge("evil-acct", kDomain);
  network.dns_set_txt("_acme-challenge." + std::string(kDomain), token);
  auto evil_cert = acme.finalize("evil-acct", evil_csr, [&](const auto& n) {
    return network.dns_txt(n);
  });
  ASSERT_TRUE(evil_cert.ok());

  net::TlsServerIdentity evil_identity;
  evil_identity.curve = &crypto::p256();
  evil_identity.key = evil_key;
  evil_identity.certificate = *evil_cert;
  evil_identity.intermediates = acme.intermediates();
  net::TlsServer evil_server(
      std::move(evil_identity),
      [stolen_evidence](ByteView raw, const net::Address&) {
        auto request = net::HttpRequest::parse(raw);
        if (request.ok() &&
            request->path == "/.well-known/revelio-attestation") {
          return net::HttpResponse::ok(stolen_evidence).serialize();
        }
        return net::HttpResponse::ok(
                   to_bytes(std::string_view("<html>phish</html>")))
            .serialize();
      },
      HmacDrbg(to_bytes(std::string_view("evil-entropy-2"))));
  evil_server.install(network, {"6.6.6.6", 443});
  network.dns_set_a(kDomain, "6.6.6.6");

  Browser browser = make_browser();
  WebExtension extension = make_extension(browser);
  extension.register_site(kDomain, manual_registration());
  auto r = extension.get(kDomain, 443, "/");
  ASSERT_FALSE(r.ok());
  const auto* checks = extension.last_checks(kDomain);
  ASSERT_NE(checks, nullptr);
  EXPECT_TRUE(checks->signature_ok) << "the stolen report itself is genuine";
  EXPECT_TRUE(checks->measurement_ok);
  EXPECT_FALSE(checks->tls_binding_ok)
      << "the TLS binding is what catches the replay";
}

// ----------------------------------------------------------- registry/misc

TEST(TrustedRegistry, PublishIsPerService) {
  TrustedRegistry registry;
  sevsnp::Measurement m1 = sevsnp::Measurement::from(
      crypto::sha384(to_bytes(std::string_view("v1"))).view());
  sevsnp::Measurement m2 = sevsnp::Measurement::from(
      crypto::sha384(to_bytes(std::string_view("v2"))).view());
  EXPECT_FALSE(registry.is_acceptable("svc", m1));
  registry.publish("svc", m1);
  registry.publish("svc", m2);
  EXPECT_TRUE(registry.is_acceptable("svc", m1));
  EXPECT_TRUE(registry.is_acceptable("svc", m2));
  EXPECT_FALSE(registry.is_acceptable("other", m2));
}

TEST(TrustedRegistry, CommunityVotingQuorum) {
  TrustedRegistry registry;
  for (const char* voter : {"a", "b", "c", "d", "e"}) {
    registry.register_voter(voter);
  }
  sevsnp::Measurement m = sevsnp::Measurement::from(
      crypto::sha384(to_bytes(std::string_view("release"))).view());
  const auto id = registry.propose("svc", m);
  EXPECT_FALSE(registry.is_acceptable("svc", m));
  ASSERT_TRUE(registry.vote(id, "a", true).ok());
  ASSERT_TRUE(registry.vote(id, "b", true).ok());
  EXPECT_FALSE(registry.is_acceptable("svc", m)) << "2 of 5 is not quorum";
  ASSERT_TRUE(registry.vote(id, "c", true).ok());
  EXPECT_TRUE(registry.is_acceptable("svc", m)) << "3 of 5 adopts";
  EXPECT_TRUE(registry.proposal(id)->adopted);
  EXPECT_FALSE(registry.vote(id, "d", true).ok()) << "proposal closed";
}

TEST(TrustedRegistry, VotingGuards) {
  TrustedRegistry registry;
  registry.register_voter("a");
  registry.register_voter("b");
  registry.register_voter("c");
  sevsnp::Measurement m{};
  const auto id = registry.propose("svc", m);
  EXPECT_FALSE(registry.vote(id, "stranger", true).ok());
  EXPECT_FALSE(registry.vote(999, "a", true).ok());
  ASSERT_TRUE(registry.vote(id, "a", false).ok());
  EXPECT_FALSE(registry.vote(id, "a", true).ok()) << "no double voting";
  ASSERT_TRUE(registry.vote(id, "b", false).ok());
  EXPECT_TRUE(registry.proposal(id)->rejected);
}

TEST_F(RevelioFixture, NinetyDayCertificateRenewalFlow) {
  provision_standard_fleet();
  Browser browser = make_browser();
  WebExtension extension = make_extension(browser);
  extension.register_site(kDomain, manual_registration());
  ASSERT_TRUE(extension.get(kDomain, 443, "/").ok());

  // 91 days later the certificate has expired: fresh sessions must fail.
  clock.advance_us(91ull * 24 * 3600 * 1000 * 1000);
  browser.drop_session(kDomain);
  extension.invalidate(kDomain);
  auto expired = extension.get(kDomain, 443, "/");
  ASSERT_FALSE(expired.ok());

  // The SP node runs its renewal round (re-attest, re-issue, re-distribute
  // — the same provisioning workflow, §5.3.1).
  auto renewed = sp->provision_fleet();
  ASSERT_TRUE(renewed.ok()) << renewed.error().to_string();
  for (const auto& outcome : *renewed) {
    EXPECT_TRUE(outcome.attested) << outcome.failure;
  }

  browser.drop_session(kDomain);
  extension.invalidate(kDomain);
  auto again = extension.get(kDomain, 443, "/");
  ASSERT_TRUE(again.ok()) << again.error().to_string();
  EXPECT_TRUE(again->checks.all_ok());
}

TEST_F(RevelioFixture, LastChecksExposedForExtensionUi) {
  provision_standard_fleet();
  Browser browser = make_browser();
  WebExtension extension = make_extension(browser);
  extension.register_site(kDomain, manual_registration());
  EXPECT_EQ(extension.last_checks(kDomain), nullptr);
  ASSERT_TRUE(extension.get(kDomain, 443, "/").ok());
  const auto* checks = extension.last_checks(kDomain);
  ASSERT_NE(checks, nullptr);
  EXPECT_TRUE(checks->all_ok());
  EXPECT_TRUE(checks->failure.empty());
}

// ----------------------------------------------------------- persistence

TEST_F(RevelioFixture, RebootResumesServiceWithoutReprovisioning) {
  provision_standard_fleet();
  ASSERT_TRUE(nodes[0]->serving_tls());
  const Bytes cert_key = sp->issued_certificate()->public_key;
  auto disk = nodes[0]->disk();

  // Power-cycle node 0: same platform, same image, same disk.
  platforms[0]->launch_reset();
  nodes[0].reset();  // releases the network listeners? (handlers replaced)
  RevelioVmConfig config;
  config.domain = kDomain;
  config.host = "10.0.0.1";
  config.image = image;
  config.kds_address = {"kds.amd.com", 443};
  config.existing_disk = disk;
  auto rebooted =
      RevelioVm::deploy(*platforms[0], network, config, app_routes());
  ASSERT_TRUE(rebooted.ok()) << rebooted.error().to_string();
  EXPECT_FALSE((*rebooted)->boot_report().first_boot)
      << "the sealed volume already exists";
  EXPECT_TRUE((*rebooted)->serving_tls())
      << "TLS identity must be unsealed from the data volume";
  EXPECT_EQ((*rebooted)->identity_public_key(), cert_key)
      << "same measurement + chip => same identity key";

  // An end-user session still attests cleanly against the rebooted node.
  Browser browser = make_browser();
  WebExtension extension = make_extension(browser);
  extension.register_site(kDomain, manual_registration());
  auto verified = extension.get(kDomain, 443, "/");
  ASSERT_TRUE(verified.ok()) << verified.error().to_string();
  EXPECT_TRUE(verified->checks.all_ok());
}

TEST_F(RevelioFixture, DeployFromCopiedConfigLeavesCallersImageIntact) {
  const imagebuild::VmImage before = image;
  RevelioVmConfig config;
  config.domain = kDomain;
  config.host = "10.0.0.1";
  config.image = image;
  config.kds_address = {"kds.amd.com", 443};
  auto sp_chip = std::make_unique<sevsnp::AmdSp>(
      to_bytes(std::string_view("platform-copy")),
      sevsnp::TcbVersion{2, 0, 8, 115});
  kds.register_platform(*sp_chip);
  auto node = RevelioVm::deploy(*sp_chip, network, config, app_routes());
  ASSERT_TRUE(node.ok()) << node.error().to_string();
  EXPECT_EQ(config.image.disk_bytes, before.disk_bytes)
      << "deploy moves the disk bytes of its own copy only";
  EXPECT_EQ(image.disk_bytes, before.disk_bytes);
  EXPECT_EQ(image.digest(), before.digest());

  // The VM's disk holds the image's bytes up to its data volume, which
  // the first boot formats.
  auto disk = (*node)->disk();
  ASSERT_EQ(disk->block_count(), image.disk_blocks);
  auto table = storage::PartitionTable::read_from(*disk);
  ASSERT_TRUE(table.ok());
  const auto data = std::find_if(
      table->entries().begin(), table->entries().end(),
      [](const auto& e) { return e.label == "data"; });
  ASSERT_NE(data, table->entries().end());
  const std::size_t shipped = static_cast<std::size_t>(data->first_block) * 4096;
  EXPECT_EQ(disk->raw_dump(0, shipped),
            Bytes(image.disk_bytes.begin(),
                  image.disk_bytes.begin() + static_cast<std::ptrdiff_t>(shipped)));
  platforms.push_back(std::move(sp_chip));
}

TEST_F(RevelioFixture, RebootWithDifferentImageCannotUnseal) {
  provision_standard_fleet();
  auto disk = nodes[0]->disk();
  platforms[0]->launch_reset();
  nodes[0].reset();

  const imagebuild::VmImage backdoored = build_image("service-backdoored");
  RevelioVmConfig config;
  config.domain = kDomain;
  config.host = "10.0.0.1";
  config.image = backdoored;
  config.kds_address = {"kds.amd.com", 443};
  config.existing_disk = disk;
  auto rebooted =
      RevelioVm::deploy(*platforms[0], network, config, app_routes());
  ASSERT_FALSE(rebooted.ok())
      << "a different measurement derives a different sealing key";
}

TEST_F(RevelioFixture, RebootOnDifferentChipCannotUnseal) {
  provision_standard_fleet();
  auto disk = nodes[0]->disk();
  auto foreign = std::make_unique<sevsnp::AmdSp>(
      to_bytes(std::string_view("stolen-disk-platform")),
      sevsnp::TcbVersion{2, 0, 8, 115});
  kds.register_platform(*foreign);
  RevelioVmConfig config;
  config.domain = kDomain;
  config.host = "10.0.0.9";
  config.image = image;
  config.kds_address = {"kds.amd.com", 443};
  config.existing_disk = disk;
  auto moved = RevelioVm::deploy(*foreign, network, config, app_routes());
  ASSERT_FALSE(moved.ok())
      << "migrating the disk to another chip must not unseal it";
}

TEST(EvidenceBundle, BindAndRoundTrip) {
  const Bytes payload = to_bytes(std::string_view("some public key"));
  EvidenceBundle bundle;
  bundle.payload = payload;
  bundle.report.report_data = EvidenceBundle::bind(payload);
  EXPECT_TRUE(bundle.binding_ok());
  auto parsed = EvidenceBundle::parse(bundle.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->binding_ok());
  EXPECT_EQ(parsed->payload, payload);

  bundle.payload.push_back('!');
  EXPECT_FALSE(bundle.binding_ok());
  EXPECT_FALSE(EvidenceBundle::parse(to_bytes(std::string_view("x"))).ok());
}

TEST(EvidenceBundle, ParseRequiresExactEnd) {
  EvidenceBundle bundle;
  bundle.payload = to_bytes(std::string_view("some public key"));
  bundle.report.report_data = EvidenceBundle::bind(bundle.payload);
  const Bytes wire = bundle.serialize();
  ASSERT_TRUE(EvidenceBundle::parse(wire).ok());

  Bytes trailing = wire;
  trailing.push_back(0);
  EXPECT_FALSE(EvidenceBundle::parse(trailing).ok()) << "one trailing byte";

  // The report slice padded to the length it had with four 48-byte
  // runtime registers; its length prefix says so, so only the report
  // parser can refuse it.
  const Bytes report = bundle.report.serialize();
  Bytes padded = to_bytes(std::string_view("REVB1"));
  append_u32be(padded, static_cast<std::uint32_t>(report.size() + 4 * 48));
  append(padded, report);
  padded.resize(padded.size() + 4 * 48, 0);
  append_u32be(padded, static_cast<std::uint32_t>(bundle.payload.size()));
  append(padded, bundle.payload);
  EXPECT_FALSE(EvidenceBundle::parse(padded).ok()) << "padded report";
}

// ------------------------------------------------------- verdict parity

/// A fresh, identically seeded deployment: the standard fleet, plus the
/// fixture's CA-valid lookalike server the domain can be repointed at.
struct ParityWorld final : RevelioFixture {
  void TestBody() override {}
};

/// What one attestation pass left behind, reduced to what must not depend
/// on the path that produced it. virt_us is deliberately absent: the
/// blocking path fetches the page before it attests.
struct Verdict {
  std::string failure_step = "(no last_checks)";
  std::vector<obs::AuditRecord> records;
  std::vector<std::string> results;  // ext.attest.result.count keys
  std::uint64_t fallbacks = 0;  // batch verifies that re-checked one by one
};

enum class VerifyPath { kBlocking, kStaged, kBatch };

/// VCEKs issued in a parity world expire this long after it starts, so
/// the "chain" case only has to advance the clock.
constexpr std::uint64_t kParityVcekLifetimeUs = 3600ull * 1000 * 1000;

/// A provisioned parity world plus the extension inputs a case adjusts.
struct ParityRun {
  ParityRun() {
    world.kds.set_vcek_not_after(world.clock.now_us() + kParityVcekLifetimeUs);
    world.provision_standard_fleet();
    config.kds_address = {"kds.amd.com", 443};
    site = world.manual_registration();
  }

  ParityWorld world;
  WebExtensionConfig config;
  SiteRegistration site;
  RevocationSet revocations;
  fleet::TcbHorizon horizon;
};

/// One reachable verdict ("" = accept) and how to provoke it.
struct ParityCase {
  std::string step;
  std::function<void(ParityRun&)> setup;
};

Verdict run_parity_case(const ParityCase& c, VerifyPath path) {
  ParityRun run;
  // The batch path verifies the case's session next to an honest companion
  // session of a second extension (no audit log), which reaches verify
  // before the case's fault is set up. A forged signature then meets the
  // combined equation, and the batch falls back to per-signature checks.
  Browser companion_browser = run.world.make_browser();
  WebExtensionConfig companion_config;
  companion_config.kds_address = {"kds.amd.com", 443};
  WebExtension companion_ext(companion_browser, companion_config);
  companion_ext.register_site(kDomain, run.world.manual_registration());
  auto companion = companion_ext.begin_session(kDomain, 443);
  if (path == VerifyPath::kBatch) {
    EXPECT_TRUE(companion.handshake().ok() &&
                companion.fetch_evidence().ok() && companion.fetch_kds().ok());
  }
  c.setup(run);
  Verdict out;
  obs::AuditLog audit(/*checkpoint_interval=*/1024);
  audit.set_sink([&](std::uint8_t, ByteView body) {
    if (auto rec = obs::AuditRecord::parse(body); rec.ok()) {
      out.records.push_back(*rec);
    }
    return Status::success();
  });
  run.config.audit_log = &audit;

  Browser browser = run.world.make_browser();
  WebExtension extension(browser, run.config);
  extension.register_site(kDomain, run.site);
  // The result counters this run moved, as deltas of the process registry.
  const auto result_counts = [] {
    std::map<std::string, std::uint64_t> counts;
    for (const auto& [key, counter] : obs::metrics().counters()) {
      if (key.rfind("ext.attest.result.count", 0) == 0) {
        counts[key] = counter.value();
      }
    }
    return counts;
  };
  const auto before = result_counts();
  const std::uint64_t fallbacks0 =
      obs::metrics().counter_value("crypto.ecdsa_verify_batch.fallback.count");
  if (path == VerifyPath::kBlocking) {
    (void)extension.get(kDomain, 443, "/");
  } else {
    auto staged = extension.begin_session(kDomain, 443);
    if (staged.handshake().ok() && staged.fetch_evidence().ok() &&
        staged.fetch_kds().ok()) {
      if (path == VerifyPath::kStaged) {
        (void)staged.verify();
      } else {
        (void)batch_verify_sessions({&staged, &companion});
      }
    }
  }
  out.fallbacks =
      obs::metrics().counter_value("crypto.ecdsa_verify_batch.fallback.count") -
      fallbacks0;
  if (const auto* checks = extension.last_checks(kDomain)) {
    out.failure_step = checks->failure_step;
  }
  // The companion's own verdict moved one result counter too.
  std::string companion_result;
  if (const auto* checks = companion_ext.last_checks(kDomain)) {
    companion_result = "result=" + (checks->failure_step.empty()
                                        ? std::string("ok")
                                        : checks->failure_step) + "}";
  }
  for (const auto& [key, value] : result_counts()) {
    const auto it = before.find(key);
    std::uint64_t moved = value - (it == before.end() ? 0 : it->second);
    if (!companion_result.empty() && key.size() >= companion_result.size() &&
        key.compare(key.size() - companion_result.size(),
                    companion_result.size(), companion_result) == 0) {
      --moved;
    }
    if (moved > 0) out.results.push_back(key);
  }
  return out;
}

std::vector<ParityCase> parity_cases() {
  const sevsnp::TcbVersion newer{3, 0, 8, 115};
  return {
      {"", [](ParityRun&) {}},
      {"evidence_fetch",
       [](ParityRun& r) {
         r.world.serve_lookalike(net::HttpResponse::not_found());
       }},
      {"evidence_parse",
       [](ParityRun& r) {
         r.world.serve_lookalike(
             net::HttpResponse::ok(to_bytes(std::string_view("garbage"))));
       }},
      {"binding",
       [](ParityRun& r) {
         EvidenceBundle forged = r.world.nodes[0]->identity_evidence();
         forged.payload[0] ^= 0x01;
         r.world.serve_lookalike(net::HttpResponse::ok(forged.serialize()));
       }},
      {"kds_fetch",
       [](ParityRun& r) {
         r.config.kds_address = {"kds-offline.amd.com", 443};
       }},
      {"revocation",
       [](ParityRun& r) {
         ASSERT_TRUE(r.revocations
                         .revoke_chip(r.world.platforms[0]->chip_id(),
                                      "key leaked")
                         .ok());
         r.config.revocation_set = &r.revocations;
       }},
      {"tcb_horizon",
       [newer](ParityRun& r) {
         ASSERT_TRUE(r.horizon
                         .announce(r.world.platforms[0]->chip_id(), newer,
                                   r.world.clock.now_us(), "staged update")
                         .ok());
         r.config.tcb_horizon = &r.horizon;
       }},
      {"tcb_horizon", [newer](ParityRun& r) { r.site.minimum_tcb = newer; }},
      {"chain",
       [](ParityRun& r) { r.world.clock.advance_us(kParityVcekLifetimeUs); }},
      {"report_verify",
       [](ParityRun& r) {
         // The leader's genuine report with the lowest bit of r flipped
         // that keeps r in [1, n-1] and an x-coordinate: only the
         // signature equation can refuse it, and in a batch it joins the
         // combined equation, so the per-signature fallback refuses it.
         const crypto::Curve& p384 = crypto::p384();
         const std::size_t r_len = p384.params().byte_length;
         EvidenceBundle forged = r.world.nodes[0]->identity_evidence();
         const Bytes genuine = forged.report.signature;
         for (int bit = 0; bit < 8; ++bit) {
           forged.report.signature = genuine;
           forged.report.signature[r_len - 1] ^= std::uint8_t(1u << bit);
           auto sig = crypto::EcdsaSignature::decode(p384,
                                                     forged.report.signature);
           ASSERT_TRUE(sig.ok());
           if (!sig->r.is_zero() && sig->r.cmp(p384.params().n) < 0 &&
               p384.lift_x_even(sig->r).has_value()) {
             break;
           }
         }
         ASSERT_NE(forged.report.signature, genuine);
         r.world.serve_lookalike(net::HttpResponse::ok(forged.serialize()));
       }},
      {"measurement",
       [](ParityRun& r) { r.site.expected_measurements[0][0] ^= 0x01; }},
      {"tls_binding",
       [](ParityRun& r) {
         r.world.serve_lookalike(net::HttpResponse::ok(
             r.world.nodes[0]->identity_evidence().serialize()));
       }},
  };
}

// Every reachable verdict is reached identically by the blocking fetch(),
// the staged verify() and batch_verify_sessions: same failure step in
// last_checks(), same audit record, same result label. This includes a
// staged session that fails before verify (a 404 evidence route, an
// offline KDS): its verdict must reach last_checks() too. The report_verify
// case is a forged signature, which the batch path refuses through its
// per-signature fallback; tcb_horizon is reached through an announced
// horizon and through the policy's static floor.
TEST(VerdictParity, BlockingStagedAndBatchPathsAgree) {
  const std::vector<ParityCase> cases = parity_cases();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const ParityCase& c = cases[i];
    SCOPED_TRACE("case " + std::to_string(i) + " " +
                 (c.step.empty() ? std::string("accept") : c.step));
    const std::string label =
        "result=" + (c.step.empty() ? std::string("ok") : c.step);
    const Verdict blocking = run_parity_case(c, VerifyPath::kBlocking);
    ASSERT_EQ(blocking.failure_step, c.step);
    ASSERT_EQ(blocking.records.size(), 1u);
    ASSERT_EQ(blocking.results.size(), 1u);
    EXPECT_NE(blocking.results[0].find(label), std::string::npos)
        << blocking.results[0];
    const obs::AuditRecord& want = blocking.records[0];
    EXPECT_EQ(want.accepted, c.step.empty());
    EXPECT_EQ(want.failure_step, c.step);

    for (const VerifyPath path : {VerifyPath::kStaged, VerifyPath::kBatch}) {
      SCOPED_TRACE(path == VerifyPath::kStaged ? "staged" : "batch");
      const Verdict got = run_parity_case(c, path);
      if (path == VerifyPath::kBatch && c.step == "report_verify") {
        EXPECT_EQ(got.fallbacks, 1u) << "the forged signature must reach "
                                        "the per-signature fallback";
      }
      EXPECT_EQ(got.failure_step, blocking.failure_step);
      EXPECT_EQ(got.results, blocking.results);
      ASSERT_EQ(got.records.size(), 1u);
      const obs::AuditRecord& rec = got.records[0];
      EXPECT_EQ(rec.accepted, want.accepted);
      EXPECT_EQ(rec.failure_step, want.failure_step);
      EXPECT_EQ(rec.checks, want.checks);
      EXPECT_EQ(rec.measurement, want.measurement);
      EXPECT_EQ(rec.tcb, want.tcb);
      EXPECT_EQ(rec.evidence_digest, want.evidence_digest);
      EXPECT_EQ(rec.vcek_chain, want.vcek_chain);
    }
  }
}

// ------------------------------------------------------- revocation table

// One revocation gate whichever way a relying party accepts the release:
// a pinned measurement, a registry that publishes it, or both. A revoked
// measurement fails at `revocation` with one audit record, also when the
// registry publishes it again after the revocation; without the revocation
// each policy accepts.
TEST_F(RevelioFixture, RevocationOverridesPinAndRegistry) {
  provision_standard_fleet();
  const EvidenceBundle evidence = nodes[0]->identity_evidence();
  auto kds_chain = KdsService::fetch(network, {"verifier", 1},
                                     {"kds.amd.com", 443},
                                     evidence.report.chip_id,
                                     evidence.report.reported_tcb);
  ASSERT_TRUE(kds_chain.ok());
  enum Accepts { kPinned = 1, kRegistry = 2, kBoth = 3 };
  for (const Accepts accepts : {kPinned, kRegistry, kBoth}) {
    for (const bool revoked : {false, true}) {
      SCOPED_TRACE(std::string(accepts == kPinned     ? "pinned"
                               : accepts == kRegistry ? "registry"
                                                      : "both") +
                   (revoked ? ", revoked" : ", not revoked"));
      TrustedRegistry trusted;
      RevocationSet revocations;
      AuditCapture audit;
      RelyingPartyPolicy policy;
      if (accepts & kPinned) {
        policy.expected_measurements = {expected_measurement};
      }
      if (accepts & kRegistry) {
        trusted.publish(kDomain, expected_measurement);
        policy.registry = &trusted;
        policy.registry_service = kDomain;
      }
      if (revoked) {
        ASSERT_TRUE(
            revocations.revoke_measurement(expected_measurement, "CVE").ok());
        if (accepts & kRegistry) {
          trusted.publish(kDomain, expected_measurement);  // published again
        }
      }
      policy.revocation_set = &revocations;
      policy.audit_log = &audit.log;
      const std::uint64_t revoked0 = obs::metrics().counter_value(
          "attest.revoked.count", {{"kind", "measurement"}});
      const Status st = verify_evidence(evidence, *kds_chain, clock.now_us(),
                                        std::move(policy));
      ASSERT_EQ(audit.records.size(), 1u);
      EXPECT_EQ(audit.records[0].accepted, !revoked);
      EXPECT_EQ(obs::metrics().counter_value("attest.revoked.count",
                                             {{"kind", "measurement"}}),
                revoked0 + (revoked ? 1 : 0));
      if (revoked) {
        ASSERT_FALSE(st.ok());
        EXPECT_EQ(st.error().code, "attest.revocation");
        EXPECT_EQ(audit.records[0].failure_step, "revocation");
      } else {
        EXPECT_TRUE(st.ok()) << st.error().to_string();
      }
    }
  }
}

// --------------------------------------------------- relying-party matrix

/// Fleet-state faults every relying party must refuse, fail-closed.
enum class Fault { kNone, kRevokedChip, kRevokedMeasurement, kTcbPastHorizon };

/// The parties that trust an SNP report (§5.3, Fig 4).
enum class Party { kExtension, kSpNode, kLeader, kReplica };

struct PartyOutcome {
  std::string error;                      // "" when the party trusted it
  std::vector<obs::AuditRecord> records;  // written by this attempt
};

/// Wires a revocation set, TCB horizons and an audit log into ONE party,
/// applies `fault` to the report that party checks, then asks it to trust
/// that report. The report comes from node 0 (the leader, and where the
/// domain points), except on a key request, where it is the requester's.
PartyOutcome run_party(Party party, Fault fault) {
  ParityWorld world;
  RevocationSet revocations;
  fleet::TcbHorizon horizon;
  AuditCapture audit;
  RevelioVmConfig node_state;
  node_state.revocation_set = &revocations;
  node_state.tcb_horizon = &horizon;
  node_state.audit_log = &audit.log;
  world.provision_standard_fleet(party == Party::kLeader ? node_state
                                                         : RevelioVmConfig{});
  std::unique_ptr<RevelioVm> newcomer;
  if (party == Party::kLeader || party == Party::kReplica) {
    newcomer = world.deploy_node(
        "10.0.0.4", world.image,
        party == Party::kReplica ? node_state : RevelioVmConfig{});
  }
  const sevsnp::ChipId chip =
      (party == Party::kLeader ? world.platforms.back() : world.platforms[0])
          ->chip_id();
  switch (fault) {
    case Fault::kNone:
      break;
    case Fault::kRevokedChip:
      EXPECT_TRUE(revocations.revoke_chip(chip, "key leaked").ok());
      break;
    case Fault::kRevokedMeasurement:
      EXPECT_TRUE(revocations
                      .revoke_measurement(world.expected_measurement,
                                          "exploitable image")
                      .ok());
      break;
    case Fault::kTcbPastHorizon:
      EXPECT_TRUE(horizon
                      .announce(chip, sevsnp::TcbVersion{3, 0, 8, 115},
                                world.clock.now_us(), "staged update")
                      .ok());
      break;
  }

  const std::size_t before = audit.records.size();
  PartyOutcome out;
  switch (party) {
    case Party::kExtension: {
      WebExtensionConfig config;
      config.kds_address = {"kds.amd.com", 443};
      config.revocation_set = &revocations;
      config.tcb_horizon = &horizon;
      config.audit_log = &audit.log;
      Browser browser = world.make_browser();
      WebExtension extension(browser, config);
      extension.register_site(kDomain, world.manual_registration());
      if (auto page = extension.get(kDomain, 443, "/"); !page.ok()) {
        out.error = page.error().to_string();
      }
      break;
    }
    case Party::kSpNode: {
      SpNodeConfig config;
      config.domain = kDomain;
      config.kds_address = {"kds.amd.com", 443};
      config.expected_measurements = {world.expected_measurement};
      config.revocation_set = &revocations;
      config.tcb_horizon = &horizon;
      config.audit_log = &audit.log;
      SpNode sp(world.network, world.acme, config);
      sp.approve_node(world.nodes[0]->bootstrap_address(),
                      world.platforms[0]->chip_id());
      if (auto csr = sp.attest_node(world.nodes[0]->bootstrap_address());
          !csr.ok()) {
        out.error = csr.error().to_string();
      }
      break;
    }
    case Party::kLeader:
    case Party::kReplica: {
      net::HttpRequest request;
      request.method = "POST";
      request.host = kDomain;
      net::Address to;
      if (party == Party::kLeader) {
        request.path = "/revelio/key-request";
        request.body = newcomer->identity_evidence().serialize();
        to = world.nodes[0]->bootstrap_address();
      } else {
        // The SP's certificate install, naming node 0 as the leader the
        // newcomer fetches the key from.
        const net::Address leader = world.nodes[0]->bootstrap_address();
        const Bytes cert = world.sp->issued_certificate()->serialize();
        append_u32be(request.body, static_cast<std::uint32_t>(cert.size()));
        append(request.body, cert);
        append_u32be(request.body, 0);  // no chain
        append_u32be(request.body,
                     static_cast<std::uint32_t>(leader.host.size()));
        append(request.body, to_bytes(leader.host));
        append_u32be(request.body, leader.port);
        request.path = "/revelio/certificate";
        to = newcomer->bootstrap_address();
      }
      auto raw = world.network.call({"10.9.9.9", 1}, to, request.serialize());
      auto response = net::HttpResponse::parse(raw.ok() ? *raw : Bytes{});
      if (!response.ok() || response->status != 200) {
        out.error = response.ok() ? to_string(response->body)
                                  : response.error().to_string();
      }
      break;
    }
  }
  out.records.assign(audit.records.begin() + before, audit.records.end());
  return out;
}

// A revoked chip, a revoked measurement and a TCB past its chip's horizon
// are refused by every party that trusts a report, at the same step, with
// one audit record per verification. Without a fault each party trusts the
// same report, so the refusals come from the fault alone.
TEST(RelyingPartyMatrix, EveryPartyRefusesAtTheSameStep) {
  const std::vector<std::pair<Party, const char*>> parties = {
      {Party::kExtension, "extension"},
      {Party::kSpNode, "sp_node"},
      {Party::kLeader, "leader"},
      {Party::kReplica, "replica"},
  };
  struct Row {
    Fault fault;
    const char* name;
    const char* step;
    const char* counter;
    obs::Labels labels;
  };
  const std::vector<Row> rows = {
      {Fault::kRevokedChip, "revoked chip", "revocation",
       "attest.revoked.count", {{"kind", "chip"}}},
      {Fault::kRevokedMeasurement, "revoked measurement", "revocation",
       "attest.revoked.count", {{"kind", "measurement"}}},
      {Fault::kTcbPastHorizon, "TCB past horizon", "tcb_horizon",
       "attest.tcb_horizon.count", {}},
  };
  for (const auto& [party, party_name] : parties) {
    SCOPED_TRACE(party_name);
    const PartyOutcome trusted = run_party(party, Fault::kNone);
    EXPECT_EQ(trusted.error, "");
    ASSERT_EQ(trusted.records.size(), 1u);
    EXPECT_TRUE(trusted.records[0].accepted);

    for (const Row& row : rows) {
      SCOPED_TRACE(row.name);
      const std::uint64_t count0 =
          obs::metrics().counter_value(row.counter, row.labels);
      const PartyOutcome refused = run_party(party, row.fault);
      const std::string code = party == Party::kExtension
                                   ? "extension.attestation_failed"
                                   : std::string("attest.") + row.step;
      EXPECT_NE(refused.error.find(code), std::string::npos)
          << "error: '" << refused.error << "'";
      ASSERT_EQ(refused.records.size(), 1u);
      EXPECT_FALSE(refused.records[0].accepted);
      EXPECT_EQ(refused.records[0].failure_step, row.step);
      EXPECT_EQ(obs::metrics().counter_value(row.counter, row.labels),
                count0 + 1);
    }
  }
}

}  // namespace
}  // namespace revelio::core
