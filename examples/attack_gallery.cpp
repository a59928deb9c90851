// Attack gallery: the paper's §6.1 security analysis, executed.
//
// Each scene stages one attack from the threat model against a deployed
// Revelio VM and shows which mechanism stops it (or detects it):
//
//   scene 1 — 6.1.1: hypervisor boots a modified kernel/initrd/cmdline
//   scene 2 — 6.1.1: hypervisor forges the firmware hash table
//   scene 3 — 6.1.2: provider tampers with the rootfs image
//   scene 4 — 6.1.3: runtime modification of the running system
//   scene 5 — 6.1.4: rollback to an obsolete vulnerable release
//   scene 6 — MITM: certificate-swap redirect after attestation
//   scene 7 — 6.1.1: measurement permutations (swapped blobs, shifted
//             boundaries) under a forged hash table
//   scene 8 — 2.1.1: guest-channel protocol-state fuzzing (replay,
//             reflection, truncation, bit-flips, type confusion)
//   scene 9 — fleet lifecycle: a node on a revoked chip asks the SP node
//             for a certificate and the leader for the fleet's TLS key
//   scene 10 — 6.1.2: the host swaps a service binary on a verity rootfs;
//              a raw rootfs gets no published measurement to match
//
// Each scene also asserts on the *observability* signal the attack leaves
// behind — the specific failed-verification counter or span attribute —
// not just the boolean outcome. A blocked attack with the wrong metric
// trail means the failure was misattributed, which this gallery now
// catches (exit code 1).
//
// Run: ./build/examples/attack_gallery
#include <cstdio>
#include <cstdlib>

#include "imagebuild/builder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "revelio/auditor.hpp"
#include "revelio/revelio_vm.hpp"
#include "revelio/revocation.hpp"
#include "revelio/sp_node.hpp"
#include "revelio/web_extension.hpp"

using namespace revelio;

namespace {

int g_metric_failures = 0;

void scene(int number, const char* title) {
  std::printf("\n--- scene %d: %s ---\n", number, title);
}

void verdict(bool blocked, const char* how) {
  if (!blocked) ++g_metric_failures;  // a successful attack fails the run
  std::printf("    verdict: %s (%s)\n",
              blocked ? "ATTACK BLOCKED/DETECTED" : "ATTACK SUCCEEDED",
              how);
}

std::uint64_t counter(const std::string& name,
                      const obs::Labels& labels = {}) {
  return obs::metrics().counter_value(name, labels);
}

/// Asserts the counter moved by exactly `want` (or at least `want` when
/// `at_least`) across the scene.
void expect_delta(const char* what, std::uint64_t before, std::uint64_t after,
                  std::uint64_t want, bool at_least = false) {
  const std::uint64_t delta = after - before;
  const bool ok = at_least ? delta >= want : delta == want;
  if (!ok) ++g_metric_failures;
  std::printf("    metric  %-48s +%llu %s\n", what,
              static_cast<unsigned long long>(delta),
              ok ? "(as expected)" : "(UNEXPECTED)");
}

void expect_attr(const char* span_name, const char* key,
                 const std::string& want) {
  for (const auto& span : obs::tracer().finished_spans()) {
    if (span.name != span_name) continue;
    const std::string got = span.attr(key);
    const bool ok = got == want;
    if (!ok) ++g_metric_failures;
    std::printf("    span    %s.%s = \"%s\" %s\n", span_name, key,
                got.c_str(), ok ? "(as expected)" : "(UNEXPECTED)");
    return;
  }
  ++g_metric_failures;
  std::printf("    span    %s MISSING\n", span_name);
}

}  // namespace

int main() {
  std::printf("== Revelio attack gallery (paper section 6.1) ==\n");

  SimClock clock;
  net::Network network(clock);
  crypto::HmacDrbg drbg(to_bytes(std::string_view("attack-gallery")));
  sevsnp::KeyDistributionServer kds(drbg);
  core::KdsService kds_service(kds, network, {"kds.amd.com", 443});
  pki::AcmeIssuer acme(clock, drbg);

  imagebuild::PackageRegistry registry;
  imagebuild::BaseImage base;
  base.name = "ubuntu";
  base.tag = "20.04";
  base.packages = {{"nginx", "1.18",
                    {{"/usr/sbin/nginx",
                      to_bytes(std::string_view("nginx-binary"))}}}};
  imagebuild::BuildInputs inputs;
  inputs.base_image_digest = registry.publish(base);
  inputs.service_files["/opt/service/app"] =
      to_bytes(std::string_view("service-v2"));
  inputs.initrd.services = {{"app", "/opt/service/app", 100.0}};
  inputs.initrd.allowed_inbound_ports = {"443", "8443"};
  imagebuild::ImageBuilder builder(registry);
  const auto image = *builder.build(inputs);
  const auto expected = vm::Hypervisor::expected_measurement(
      image.kernel_blob, image.initrd_blob, image.cmdline);

  // ------------------------------------------------------------- scene 1
  scene(1, "6.1.1 — boot a modified kernel (hash table intact)");
  {
    sevsnp::AmdSp sp(to_bytes(std::string_view("scene1")),
                     sevsnp::TcbVersion{2, 0, 8, 115});
    vm::Hypervisor hypervisor(sp, clock);
    vm::LaunchConfig config;
    config.kernel_blob = image.kernel_blob;
    config.initrd_blob = image.initrd_blob;
    config.cmdline = image.cmdline;
    config.disk = image.instantiate_disk();
    vm::KernelSpec evil;
    evil.enforce_verity = false;
    config.swap_kernel_after_measure = evil.serialize();
    const auto fw_fail0 =
        counter("vm.firmware_check.fail.count", {{"blob", "kernel"}});
    auto guest = hypervisor.launch(config);
    std::printf("    firmware: %s\n",
                guest.ok() ? "booted (?)" : guest.error().to_string().c_str());
    expect_delta("vm.firmware_check.fail.count{blob=kernel}", fw_fail0,
                 counter("vm.firmware_check.fail.count", {{"blob", "kernel"}}),
                 1);
    verdict(!guest.ok(), "OVMF re-measures each blob against the table");
  }

  // ------------------------------------------------------------- scene 2
  scene(2, "6.1.1 — forge the hash table to match malicious blobs");
  {
    sevsnp::AmdSp sp(to_bytes(std::string_view("scene2")),
                     sevsnp::TcbVersion{2, 0, 8, 115});
    vm::Hypervisor hypervisor(sp, clock);
    vm::KernelSpec evil_kernel;
    evil_kernel.enforce_verity = false;
    vm::InitrdSpec evil_initrd;
    evil_initrd.setup_verity = false;
    evil_initrd.setup_crypt = false;
    vm::KernelCmdline evil_cmdline;
    vm::LaunchConfig config;
    config.kernel_blob = image.kernel_blob;
    config.initrd_blob = image.initrd_blob;
    config.cmdline = image.cmdline;
    config.disk = image.instantiate_disk();
    config.forged_hash_table = vm::FirmwareHashTable::over(
        evil_kernel.serialize(), evil_initrd.serialize(),
        to_bytes(evil_cmdline.to_string()));
    config.swap_kernel_after_measure = evil_kernel.serialize();
    config.swap_initrd_after_measure = evil_initrd.serialize();
    config.swap_cmdline_after_measure = evil_cmdline.to_string();
    const auto fw_fail0 =
        counter("vm.firmware_check.fail.count", {{"blob", "kernel"}});
    const auto fw_ok0 = counter("vm.firmware_check.ok.count");
    auto guest = hypervisor.launch(config);
    std::printf("    boot: %s\n", guest.ok() ? "succeeds locally" : "refused");
    const bool detected =
        guest.ok() && !((*guest)->measurement() == expected);
    std::printf("    measurement == expected: %s\n", detected ? "no" : "yes");
    // The local firmware check *passes* (the table was forged to match), so
    // the only signal is the measurement itself — exactly the paper's point.
    expect_delta("vm.firmware_check.fail.count{blob=kernel}", fw_fail0,
                 counter("vm.firmware_check.fail.count", {{"blob", "kernel"}}),
                 0);
    expect_delta("vm.firmware_check.ok.count", fw_ok0,
                 counter("vm.firmware_check.ok.count"), 1);
    verdict(detected,
            "the forged table is inside the measured firmware bytes");
  }

  // ------------------------------------------------------------- scene 3
  scene(3, "6.1.2 — tamper with the rootfs image before boot");
  {
    sevsnp::AmdSp sp(to_bytes(std::string_view("scene3")),
                     sevsnp::TcbVersion{2, 0, 8, 115});
    vm::Hypervisor hypervisor(sp, clock);
    vm::LaunchConfig config;
    config.kernel_blob = image.kernel_blob;
    config.initrd_blob = image.initrd_blob;
    config.cmdline = image.cmdline;
    config.disk = image.instantiate_disk();
    // One bit inside the rootfs partition (disk block 1 = rootfs block 0,
    // the filesystem directory).
    config.disk->raw_tamper(4096 * 1 + 100, 0x04);
    const auto vr_fail0 = counter("storage.verity_read.fail.count",
                                  {{"reason", "verity.block_mismatch"}});
    auto guest = hypervisor.launch(config);
    auto report = guest.ok() ? (*guest)->boot()
                             : Result<vm::BootReport>(guest.error());
    std::printf("    boot: %s\n",
                report.ok() ? "succeeded (?)"
                            : report.error().to_string().c_str());
    expect_delta("storage.verity_read.fail.count{..block_mismatch}", vr_fail0,
                 counter("storage.verity_read.fail.count",
                         {{"reason", "verity.block_mismatch"}}),
                 1, /*at_least=*/true);
    verdict(!report.ok(), "dm-verity root-hash chain down from the cmdline");
  }

  // ------------------------------------------------------------- scene 4
  scene(4, "6.1.3 — modify the running system from the host");
  {
    sevsnp::AmdSp sp(to_bytes(std::string_view("scene4")),
                     sevsnp::TcbVersion{2, 0, 8, 115});
    vm::Hypervisor hypervisor(sp, clock);
    vm::LaunchConfig config;
    config.kernel_blob = image.kernel_blob;
    config.initrd_blob = image.initrd_blob;
    config.cmdline = image.cmdline;
    config.disk = image.instantiate_disk();
    auto disk = config.disk;
    auto guest = hypervisor.launch(config);
    (void)(*guest)->boot();
    std::printf("    ssh to the VM: %s\n",
                (*guest)->inbound_allowed(22)
                    ? "open (?)"
                    : "blocked by the measured firewall posture");
    const auto entry =
        (*guest)->rootfs().directory().at("/opt/service/app");
    disk->raw_tamper(4096 + entry.offset, 0x01);
    const auto vr_fail0 = counter("storage.verity_read.fail.count",
                                  {{"reason", "verity.block_mismatch"}});
    const bool read_fails =
        !(*guest)->rootfs().read_file("/opt/service/app").ok();
    std::printf("    bit-flip the service binary on the host disk: read %s\n",
                read_fails ? "fails" : "returns tampered bytes (?)");
    expect_delta("storage.verity_read.fail.count{..block_mismatch}", vr_fail0,
                 counter("storage.verity_read.fail.count",
                         {{"reason", "verity.block_mismatch"}}),
                 1, /*at_least=*/true);
    verdict(read_fails && !(*guest)->inbound_allowed(22),
            "no inward access + per-read verity verification");
  }

  // ------------------------------------------------------------- scene 5
  scene(5, "6.1.4 — roll back to an obsolete vulnerable release");
  {
    // v1 had a bug; v2 is current. The provider re-deploys v1.
    imagebuild::BuildInputs v1_inputs = inputs;
    v1_inputs.service_files["/opt/service/app"] =
        to_bytes(std::string_view("service-v1-with-cve"));
    const auto v1 = *builder.build(v1_inputs);
    const auto v1_measurement = vm::Hypervisor::expected_measurement(
        v1.kernel_blob, v1.initrd_blob, v1.cmdline);

    // The auditor published both releases; the v2 rollout revokes v1 in
    // the fleet's RevocationSet. The registry keeps publishing v1: it
    // answers only "published", the revocation overrides it.
    core::TrustedRegistry trusted;
    trusted.publish("svc", v1_measurement);
    trusted.publish("svc", expected);
    RevocationSet revocations;
    (void)revocations.revoke_measurement(v1_measurement, "superseded by v2");

    sevsnp::AmdSp platform(to_bytes(std::string_view("scene5")),
                           sevsnp::TcbVersion{2, 0, 8, 115});
    kds.register_platform(platform);
    core::RevelioVmConfig config;
    config.domain = "svc.revelio.app";
    config.host = "10.0.5.1";
    config.image = v1;
    config.kds_address = {"kds.amd.com", 443};
    auto node = core::RevelioVm::deploy(platform, network, config,
                                        net::HttpRouter{});
    if (!node.ok()) {
      std::printf("    deploy failed: %s\n", node.error().to_string().c_str());
      std::exit(1);
    }
    const core::EvidenceBundle evidence = (*node)->identity_evidence();
    auto chain = core::KdsService::fetch(
        network, {"verifier", 1}, {"kds.amd.com", 443},
        evidence.report.chip_id, evidence.report.reported_tcb);
    core::RelyingPartyPolicy policy;
    policy.registry = &trusted;
    policy.registry_service = "svc";
    policy.revocation_set = &revocations;
    const auto revoked0 =
        counter("attest.revoked.count", {{"kind", "measurement"}});
    const Status st =
        chain.ok() ? core::verify_evidence(evidence, *chain, clock.now_us(),
                                           std::move(policy))
                   : Status(chain.error());
    std::printf("    registry still publishes v1: %s\n",
                trusted.is_acceptable("svc", v1_measurement) ? "yes" : "no");
    std::printf("    verifier, the deployed v1 node's evidence: %s\n",
                st.ok() ? "ACCEPTED (?)" : st.error().to_string().c_str());
    expect_delta("attest.revoked.count{kind=measurement}", revoked0,
                 counter("attest.revoked.count", {{"kind", "measurement"}}),
                 1);
    verdict(!st.ok() && st.error().code == "attest.revocation",
            "RevocationSet entry, refused before any signature work");
  }

  // ------------------------------------------------------------- scene 6
  scene(6, "MITM — certificate-swap redirect after attestation");
  {
    sevsnp::AmdSp platform(to_bytes(std::string_view("scene6")),
                           sevsnp::TcbVersion{2, 0, 8, 115});
    kds.register_platform(platform);
    core::RevelioVmConfig config;
    config.domain = "svc.revelio.app";
    config.host = "10.0.0.1";
    config.image = image;
    config.kds_address = {"kds.amd.com", 443};
    net::HttpRouter routes;
    routes.route("GET", "/", [](const net::HttpRequest&) {
      return net::HttpResponse::ok(to_bytes(std::string_view("legit")));
    });
    auto node = core::RevelioVm::deploy(platform, network, config,
                                        std::move(routes));
    core::SpNodeConfig sp_config;
    sp_config.domain = "svc.revelio.app";
    sp_config.kds_address = {"kds.amd.com", 443};
    sp_config.expected_measurements = {expected};
    core::SpNode sp(network, acme, sp_config);
    sp.approve_node((*node)->bootstrap_address(), platform.chip_id());
    (void)sp.provision_fleet();
    network.dns_set_a("svc.revelio.app", "10.0.0.1");

    core::Browser browser(network, "laptop", acme.trusted_roots(),
                          crypto::HmacDrbg(to_bytes(std::string_view("u"))));
    core::WebExtensionConfig ext_config;
    ext_config.kds_address = {"kds.amd.com", 443};
    core::WebExtension extension(browser, ext_config);
    core::SiteRegistration site;
    site.expected_measurements = {expected};
    extension.register_site("svc.revelio.app", site);
    const bool first = extension.get("svc.revelio.app", 443, "/").ok();
    std::printf("    initial attested access: %s\n", first ? "ok" : "failed");

    // The provider gets a fresh CA-valid certificate for the domain (it
    // controls DNS) and redirects traffic to a commodity server.
    crypto::HmacDrbg evil_drbg(to_bytes(std::string_view("evil")));
    const auto evil_key = crypto::ec_generate(crypto::p256(), evil_drbg);
    const auto evil_csr =
        pki::make_csr(crypto::p256(), evil_key,
                      {"svc.revelio.app", "Evil", "US"}, {"svc.revelio.app"});
    const std::string token =
        acme.request_challenge("evil", "svc.revelio.app");
    network.dns_set_txt("_acme-challenge.svc.revelio.app", token);
    auto evil_cert = acme.finalize("evil", evil_csr, [&](const auto& name) {
      return network.dns_txt(name);
    });
    net::TlsServerIdentity evil_identity;
    evil_identity.curve = &crypto::p256();
    evil_identity.key = evil_key;
    evil_identity.certificate = *evil_cert;
    evil_identity.intermediates = acme.intermediates();
    net::TlsServer evil_server(
        std::move(evil_identity),
        [](ByteView, const net::Address&) {
          return net::HttpResponse::ok(to_bytes(std::string_view("phish")))
              .serialize();
        },
        crypto::HmacDrbg(to_bytes(std::string_view("evil-tls"))));
    evil_server.install(network, {"6.6.6.6", 443});
    network.dns_set_a("svc.revelio.app", "6.6.6.6");
    browser.drop_session("svc.revelio.app");

    // The dropped session forces a full re-attestation; the evil server has
    // no SEV-SNP evidence to serve, so the attempt dies at evidence parsing
    // and the trace pins the failure to that exact step.
    const auto parse0 = counter("ext.attest.result.count",
                                {{"result", "evidence_parse"}});
    obs::tracer().clear();
    obs::tracer().set_enabled(true);
    auto redirected = extension.get("svc.revelio.app", 443, "/");
    obs::tracer().set_enabled(false);
    std::printf("    browser alone would accept the new CA-valid cert\n");
    std::printf("    extension: %s\n",
                redirected.ok()
                    ? "ACCEPTED (?)"
                    : redirected.error().to_string().c_str());
    expect_delta("ext.attest.result.count{result=evidence_parse}", parse0,
                 counter("ext.attest.result.count",
                         {{"result", "evidence_parse"}}),
                 1);
    expect_attr("ext.attest", "result", "evidence_parse");
    if (const auto* checks = extension.last_checks("svc.revelio.app")) {
      std::printf("    checks.failure_step = \"%s\"\n",
                  checks->failure_step.c_str());
    }
    verdict(!redirected.ok(),
            "per-request TLS-key monitoring against the attested key");
  }

  // ------------------------------------------------------------- scene 7
  scene(7, "6.1.1 — measurement permutations under a forged hash table");
  {
    // Both variants present blobs whose *contents* are made of the genuine
    // bytes — only their arrangement changes — and forge the firmware hash
    // table to match, so every local firmware check passes. The only line
    // of defence left is the launch measurement itself: because the AMD-SP
    // length-frames every LAUNCH_UPDATE extend, neither permutation can
    // collide with the genuine digest.
    const auto fw_ok0 = counter("vm.firmware_check.ok.count");

    // 7a: swap kernel and initrd wholesale.
    sevsnp::AmdSp sp_a(to_bytes(std::string_view("scene7a")),
                       sevsnp::TcbVersion{2, 0, 8, 115});
    vm::Hypervisor hyp_a(sp_a, clock);
    vm::LaunchConfig swapped;
    swapped.kernel_blob = image.initrd_blob;  // permuted order
    swapped.initrd_blob = image.kernel_blob;
    swapped.cmdline = image.cmdline;
    swapped.disk = image.instantiate_disk();
    swapped.forged_hash_table = vm::FirmwareHashTable::over(
        swapped.kernel_blob, swapped.initrd_blob, to_bytes(swapped.cmdline));
    auto guest_a = hyp_a.launch(swapped);
    // The forged table is built over exactly the permuted blobs, so the
    // firmware the SP measures is bit-identical to the honest reference
    // firmware *for that permutation* — expected_measurement over the
    // permuted blobs reproduces the launch measurement even when the
    // guest never gets far enough to hand one out (a wholesale swap dies
    // at the kernel handoff: an initrd is not a parseable kernel).
    const auto measured_a = vm::Hypervisor::expected_measurement(
        swapped.kernel_blob, swapped.initrd_blob, swapped.cmdline);
    const bool swap_detected = !(measured_a == expected);
    std::printf("    swapped kernel/initrd: firmware checks pass, boots: "
                "%s, measurement == genuine: %s\n",
                guest_a.ok() ? "yes" : "no",
                swap_detected ? "no" : "yes (?)");

    // 7b: shift one byte across the kernel/initrd boundary. The
    // concatenation of all measured blobs is bit-identical to the genuine
    // image; only the boundary moved. An unframed digest would collide.
    sevsnp::AmdSp sp_b(to_bytes(std::string_view("scene7b")),
                       sevsnp::TcbVersion{2, 0, 8, 115});
    vm::Hypervisor hyp_b(sp_b, clock);
    vm::LaunchConfig shifted;
    shifted.kernel_blob = image.kernel_blob;
    shifted.initrd_blob = image.initrd_blob;
    shifted.initrd_blob.insert(shifted.initrd_blob.begin(),
                               shifted.kernel_blob.back());
    shifted.kernel_blob.pop_back();
    shifted.cmdline = image.cmdline;
    shifted.disk = image.instantiate_disk();
    shifted.forged_hash_table = vm::FirmwareHashTable::over(
        shifted.kernel_blob, shifted.initrd_blob, to_bytes(shifted.cmdline));
    auto guest_b = hyp_b.launch(shifted);
    const auto measured_b = vm::Hypervisor::expected_measurement(
        shifted.kernel_blob, shifted.initrd_blob, shifted.cmdline);
    const bool shift_detected = !(measured_b == expected);
    std::printf("    boundary-shifted blobs: concatenation identical, "
                "boots: %s, measurement == genuine: %s\n",
                guest_b.ok() ? "yes" : "no",
                shift_detected ? "no" : "yes (?)");

    // The forged tables matched their permuted blobs, so the firmware
    // checks *passed* — the permutations are invisible to every local
    // check and only the measurement separates them.
    expect_delta("vm.firmware_check.ok.count", fw_ok0,
                 counter("vm.firmware_check.ok.count"), 2);
    verdict(swap_detected && shift_detected,
            "the per-blob hash table puts blob boundaries into the "
            "measured firmware, so no permutation can collide");
  }

  // ------------------------------------------------------------- scene 8
  scene(8, "2.1.1 — guest-channel protocol-state fuzzing");
  {
    sevsnp::AmdSp sp(to_bytes(std::string_view("scene8")),
                     sevsnp::TcbVersion{2, 0, 8, 115});
    vm::Hypervisor hypervisor(sp, clock);
    vm::LaunchConfig config;
    config.kernel_blob = image.kernel_blob;
    config.initrd_blob = image.initrd_blob;
    config.cmdline = image.cmdline;
    config.disk = image.instantiate_disk();
    auto guest = hypervisor.launch(config);
    (void)(*guest)->boot();
    auto& channel = (*guest)->channel();

    const auto auth0 = counter("sevsnp.channel.auth_fail.count",
                               {{"side", "sp"}});
    int rejected = 0;
    const auto attempt = [&](const char* what, const Result<Bytes>& r) {
      const bool blocked = !r.ok();
      if (blocked) ++rejected;
      std::printf("    %-44s %s\n", what,
                  blocked ? r.error().code.c_str() : "ACCEPTED (?)");
    };

    // A malicious hypervisor owns the transport: capture a legitimate
    // sealed exchange to replay and reflect later.
    Bytes captured_request, captured_response;
    channel.set_transport([&](ByteView sealed) -> Result<Bytes> {
      captured_request = to_bytes(sealed);
      auto response = channel.deliver_to_sp(sealed);
      if (response.ok()) captured_response = *response;
      return response;
    });
    (void)channel.request_counter(0, false);
    channel.set_transport(nullptr);

    // Out-of-order / replayed: the captured request carries an old seq.
    attempt("replay an already-delivered request",
            channel.deliver_to_sp(captured_request));
    // Reflection: a response sealed in the SP->guest direction can never
    // authenticate as a guest->SP request.
    attempt("reflect an SP response back at the SP",
            channel.deliver_to_sp(captured_response));
    // Truncation and bit-flips break the AEAD tag.
    Bytes truncated = channel.seal_request(to_bytes(std::string_view("x")));
    truncated.pop_back();
    attempt("truncate a sealed request", channel.deliver_to_sp(truncated));
    Bytes flipped = channel.seal_request(to_bytes(std::string_view("x")));
    flipped[flipped.size() / 2] ^= 0x40;
    attempt("bit-flip a sealed ciphertext", channel.deliver_to_sp(flipped));
    // A message from a *future* sequence number must not be accepted early
    // (the hypervisor withholding one message cannot skip the stream).
    {
      Bytes skip;  // seal at seq n+1 by advancing guest_seq_ past n first
      append_u8(skip, 4);  // COUNTER_REQ
      append_u8(skip, 0);
      append_u8(skip, 0);
      // Seal at current seq, advance the guest with a *delivered* message,
      // then replay the earlier seal: from the SP's view that seq already
      // passed, equivalent to an out-of-order arrival.
      const Bytes early = channel.seal_request(skip);
      (void)channel.request_counter(0, false);  // consumes the seq
      attempt("deliver an out-of-order (stale-seq) request",
              channel.deliver_to_sp(early));
    }
    // Type confusion: validly sealed, in-sequence messages whose plaintext
    // confuses one message type for another. The AEAD opens — only the
    // per-type body validators hold the line, and they must reject before
    // any state moves. Each probe runs on a fresh channel (same VMPCK,
    // fresh sequence space) because a valid-but-malformed message consumes
    // an SP-side sequence number: the channel fails closed afterwards
    // rather than resynchronising.
    const auto confuse = [&](const char* what, Bytes plaintext) {
      auto fuzz = sevsnp::GuestChannel::open(sp);
      if (!fuzz.ok()) {
        ++g_metric_failures;
        return;
      }
      attempt(what, fuzz->deliver_to_sp(fuzz->seal_request(plaintext)));
    };
    {
      Bytes keyreq_as_counter;
      append_u8(keyreq_as_counter, 4);  // COUNTER_REQ type...
      append_u8(keyreq_as_counter, 1);  // ...with a KEY_REQ-shaped body
      append_u8(keyreq_as_counter, 1);
      append_u32be(keyreq_as_counter, 4);
      append(keyreq_as_counter, std::string_view("seal"));
      append_u32be(keyreq_as_counter, 32);
      confuse("COUNTER_REQ with a KEY_REQ body", keyreq_as_counter);
    }
    {
      Bytes unknown;
      append_u8(unknown, 9);  // no such message type
      append(unknown, std::string_view("junk"));
      confuse("unknown message type 9", unknown);
    }

    const auto auth_delta =
        counter("sevsnp.channel.auth_fail.count", {{"side", "sp"}}) - auth0;
    expect_delta("sevsnp.channel.auth_fail.count{side=sp}", 0, auth_delta,
                 5);  // replay, reflect, truncate, flip, stale-seq
    const bool counter_still_zero = [&] {
      // None of the fuzzed messages may have moved the counter slot.
      auto v = channel.request_counter(0, false);
      return v.ok() && *v == 0;
    }();
    std::printf("    counter slot after the barrage: %s\n",
                counter_still_zero ? "untouched" : "MOVED (?)");
    verdict(rejected == 7 && counter_still_zero,
            "AEAD over (direction, seq) AAD + strict per-type validators");
  }

  // ------------------------------------------------------------- scene 9
  scene(9, "fleet lifecycle — a revoked chip asks for a certificate, a key");
  {
    // The chip's endorsement key leaked: the fleet revoked it. The node on
    // it still boots the genuine image and produces a valid report, so only
    // the revocation gate stands between it and the fleet's TLS identity —
    // at the SP node and at the leader alike.
    RevocationSet revocations;
    sevsnp::AmdSp good_platform(to_bytes(std::string_view("scene9-good")),
                                sevsnp::TcbVersion{2, 0, 8, 115});
    sevsnp::AmdSp leaked_platform(to_bytes(std::string_view("scene9-leaked")),
                                  sevsnp::TcbVersion{2, 0, 8, 115});
    kds.register_platform(good_platform);
    kds.register_platform(leaked_platform);
    (void)revocations.revoke_chip(leaked_platform.chip_id(), "key leaked");

    const auto deploy = [&](sevsnp::AmdSp& platform, const char* host)
        -> std::unique_ptr<core::RevelioVm> {
      core::RevelioVmConfig config;
      config.domain = "fleet.revelio.app";
      config.host = host;
      config.image = image;
      config.kds_address = {"kds.amd.com", 443};
      config.revocation_set = &revocations;
      auto node = core::RevelioVm::deploy(platform, network, config,
                                          net::HttpRouter{});
      if (!node.ok()) {
        std::printf("    deploy failed: %s\n",
                    node.error().to_string().c_str());
        std::exit(1);
      }
      return std::move(*node);
    };
    auto good = deploy(good_platform, "10.0.9.1");
    auto leaked = deploy(leaked_platform, "10.0.9.2");
    core::SpNodeConfig sp_config;
    sp_config.domain = "fleet.revelio.app";
    sp_config.kds_address = {"kds.amd.com", 443};
    sp_config.expected_measurements = {expected};
    sp_config.revocation_set = &revocations;
    core::SpNode sp(network, acme, sp_config);
    sp.approve_node(good->bootstrap_address(), good_platform.chip_id());
    sp.approve_node(leaked->bootstrap_address(), leaked_platform.chip_id());

    const auto revoked0 = counter("attest.revoked.count", {{"kind", "chip"}});
    auto outcomes = sp.provision_fleet();
    bool csr_refused = false;
    if (outcomes.ok()) {
      for (const auto& outcome : *outcomes) {
        if (outcome.bootstrap_address != leaked->bootstrap_address()) continue;
        csr_refused = !outcome.attested &&
                      outcome.failure.find("attest.revocation") !=
                          std::string::npos;
        std::printf("    SP node, CSR of the revoked chip: %s\n",
                    outcome.attested ? "SIGNED (?)" : outcome.failure.c_str());
      }
    }

    // Refused a certificate, the node asks the leader for the key directly.
    net::HttpRequest request;
    request.method = "POST";
    request.path = "/revelio/key-request";
    request.host = "fleet.revelio.app";
    request.body = leaked->identity_evidence().serialize();
    auto raw = network.call({"10.0.9.2", 1}, good->bootstrap_address(),
                            request.serialize());
    auto response = net::HttpResponse::parse(raw.ok() ? *raw : Bytes{});
    const std::string body = response.ok() ? to_string(response->body) : "";
    const bool key_refused =
        response.ok() && response->status == 403 &&
        body.find("attest.revocation") != std::string::npos;
    std::printf("    leader, key request from the revoked chip: %s\n",
                key_refused ? body.c_str() : "KEY HANDED OVER (?)");
    expect_delta("attest.revoked.count{kind=chip}", revoked0,
                 counter("attest.revoked.count", {{"kind", "chip"}}), 2);
    verdict(csr_refused && key_refused && good->serving_tls(),
            "one relying-party verifier, revocation gate before any signature");
  }

  // ------------------------------------------------------------ scene 10
  scene(10, "6.1.2 — swap a service binary (verity and raw mounts)");
  {
    // The host boots the genuine kernel, initrd and cmdline from a disk
    // whose service binary it replaced. On a verity rootfs every byte is
    // pinned by the tree root in the measured cmdline, so the boot fails
    // at open. A raw rootfs pins nothing after launch (the paper has no
    // runtime monitoring, §3.4.2), so the Auditor refuses to publish a
    // measurement for it: no relying party accepts that image, swapped
    // or not.
    imagebuild::BuildInputs swapped_inputs = inputs;
    swapped_inputs.service_files["/opt/service/app"] =
        to_bytes(std::string_view("service-evil"));
    const auto swapped = *builder.build(swapped_inputs);
    sevsnp::AmdSp sp(to_bytes(std::string_view("scene10")),
                     sevsnp::TcbVersion{2, 0, 8, 115});
    vm::Hypervisor hypervisor(sp, clock);
    vm::LaunchConfig config;
    config.kernel_blob = image.kernel_blob;
    config.initrd_blob = image.initrd_blob;
    config.cmdline = image.cmdline;
    config.disk = swapped.instantiate_disk();
    const auto root0 = counter("storage.verity_open.fail.count",
                               {{"reason", "verity.root_mismatch"}});
    const Status verity_boot = [&]() -> Status {
      auto guest = hypervisor.launch(config);
      if (!guest.ok()) return guest.error();
      if (auto booted = (*guest)->boot(); !booted.ok()) return booted.error();
      return Status::success();
    }();
    std::printf("    verity mount, swapped disk: %s\n",
                verity_boot.ok() ? "booted (?)"
                                 : verity_boot.error().to_string().c_str());
    expect_delta("storage.verity_open.fail.count{..root_mismatch}", root0,
                 counter("storage.verity_open.fail.count",
                         {{"reason", "verity.root_mismatch"}}),
                 1);

    imagebuild::BuildInputs raw_inputs = inputs;
    raw_inputs.initrd.setup_verity = false;
    core::Auditor auditor(registry);
    core::TrustedRegistry trusted;
    const auto published = auditor.audit_and_publish(raw_inputs, "svc", trusted);
    const bool refused = !published.ok() &&
                         published.error().code == "auditor.rejected" &&
                         published.error().detail.find("dm-verity") !=
                             std::string::npos;
    std::printf("    auditor, raw-rootfs inputs: %s\n",
                published.ok() ? "PUBLISHED (?)"
                               : published.error().to_string().c_str());
    // Nothing was published, so a verifier meets the raw image's launch
    // measurement as unknown.
    const auto raw = *builder.build(raw_inputs);
    const auto unknown0 =
        counter("registry.lookup.count", {{"result", "unknown"}});
    const bool raw_ok = trusted.is_acceptable(
        "svc", vm::Hypervisor::expected_measurement(
                   raw.kernel_blob, raw.initrd_blob, raw.cmdline));
    expect_delta("registry.lookup.count{result=unknown}", unknown0,
                 counter("registry.lookup.count", {{"result", "unknown"}}),
                 1);
    verdict(!verity_boot.ok() && refused && !raw_ok,
            "verity root on the measured cmdline; Auditor's dm-verity lint");
  }

  if (g_metric_failures > 0) {
    std::printf("\nall scenes complete — %d metric assertion(s) FAILED\n",
                g_metric_failures);
    return 1;
  }
  std::printf("\nall scenes complete, every metric trail as expected\n");
  return 0;
}
