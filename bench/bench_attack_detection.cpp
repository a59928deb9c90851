// Security-analysis ablation (§6.1): attack detection with and without
// Revelio's mechanisms.
//
// For each attack of the paper's security analysis (6.1.1 malicious
// kernel/initrd/cmdline via three vectors, 6.1.2 rootfs tampering, 6.1.3
// runtime modification, 6.1.4 rollback), this bench runs the attack twice:
// against a baseline deployment with the corresponding defence disabled
// (no measured boot verification / no dm-verity / no revocation) and
// against the full Revelio configuration — and reports detection plus the
// cost of the defence. This is the ablation DESIGN.md calls out for the
// measured-direct-boot and revocation design choices.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "imagebuild/builder.hpp"
#include "revelio/relying_party.hpp"
#include "revelio/revocation.hpp"
#include "vm/hypervisor.hpp"

namespace {

using namespace revelio;

struct Rig {
  Rig() {
    imagebuild::BaseImage base;
    base.name = "ubuntu";
    base.tag = "20.04";
    base.packages = {{"nginx", "1.18",
                      {{"/usr/sbin/nginx",
                        to_bytes(std::string_view("nginx-binary"))}}}};
    digest = registry.publish(base);
    image = build(true);
    weak_image = build(false);
    expected = vm::Hypervisor::expected_measurement(
        image.kernel_blob, image.initrd_blob, image.cmdline);
  }

  imagebuild::VmImage build(bool verity) {
    imagebuild::BuildInputs inputs;
    inputs.base_image_digest = digest;
    inputs.service_files["/opt/service/app"] =
        to_bytes(std::string_view("app-v1"));
    inputs.initrd.setup_verity = verity;
    inputs.kernel.enforce_verity = verity;
    inputs.initrd.setup_crypt = false;  // isolate the verity ablation
    inputs.initrd.services = {{"app", "/opt/service/app", 10.0}};
    imagebuild::ImageBuilder builder(registry);
    return *builder.build(inputs);
  }

  vm::LaunchConfig config_for(const imagebuild::VmImage& img) {
    vm::LaunchConfig config;
    config.kernel_blob = img.kernel_blob;
    config.initrd_blob = img.initrd_blob;
    config.cmdline = img.cmdline;
    config.disk = img.instantiate_disk();
    return config;
  }

  imagebuild::PackageRegistry registry;
  crypto::Digest32 digest;
  imagebuild::VmImage image;
  imagebuild::VmImage weak_image;  // verity disabled
  sevsnp::Measurement expected;
};

Rig& rig() {
  static Rig r;
  return r;
}

struct AttackOutcome {
  bool attack_succeeded = false;  // attacker got a running, undetected VM
  std::string detected_by;
};

/// 6.1.1 — hypervisor swaps the kernel after measurement.
AttackOutcome attack_swap_kernel(bool measured_boot_defence) {
  SimClock clock;
  sevsnp::AmdSp sp(to_bytes(std::string_view("attack-platform")),
                   sevsnp::TcbVersion{2, 0, 8, 115});
  vm::Hypervisor hypervisor(sp, clock);
  auto config = rig().config_for(rig().image);
  vm::KernelSpec evil;
  evil.enforce_verity = false;
  config.swap_kernel_after_measure = evil.serialize();
  if (!measured_boot_defence) {
    // Baseline: firmware without the hash-table check.
    config.use_malicious_firmware = true;
  }
  auto guest = hypervisor.launch(config);
  if (!guest.ok()) return {false, "firmware hash table (boot refused)"};
  // Boot succeeded locally; a verifier still compares the measurement.
  if ((*guest)->measurement() == rig().expected) {
    return {true, ""};
  }
  return {false, measured_boot_defence ? "attestation measurement"
                                       : "attestation measurement (firmware "
                                         "swap visible)"};
}

/// 6.1.2 — provider tampers with the rootfs image on disk.
AttackOutcome attack_tamper_rootfs(bool verity_defence) {
  SimClock clock;
  sevsnp::AmdSp sp(to_bytes(std::string_view("attack-platform-2")),
                   sevsnp::TcbVersion{2, 0, 8, 115});
  vm::Hypervisor hypervisor(sp, clock);
  const auto& img = verity_defence ? rig().image : rig().weak_image;
  auto config = rig().config_for(img);
  config.disk->raw_tamper(4096 * 3 + 500, 0x01);
  auto guest = hypervisor.launch(config);
  if (!guest.ok()) return {false, "launch"};
  auto report = (*guest)->boot();
  if (!report.ok()) return {false, "dm-verity (boot failed)"};
  return {true, ""};
}

/// 6.1.3 — runtime modification of a binary on the host disk.
AttackOutcome attack_runtime_tamper(bool verity_defence) {
  SimClock clock;
  sevsnp::AmdSp sp(to_bytes(std::string_view("attack-platform-3")),
                   sevsnp::TcbVersion{2, 0, 8, 115});
  vm::Hypervisor hypervisor(sp, clock);
  const auto& img = verity_defence ? rig().image : rig().weak_image;
  auto config = rig().config_for(img);
  auto disk = config.disk;
  auto guest = hypervisor.launch(config);
  if (!guest.ok() || !(*guest)->boot().ok()) return {false, "boot"};
  const auto entry = (*guest)->rootfs().directory().at("/opt/service/app");
  disk->raw_tamper(4096 + entry.offset, 0x80);
  auto read = (*guest)->rootfs().read_file("/opt/service/app");
  if (!read.ok()) return {false, "dm-verity (read failed)"};
  return {true, ""};
}

/// 6.1.4 — provider boots an obsolete (vulnerable) image. The old image is
/// perfectly valid and its registry still publishes it; only the relying
/// party's revocation gate catches it.
AttackOutcome attack_rollback(bool revocation_defence) {
  SimClock clock;
  sevsnp::AmdSp sp(to_bytes(std::string_view("attack-platform-4")),
                   sevsnp::TcbVersion{2, 0, 8, 115});
  vm::Hypervisor hypervisor(sp, clock);
  auto guest = hypervisor.launch(rig().config_for(rig().image));
  if (!guest.ok()) return {false, "launch"};
  core::EvidenceBundle evidence;
  evidence.payload = to_bytes(std::string_view("node identity key"));
  auto report = sp.get_report(core::EvidenceBundle::bind(evidence.payload));
  if (!report.ok()) return {false, "report"};
  evidence.report = std::move(*report);
  crypto::HmacDrbg drbg(to_bytes(std::string_view("attack-kds")));
  sevsnp::KeyDistributionServer kds(drbg);
  kds.register_platform(sp);
  auto vcek = kds.fetch_vcek(sp.chip_id(), sp.tcb());
  if (!vcek.ok()) return {false, "kds"};

  core::TrustedRegistry registry;
  registry.publish("svc", rig().expected);
  RevocationSet revocations;
  if (revocation_defence) {  // new release rolled out
    (void)revocations.revoke_measurement(rig().expected, "superseded");
  }
  core::RelyingPartyPolicy policy;
  policy.registry = &registry;
  policy.registry_service = "svc";
  policy.revocation_set = &revocations;
  const Status st = core::verify_evidence(
      evidence, {*vcek, kds.ask_certificate(), kds.ark_certificate()},
      clock.now_us(), std::move(policy));
  if (st.ok()) return {true, ""};
  return {false, "verifier: " + st.error().code};
}

void print_matrix() {
  std::printf("\n=== Security analysis (6.1): attack detection matrix ===\n");
  std::printf("%-28s | %-28s | %-28s\n", "attack", "defence disabled",
              "full Revelio");
  auto row = [](const char* name, AttackOutcome weak, AttackOutcome full) {
    std::printf("%-28s | %-28s | %-28s\n", name,
                weak.attack_succeeded ? "UNDETECTED (succeeds)"
                                      : weak.detected_by.c_str(),
                full.attack_succeeded ? "UNDETECTED (succeeds)"
                                      : full.detected_by.c_str());
  };
  row("6.1.1 kernel swap", attack_swap_kernel(false),
      attack_swap_kernel(true));
  row("6.1.2 rootfs tamper", attack_tamper_rootfs(false),
      attack_tamper_rootfs(true));
  row("6.1.3 runtime modification", attack_runtime_tamper(false),
      attack_runtime_tamper(true));
  row("6.1.4 rollback", attack_rollback(false), attack_rollback(true));
  std::printf("expected: left column mostly UNDETECTED, right column never\n\n");
}

void BM_MeasuredBootLaunch(benchmark::State& state) {
  // Cost of the defended launch path (firmware hash verification included).
  SimClock clock;
  sevsnp::AmdSp sp(to_bytes(std::string_view("bench-launch")),
                   sevsnp::TcbVersion{2, 0, 8, 115});
  vm::Hypervisor hypervisor(sp, clock);
  for (auto _ : state) {
    auto config = rig().config_for(rig().image);
    auto guest = hypervisor.launch(config);
    benchmark::DoNotOptimize(guest);
    sp.launch_reset();
  }
}

void BM_ExpectedMeasurementReconstruction(benchmark::State& state) {
  // What a verifying end-user recomputes from the public sources.
  for (auto _ : state) {
    benchmark::DoNotOptimize(vm::Hypervisor::expected_measurement(
        rig().image.kernel_blob, rig().image.initrd_blob,
        rig().image.cmdline));
  }
}

BENCHMARK(BM_MeasuredBootLaunch)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ExpectedMeasurementReconstruction)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_matrix();
  return 0;
}
