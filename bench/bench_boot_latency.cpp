// Table 1 reproduction: Revelio-imposed delays on first boot.
//
// The paper boots two Revelio-protected workloads — a Boundary Node (BN:
// many system services, 4 GB rootfs, total boot 22.725 s) and a CryptPad
// server (CP: few services, total boot 10.211 s) — and reports the latency
// and relative overhead of the four Revelio first-boot services:
// dm-crypt setup (611/481 ms), dm-verity setup (219/194 ms), dm-verity
// verify (4680/3340 ms) and identity creation (123/132 ms).
//
// We scale every size-dependent quantity by the same factor S = 128
// (4 GB rootfs -> 32 MB class, 84 MB crypt volume -> ~0.7 MB, service
// startup budgets /128), so the *relative* overhead structure survives the
// scaling. Revelio phases do their real cryptographic work and are
// measured in wall time; the other services charge their scaled budgets to
// the simulated clock. Expected shape: dm-verity verify dominates, CP's
// relative overheads exceed BN's (smaller total boot), identity creation
// and dm-verity setup are minor. The printout's rows add up to the boot:
// after the four Revelio phases come the remaining boot phases and the
// deploy time outside every phase (disk hand-off, launch, endpoints).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "imagebuild/builder.hpp"
#include "revelio/revelio_vm.hpp"

namespace {

using namespace revelio;

struct Workload {
  const char* name;
  std::size_t rootfs_payload_bytes;
  std::uint64_t data_partition_blocks;
  std::vector<vm::ServiceSpec> services;
};

// Scaled service budgets: paper totals minus Revelio phases, divided by 128.
// BN: (22725 - 5633) / 128 ~ 133 ms across many services.
// CP: (10211 - 4147) / 128 ~ 47 ms across few services.
Workload boundary_node_workload() {
  return Workload{
      "BN",
      24 << 20,  // 24 MiB service payload (4 GB class / 128, minus base)
      192,       // ~0.75 MiB crypt volume
      {
          {"systemd-networkd", "/usr/sbin/nginx", 18.0},
          {"chrony", "/usr/sbin/nginx", 9.0},
          {"ic-registry-replicator", "/opt/bn/app", 22.0},
          {"ic-boundary", "/opt/bn/app", 25.0},
          {"icx-proxy", "/opt/bn/app", 15.0},
          {"nginx", "/usr/sbin/nginx", 12.0},
          {"unbound", "/usr/sbin/nginx", 8.0},
          {"prometheus-node-exporter", "/opt/bn/app", 7.0},
          {"filebeat", "/opt/bn/app", 9.0},
          {"danted", "/opt/bn/app", 8.0},
      }};
}

Workload cryptpad_workload() {
  // The CP rootfs is smaller than the BN's but of the same order (the
  // paper's verify times, 4680 vs 3340 ms, imply a ~1.4x rootfs ratio).
  return Workload{"CP",
                  16 << 20,
                  192,
                  {
                      {"nodejs-cryptpad", "/opt/bn/app", 30.0},
                      {"nginx", "/usr/sbin/nginx", 12.0},
                      {"systemd-networkd", "/usr/sbin/nginx", 5.0},
                  }};
}

struct BootOutcome {
  vm::BootReport report;
  double deploy_ms = 0.0;  // wall time of the whole RevelioVm::deploy

  /// Deploy time no BootReport phase accounts for: handing the VM its disk,
  /// launch measurement, endpoint registration.
  double outside_phases_ms() const {
    double inside = 0.0;
    for (const auto& phase : report.phases) inside += phase.real_ms;
    return std::max(0.0, deploy_ms - inside);
  }
  /// The boot as the table adds it up: every phase plus the outside time.
  double total_ms() const { return report.total_sim_ms() + outside_phases_ms(); }
};

imagebuild::VmImage build_workload_image(const Workload& workload) {
  imagebuild::PackageRegistry registry;
  imagebuild::BaseImage base;
  base.name = "ubuntu";
  base.tag = "20.04";
  base.packages = {{"nginx", "1.18",
                    {{"/usr/sbin/nginx",
                      to_bytes(std::string_view("nginx-binary"))}}}};
  const auto digest = registry.publish(base);

  imagebuild::BuildInputs inputs;
  inputs.base_image_digest = digest;
  Bytes payload(workload.rootfs_payload_bytes);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 2654435761u >> 11);
  }
  inputs.service_files["/opt/bn/app"] = std::move(payload);
  inputs.initrd.services = workload.services;
  inputs.initrd.allowed_inbound_ports = {"443", "8443"};
  inputs.data_partition_blocks = workload.data_partition_blocks;
  imagebuild::ImageBuilder builder(registry);
  return *builder.build(inputs);
}

BootOutcome boot_workload(const Workload& workload) {
  const auto image = build_workload_image(workload);
  SimClock clock;
  net::Network network(clock);
  sevsnp::AmdSp sp(to_bytes(std::string("platform-") + workload.name),
                   sevsnp::TcbVersion{2, 0, 8, 115});
  static crypto::HmacDrbg kds_drbg(to_bytes(std::string_view("bench-kds")));
  sevsnp::KeyDistributionServer kds(kds_drbg);
  kds.register_platform(sp);
  core::KdsService kds_service(kds, network, {"kds.amd.com", 443});

  core::RevelioVmConfig config;
  config.domain = "svc.revelio.app";
  config.host = "10.0.0.1";
  config.image = image;
  config.kds_address = {"kds.amd.com", 443};
  const auto start = std::chrono::steady_clock::now();
  auto node = core::RevelioVm::deploy(sp, network, std::move(config),
                                      net::HttpRouter{});
  const double deploy_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  if (!node.ok()) {
    std::fprintf(stderr, "deploy failed: %s\n", node.error().to_string().c_str());
    std::abort();
  }
  return BootOutcome{(*node)->boot_report(), deploy_ms};
}

void BM_FirstBoot(benchmark::State& state, const Workload& workload) {
  for (auto _ : state) {
    auto outcome = boot_workload(workload);
    benchmark::DoNotOptimize(outcome);
  }
}

void print_table1() {
  std::printf("\n=== Table 1: Revelio-imposed delays on first boot ===\n");
  struct Row {
    const char* phase;
    double paper_bn_ms;
    double paper_cp_ms;
  };
  const Row rows[] = {
      {"dm-crypt setup", 611, 481},
      {"dm-verity setup", 219, 194},
      {"dm-verity verify", 4680, 3340},
      {"identity creation", 123, 132},
  };
  const auto bn = boot_workload(boundary_node_workload());
  const auto cp = boot_workload(cryptpad_workload());
  const double bn_total = bn.total_ms();
  const double cp_total = cp.total_ms();
  double bn_listed = 0.0;
  double cp_listed = 0.0;

  std::printf("%-20s | %10s %9s | %10s %9s | paper ovh (BN/CP)\n", "phase",
              "BN (ms)", "ovh", "CP (ms)", "ovh");
  for (const auto& row : rows) {
    const auto* bn_phase = bn.report.find(row.phase);
    const auto* cp_phase = cp.report.find(row.phase);
    const double bn_ms = bn_phase ? bn_phase->sim_ms : 0.0;
    const double cp_ms = cp_phase ? cp_phase->sim_ms : 0.0;
    bn_listed += bn_ms;
    cp_listed += cp_ms;
    std::printf("%-20s | %10.2f %8.2f%% | %10.2f %8.2f%% | %5.2f%% / %5.2f%%\n",
                row.phase, bn_ms, bn_ms / bn_total * 100.0, cp_ms,
                cp_ms / cp_total * 100.0, row.paper_bn_ms / 22725.0 * 100.0,
                row.paper_cp_ms / 10211.0 * 100.0);
  }
  // The rows add up to the boot: the remaining BootReport phases (kernel,
  // mounts, the services' scaled budgets), then the deploy time outside
  // every phase.
  const auto unlisted_row = [&](const char* label, double bn_ms, double cp_ms) {
    std::printf("%-20s | %10.2f %8.2f%% | %10.2f %8.2f%% |\n", label, bn_ms,
                bn_ms / bn_total * 100.0, cp_ms, cp_ms / cp_total * 100.0);
  };
  unlisted_row("other phases", bn.report.total_sim_ms() - bn_listed,
               cp.report.total_sim_ms() - cp_listed);
  unlisted_row("outside phases", bn.outside_phases_ms(),
               cp.outside_phases_ms());
  std::printf("%-20s | %10.2f          | %10.2f          | 22725 / 10211 "
              "(ms, unscaled)\n",
              "total boot", bn_total, cp_total);
  std::printf("shape: verify dominates; CP%%s exceed BN%%s; setup+identity "
              "minor\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RegisterBenchmark("BM_FirstBoot/BN", BM_FirstBoot,
                               boundary_node_workload());
  benchmark::RegisterBenchmark("BM_FirstBoot/CP", BM_FirstBoot,
                               cryptpad_workload());
  benchmark::RunSpecifiedBenchmarks();
  print_table1();
  return 0;
}
