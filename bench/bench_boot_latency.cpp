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

#include "boot_workloads.hpp"
#include "revelio/revelio_vm.hpp"

namespace {

using namespace revelio;
using bench::boundary_node_workload;
using bench::cryptpad_workload;
using bench::Workload;
using bench::WorkloadBuild;

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

BootOutcome boot_image(const Workload& workload,
                       const imagebuild::VmImage& image) {
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

BootOutcome boot_workload(const Workload& workload) {
  return boot_image(workload, WorkloadBuild(workload).build());
}

// The image is built once, outside the timed loop: BM_ImageBuild times
// the build.
void BM_FirstBoot(benchmark::State& state, const Workload& workload) {
  const auto image = WorkloadBuild(workload).build();
  for (auto _ : state) {
    auto outcome = boot_image(workload, image);
    benchmark::DoNotOptimize(outcome);
  }
}

void BM_ImageBuild(benchmark::State& state, const Workload& workload) {
  const WorkloadBuild build(workload);
  for (auto _ : state) {
    auto image = build.build();
    benchmark::DoNotOptimize(image);
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
  benchmark::RegisterBenchmark("BM_ImageBuild/BN", BM_ImageBuild,
                               boundary_node_workload());
  benchmark::RegisterBenchmark("BM_ImageBuild/CP", BM_ImageBuild,
                               cryptpad_workload());
  benchmark::RunSpecifiedBenchmarks();
  print_table1();
  return 0;
}
