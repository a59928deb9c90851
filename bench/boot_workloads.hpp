// The paper's two first-boot workloads (Table 1), scaled by 128: the
// Boundary Node (BN) and the CryptPad server (CP), with their build inputs.
// bench_boot_latency boots and builds them; the image-build tests build the
// CryptPad image from the same inputs.
//
// Header-only: the bench and each test binary compile it in; there is no
// library target.
#pragma once

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "imagebuild/builder.hpp"

namespace revelio::bench {

struct Workload {
  const char* name;
  std::size_t rootfs_payload_bytes;
  std::uint64_t data_partition_blocks;
  std::vector<vm::ServiceSpec> services;
};

// Scaled service budgets: paper totals minus Revelio phases, divided by 128.
// BN: (22725 - 5633) / 128 ~ 133 ms across many services.
// CP: (10211 - 4147) / 128 ~ 47 ms across few services.
inline Workload boundary_node_workload() {
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

inline Workload cryptpad_workload() {
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

// A workload's registry and build inputs, so a build can be timed alone.
struct WorkloadBuild {
  explicit WorkloadBuild(const Workload& workload) {
    imagebuild::BaseImage base;
    base.name = "ubuntu";
    base.tag = "20.04";
    base.packages = {{"nginx", "1.18",
                      {{"/usr/sbin/nginx",
                        to_bytes(std::string_view("nginx-binary"))}}}};
    inputs.base_image_digest = registry.publish(base);
    Bytes payload(workload.rootfs_payload_bytes);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::uint8_t>(i * 2654435761u >> 11);
    }
    inputs.service_files["/opt/bn/app"] = std::move(payload);
    inputs.initrd.services = workload.services;
    inputs.initrd.allowed_inbound_ports = {"443", "8443"};
    inputs.data_partition_blocks = workload.data_partition_blocks;
  }

  imagebuild::VmImage build() const {
    return *imagebuild::ImageBuilder(registry).build(inputs);
  }

  imagebuild::PackageRegistry registry;
  imagebuild::BuildInputs inputs;
};

}  // namespace revelio::bench
