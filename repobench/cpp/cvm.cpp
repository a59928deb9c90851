// cvm_node: the confidential VM's own costs, single-threaded.
//
// Each iteration runs one measured first boot through RevelioVm::deploy of
// one of the paper's two Table 1 deployments, in turn, shaped as
// bench_boot_latency shapes them: CryptPad (16 MiB service payload, three
// services) and the Boundary Node (24 MiB, ten services).
// Then comes an I/O phase on a freshly opened dm-verity view of the
// CryptPad image's rootfs: seeded, Zipf-skewed random 4 KiB reads, so first
// touches climb the hash tree and repeats stop at a verified ancestor. Next
// to it a dm-crypt sealed volume serves a 70/30 read/write mix. Reads and
// writes share the crypt layer, so a gain for one that costs the other
// shows. Every iteration replays the same seeded access trace on a fresh
// verity open, which keeps per-iteration counts identical.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "common/hex.hpp"
#include "crypto/sha2.hpp"
#include "imagebuild/builder.hpp"
#include "obs/metrics.hpp"
#include "revelio/evidence.hpp"
#include "revelio/revelio_vm.hpp"
#include "storage/dm_crypt.hpp"
#include "storage/dm_verity.hpp"
#include "storage/mem_disk.hpp"
#include "storage/partition.hpp"

namespace repobench {

namespace {

using namespace revelio;

constexpr std::size_t kBlock = 4096;
constexpr std::size_t kVerityReads = 2048;   // per iteration
constexpr std::size_t kCryptOps = 1024;      // per iteration, 70% reads
constexpr std::uint64_t kCryptBlocks = 2048;  // 8 MiB sealed volume
constexpr double kZipfS = 0.99;
// Peak memory is read after this many timed iterations.
constexpr std::size_t kRssIterations = 16;

/// A Table 1 deployment as bench_boot_latency shapes it (sizes and service
/// budgets scaled by 1/128).
struct Deployment {
  std::size_t payload_bytes;
  std::vector<vm::ServiceSpec> services;
};

// Image 0 also holds the I/O phase's rootfs. Over the two boots, the
// nearest-rank p50 is the CryptPad boot and p90 the Boundary Node's.
const std::array<Deployment, 2> kDeployments = {{
    {16 << 20,
     {{"nodejs-cryptpad", "/srv/app/service", 30.0},
      {"nginx", "/usr/sbin/nginx", 12.0},
      {"systemd-networkd", "/usr/sbin/nginx", 5.0}}},
    {24 << 20,
     {{"systemd-networkd", "/usr/sbin/nginx", 18.0},
      {"chrony", "/usr/sbin/nginx", 9.0},
      {"ic-registry-replicator", "/srv/app/service", 22.0},
      {"ic-boundary", "/srv/app/service", 25.0},
      {"icx-proxy", "/srv/app/service", 15.0},
      {"nginx", "/usr/sbin/nginx", 12.0},
      {"unbound", "/usr/sbin/nginx", 8.0},
      {"prometheus-node-exporter", "/srv/app/service", 7.0},
      {"filebeat", "/srv/app/service", 9.0},
      {"danted", "/srv/app/service", 8.0}}},
}};

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double unit(std::uint64_t& state) {
  return static_cast<double>(splitmix(state) >> 11) / 9007199254740992.0;
}

/// `count` Zipf(s) draws over [0, n), rank r mapped to a seeded random
/// block so hot blocks scatter over the device.
std::vector<std::uint64_t> zipf_trace(std::uint64_t& state, std::uint64_t n,
                                      std::size_t count) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::uint64_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
    cdf[r] = total;
  }
  std::vector<std::uint64_t> block_of_rank(n);
  for (std::uint64_t r = 0; r < n; ++r) block_of_rank[r] = r;
  for (std::uint64_t k = n; k > 1; --k) {
    std::swap(block_of_rank[k - 1], block_of_rank[splitmix(state) % k]);
  }
  std::vector<std::uint64_t> trace(count);
  for (auto& block : trace) {
    const double u = unit(state) * total;
    const auto rank = static_cast<std::uint64_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    block = block_of_rank[std::min(rank, n - 1)];
  }
  return trace;
}

/// The image of one deployment: its service payload (seeded content), its
/// services, a 192-block sealed data volume.
imagebuild::VmImage build_image(std::uint64_t seed, const Deployment& d) {
  imagebuild::PackageRegistry registry;
  imagebuild::BaseImage base;
  base.name = "ubuntu";
  base.tag = "20.04";
  base.packages = {{"nginx", "1.18",
                    {{"/usr/sbin/nginx",
                      to_bytes(std::string_view("nginx-binary"))}}}};
  imagebuild::BuildInputs inputs;
  inputs.base_image_digest = registry.publish(base);
  Bytes payload(d.payload_bytes);
  std::uint64_t state = seed ^ 0xC0FFEEull;
  for (std::size_t i = 0; i < payload.size(); i += 8) {
    const std::uint64_t x = splitmix(state);
    std::memcpy(payload.data() + i, &x, 8);
  }
  inputs.service_files["/srv/app/service"] = std::move(payload);
  inputs.initrd.services = d.services;
  inputs.initrd.allowed_inbound_ports = {"443", "8443"};
  inputs.data_partition_blocks = 192;
  auto built = imagebuild::ImageBuilder(registry).build(inputs);
  if (!built.ok()) {
    std::fprintf(stderr, "image build failed: %s\n",
                 built.error().to_string().c_str());
    std::exit(1);
  }
  return *built;
}

struct CryptOp {
  std::uint64_t block = 0;
  bool write = false;
};

/// Everything the timed loop needs, built before timing.
struct Node {
  explicit Node(std::uint64_t seed)
      : kds_drbg(to_bytes("repobench-cvm-kds-" + std::to_string(seed))),
        kds(kds_drbg),
        platform(to_bytes("repobench-cvm-platform-" + std::to_string(seed)),
                 sevsnp::TcbVersion{2, 0, 8, 115}) {
    for (std::size_t k = 0; k < kDeployments.size(); ++k) {
      const PaceEpoch pace;
      const std::int64_t t0 = process_cpu_ns();
      images.push_back(build_image(seed + k, kDeployments[k]));
      const std::int64_t ns = process_cpu_ns() - t0;
      if (k == 0) image_build_ms = ns / 1e6 * pace.scale();
    }
    const imagebuild::VmImage& image = images[0];
    kds.register_platform(platform);

    auto disk = image.instantiate_disk();
    auto rootfs = storage::PartitionTable::open(disk, "rootfs");
    auto hash = storage::PartitionTable::open(disk, "verity");
    if (!rootfs.ok() || !hash.ok()) {
      std::fprintf(stderr, "image partitions missing\n");
      std::exit(1);
    }
    rootfs_part = *rootfs;
    hash_part = *hash;
    rootfs_ref.resize(rootfs_part->block_count() * kBlock);
    for (std::uint64_t b = 0; b < rootfs_part->block_count(); ++b) {
      (void)rootfs_part->read_block(
          b, std::span<std::uint8_t>(rootfs_ref.data() + b * kBlock, kBlock));
    }

    crypto::HmacDrbg drbg(to_bytes("repobench-crypt-" + std::to_string(seed)));
    auto formatted = storage::CryptVolume::format(
        std::make_shared<storage::MemDisk>(kBlock, kCryptBlocks + 8),
        drbg.generate(32), drbg.generate(32));
    if (!formatted.ok()) {
      std::fprintf(stderr, "crypt format failed\n");
      std::exit(1);
    }
    crypt = *formatted;
    shadow.assign(crypt->block_count() * kBlock, 0);
    for (std::uint64_t b = 0; b < crypt->block_count(); ++b) {
      Bytes block(kBlock);
      for (std::size_t i = 0; i < kBlock; i += 8) {
        const std::uint64_t x = splitmix(fill_state);
        std::memcpy(block.data() + i, &x, 8);
      }
      (void)crypt->write_block(b, block);
      std::memcpy(shadow.data() + b * kBlock, block.data(), kBlock);
    }

    std::uint64_t trace_state = seed * 0x9E3779B97F4A7C15ull + 17;
    verity_trace = zipf_trace(trace_state, rootfs_part->block_count(),
                              kVerityReads);
    const auto crypt_blocks =
        zipf_trace(trace_state, crypt->block_count(), kCryptOps);
    for (std::uint64_t block : crypt_blocks) {
      crypt_trace.push_back({block, unit(trace_state) < 0.3});
    }
    std::string inputs;
    for (const auto& img : images) inputs += to_hex(img.digest()) + ",";
    for (auto b : verity_trace) inputs += "," + std::to_string(b);
    for (const auto& op : crypt_trace) {
      inputs += (op.write ? ",w" : ",r") + std::to_string(op.block);
    }
    inputs_digest = to_hex(crypto::sha256(to_bytes(inputs)));
  }

  crypto::HmacDrbg kds_drbg;
  sevsnp::KeyDistributionServer kds;
  sevsnp::AmdSp platform;
  std::vector<imagebuild::VmImage> images;  // [0] holds the I/O rootfs
  double image_build_ms = 0.0;
  std::shared_ptr<storage::BlockDevice> rootfs_part;
  std::shared_ptr<storage::BlockDevice> hash_part;
  Bytes rootfs_ref;
  std::shared_ptr<storage::DmCryptDevice> crypt;
  Bytes shadow;
  std::uint64_t fill_state = 0x5EEDull;
  std::vector<std::uint64_t> verity_trace;
  std::vector<CryptOp> crypt_trace;
  std::string inputs_digest;
};

enum OpKind : int { kVerityRead, kCryptRead, kCryptWrite };

struct Iteration {
  std::size_t image = 0;
  bool booted = false;
  double boot_cpu_ms = 0.0;
  vm::BootReport boot;
  double open_ms = 0.0;
  double io_cpu_ms = 0.0;        // process CPU of the whole I/O phase
  std::vector<double> op_us;     // per position of the access trace
  std::vector<OpKind> op_kind;
  std::size_t io_failed = 0;
  double full_walks = 0.0;
  double ancestor_hits = 0.0;
};

double counter(const char* name) {
  return static_cast<double>(obs::metrics().counter_value(name));
}

Iteration run_iteration(Node& node, std::uint64_t index, Ledger& ledger,
                        Outcome& out) {
  Iteration it;
  it.image = index % kDeployments.size();
  const auto gate = [&](const std::string& msg) { add_gate_failure(out, msg); };

  {  // Measured first boot.
    SimClock clock;
    net::Network network(clock);
    core::KdsService kds_service(node.kds, network, {"kds.amd.com", 443});
    core::RevelioVmConfig config;
    config.domain = "svc.revelio.app";
    config.host = "10.0.0.1";
    config.image = node.images[it.image];
    config.kds_address = {"kds.amd.com", 443};
    CpuTimer timer(ledger, "vm.deploy", index, 0, clock.now_us());
    auto vm = core::RevelioVm::deploy(node.platform, network,
                                      std::move(config), net::HttpRouter{});
    it.boot_cpu_ms = timer.stop(clock.now_us());
    if (vm.ok() && (*vm)->boot_report().first_boot) {
      it.booted = true;
      it.boot = (*vm)->boot_report();
    } else if (index == 0) {
      std::fprintf(stderr, "first boot failed: %s\n",
                   vm.ok() ? "not a first boot"
                           : vm.error().to_string().c_str());
    }
  }
  node.platform.launch_reset();  // the VM is gone: free the guest context

  const double walks0 =
      counter("storage.verity_read.ancestor_cache.full_walk.count");
  const double hits0 = counter("storage.verity_read.ancestor_cache.hit.count");
  const PaceEpoch pace;
  const std::int64_t io_t0 = process_cpu_ns();
  CpuTimer open_timer(ledger, "storage.verity_open", index, 0);
  auto opened = storage::Verity::open(node.rootfs_part, node.hash_part,
                                      node.images[0].verity_root);
  it.open_ms = open_timer.stop();
  if (!opened.ok()) {
    gate("verity open failed: " + opened.error().to_string());
    return it;
  }
  storage::VerityDevice& verity = **opened;

  Bytes buf(kBlock);
  std::uint64_t write_state = (index + 1) * 0xD1B54A32D192ED03ull;
  const auto timed = [&](OpKind kind, const char* span, auto&& call) {
    CpuTimer t(ledger, span, index, 0);
    const Status st = call();
    it.op_us.push_back(t.stop() * 1e3);
    it.op_kind.push_back(kind);
    if (!st.ok()) ++it.io_failed;
    return st.ok();
  };
  it.op_us.reserve(kVerityReads + kCryptOps);
  for (std::size_t k = 0; k < node.verity_trace.size(); ++k) {
    const std::uint64_t b = node.verity_trace[k];
    if (timed(kVerityRead, "storage.verity_read",
              [&] { return verity.read_block(b, buf); }) &&
        std::memcmp(buf.data(), node.rootfs_ref.data() + b * kBlock, kBlock) !=
            0) {
      gate("verity block " + std::to_string(b) +
           " differs from the formatted content");
    }
    // The crypt ops are interleaved at half the verity rate.
    if (k % 2 == 0 || k / 2 >= node.crypt_trace.size()) continue;
    const CryptOp& op = node.crypt_trace[k / 2];
    std::uint8_t* expect = node.shadow.data() + op.block * kBlock;
    if (op.write) {
      for (std::size_t i = 0; i < kBlock; i += 8) {
        const std::uint64_t x = splitmix(write_state);
        std::memcpy(buf.data() + i, &x, 8);
      }
      if (timed(kCryptWrite, "storage.crypt_write",
                [&] { return node.crypt->write_block(op.block, buf); })) {
        std::memcpy(expect, buf.data(), kBlock);
      }
    } else if (timed(kCryptRead, "storage.crypt_read",
                     [&] { return node.crypt->read_block(op.block, buf); }) &&
               std::memcmp(buf.data(), expect, kBlock) != 0) {
      gate("crypt block " + std::to_string(op.block) +
           " differs from its last write");
    }
  }
  const std::int64_t io_cpu_ns = process_cpu_ns() - io_t0;
  it.io_cpu_ms = io_cpu_ns / 1e6 * pace.scale();
  it.full_walks =
      counter("storage.verity_read.ancestor_cache.full_walk.count") - walks0;
  it.ancestor_hits =
      counter("storage.verity_read.ancestor_cache.hit.count") - hits0;
  return it;
}

/// Aggregates iterations. Every iteration replays one access trace, so
/// trace position k is one repeated unit of work, and boots of one image
/// are repeats of each other; per-unit figures are medians.
struct Tally {
  std::size_t iterations = 0;
  std::size_t boot_failures = 0;
  std::size_t io_ops = 0;
  std::size_t io_failed = 0;
  RepeatedCosts boot;                          // per image, ms
  std::map<std::string, RepeatedCosts> phase;  // per image, ms
  RepeatedCosts op;                            // per trace position, us
  std::vector<OpKind> kind;                    // per trace position
  RepeatedCosts open;                          // ms
  std::vector<double> io_per_cpu_s;            // per iteration
  double full_walks = -1.0;
  double ancestor_hits = -1.0;

  void add(const Iteration& it, std::vector<std::string>& varied) {
    ++iterations;
    if (it.booted) {
      boot.observe(it.image, it.boot_cpu_ms);
      for (const auto& p : it.boot.phases) phase[p.name].observe(it.image, p.real_ms);
    } else {
      ++boot_failures;
    }
    io_ops += it.op_us.size();
    io_failed += it.io_failed;
    open.observe(0, it.open_ms);
    for (std::size_t k = 0; k < it.op_us.size(); ++k) op.observe(k, it.op_us[k]);
    if (it.io_cpu_ms > 0.0) {
      io_per_cpu_s.push_back(
          static_cast<double>(it.op_us.size() - it.io_failed) / (it.io_cpu_ms / 1e3));
    }
    if (kind.empty()) kind = it.op_kind;
    const auto same = [&](double& have, double now, const char* name) {
      if (have < 0.0) have = now;
      else if (have != now &&
               std::find(varied.begin(), varied.end(), name) == varied.end()) {
        varied.push_back(name);
      }
    };
    same(full_walks, it.full_walks, "storage.verity.full_walks");
    same(ancestor_hits, it.ancestor_hits, "storage.verity.ancestor_hits");
  }

  /// Completed 4 KiB verity/crypt calls per process CPU-second of an I/O
  /// phase (its verity open included), median over iterations.
  double per_cpu_s() const { return percentile(io_per_cpu_s, 0.5); }
  double op_p50(OpKind k) const {
    const std::vector<double> all = op.values();
    std::vector<double> of_kind;
    for (std::size_t i = 0; i < all.size() && i < kind.size(); ++i) {
      if (kind[i] == k) of_kind.push_back(all[i]);
    }
    return percentile(of_kind, 0.5);
  }
  double phase_p50(const char* name) const {
    const auto found = phase.find(name);
    return found == phase.end() ? 0.0 : percentile(found->second.values(), 0.5);
  }
};

}  // namespace

Outcome run_cvm_node(const Options& opt, Ledger& ledger) {
  Outcome out;
  init_layers(out);

  // Set-up: image builds, platform and KDS, the rootfs reference copy, the
  // filled crypt volume, the seeded traces, then one untimed iteration.
  // Every set-up warms up with the same iteration (a CryptPad boot).
  std::unique_ptr<Node> built;
  const double setup_s = median_setup_s([&] { built.reset(); },
                                        [&] {
                                          built = std::make_unique<Node>(opt.seed);
                                          (void)run_iteration(*built, 0, ledger,
                                                              out);
                                        });
  std::uint64_t index = 1;
  Node& node = *built;
  out.inputs_digest = node.inputs_digest;
  const double rss_after_setup = current_rss_mib();

  Tally untraced;
  Tally traced;
  std::vector<std::string> varied;
  const LoopResult loop = timed_loop(
      opt, ledger, kRssIterations, untraced, traced, [&](Tally& tally) {
        tally.add(run_iteration(node, index++, ledger, out), varied);
      });

  const Tally& t = opt.trace ? traced : untraced;
  out.attempted = untraced.iterations + traced.iterations + untraced.io_ops +
                  traced.io_ops;
  out.failed = untraced.boot_failures + traced.boot_failures +
               untraced.io_failed + traced.io_failed;

  const std::vector<double> op_us = t.op.values();
  const std::vector<double> boot_ms = t.boot.values();
  out.end_to_end["work_per_cpu_s"] = {t.per_cpu_s(), "1/s"};
  out.end_to_end["work_cpu_us_mean"] = {mean(op_us), "us"};
  out.end_to_end["work_cpu_us_p90"] = {percentile(op_us, 0.9), "us"};
  out.end_to_end["ready_ms_p50"] = {percentile(boot_ms, 0.5), "ms"};
  out.end_to_end["ready_ms_p90"] = {percentile(boot_ms, 0.9), "ms"};
  out.end_to_end["peak_rss_mib"] = {loop.peak_rss_mib, "MiB"};
  out.end_to_end["setup_s"] = {setup_s, "s"};
  out.named["boot_cpu_ms_p50"] = {percentile(boot_ms, 0.5), "ms"};
  out.named["io_MiB_per_cpu_s"] = {t.per_cpu_s() * kBlock / (1 << 20), "MiB/s"};
  out.named["io_op_us_p50"] = {percentile(op_us, 0.5), "us"};
  out.named["io_op_us_p99"] = {percentile(op_us, 0.99), "us"};

  set_layer(out, "vm.deploy.cpu_ms", percentile(boot_ms, 0.5));
  set_layer(out, "vm.boot.dm_crypt_setup_ms", t.phase_p50("dm-crypt setup"));
  set_layer(out, "vm.boot.dm_verity_setup_ms", t.phase_p50("dm-verity setup"));
  set_layer(out, "vm.boot.dm_verity_verify_ms",
            t.phase_p50("dm-verity verify"));
  set_layer(out, "vm.boot.identity_creation_ms",
            t.phase_p50("identity creation"));
  set_layer(out, "storage.verity_open.cpu_ms", t.open.sum());
  set_layer(out, "storage.verity_read.cpu_us", t.op_p50(kVerityRead));
  set_layer(out, "storage.crypt_read.cpu_us", t.op_p50(kCryptRead));
  set_layer(out, "storage.crypt_write.cpu_us", t.op_p50(kCryptWrite));
  set_layer(out, "storage.verity.full_walks", std::max(0.0, t.full_walks));
  set_layer(out, "storage.verity.ancestor_hits", std::max(0.0, t.ancestor_hits));
  set_layer(out, "imagebuild.build.cpu_ms", node.image_build_ms);
  set_layer(out, "mem.rss_growth_kib_per_unit",
            (current_rss_mib() - rss_after_setup) * 1024.0 /
                static_cast<double>(std::max<std::size_t>(
                    1, untraced.iterations + traced.iterations)));
  if (opt.trace) {
    set_ledger_layers(out, ledger, loop.traced_cpu_ms, untraced.per_cpu_s(),
                      traced.per_cpu_s());
  }
  out.varied = varied;
  return out;
}

}  // namespace repobench
