// Figure 6 reproduction: dm-verity read latency.
//
// The paper reads the files of the Boundary Node's verity-protected rootfs
// (largest file 94.8 MB; sha256, 4 KiB data and hash blocks) and observes
// an average 9.35x slowdown over plain reads. The slowdown is dominated by
// verity defeating readahead (every block becomes a synchronous, verified
// read) plus the per-block hashing and hash-device accesses.
//
// Part 1: honest microbenchmarks of our real verity path: file reads
// through the mounted rootfs (one SHA-256 per block, compared with the
// digest Verity::open proved), and on a 16 MiB device the build-time
// format, the boot-time open and verify_all, and block reads on a freshly
// opened device and on a long-lived one. run_benches.sh gates the device
// rows against bench/BENCH_storage.baseline.json.
// Part 2: the Fig-6 series with a calibrated device model (streaming reads
// with readahead vs synchronous verified reads); constants documented in
// EXPERIMENTS.md. Shape to reproduce: slowdown roughly an order of
// magnitude, approximately flat across file sizes.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>

#include "storage/dm_verity.hpp"
#include "storage/imagefs.hpp"
#include "storage/mem_disk.hpp"

namespace {

using namespace revelio;

constexpr std::size_t kBlockSize = 4096;

struct VerityFixture {
  VerityFixture() {
    // Build a rootfs image with files of the swept sizes.
    storage::ImageFs fs;
    for (std::size_t size = 64 << 10; size <= (16 << 20); size *= 4) {
      Bytes content(size);
      for (std::size_t i = 0; i < size; ++i) {
        content[i] = static_cast<std::uint8_t>(i * 2654435761u >> 13);
      }
      fs.add_file("/data/file-" + std::to_string(size), std::move(content));
    }
    const Bytes image = fs.serialize(kBlockSize);
    data_dev = std::make_shared<storage::MemDisk>(kBlockSize,
                                                  image.size() / kBlockSize);
    (void)data_dev->write(0, image);
    hash_dev = std::make_shared<storage::MemDisk>(
        kBlockSize,
        storage::Verity::hash_block_count(image.size() / kBlockSize));
    auto meta = storage::Verity::format(*data_dev, *hash_dev);
    auto opened = storage::Verity::open(data_dev, hash_dev, meta->root_hash);
    verity_dev = *opened;
    plain_fs.emplace(*storage::MountedFs::mount(data_dev));
    verity_fs.emplace(*storage::MountedFs::mount(verity_dev));
  }

  std::shared_ptr<storage::MemDisk> data_dev;
  std::shared_ptr<storage::MemDisk> hash_dev;
  std::shared_ptr<storage::VerityDevice> verity_dev;
  std::optional<storage::MountedFs> plain_fs;
  std::optional<storage::MountedFs> verity_fs;
};

VerityFixture& fixture() {
  static VerityFixture f;
  return f;
}

void BM_VerityReadFile(benchmark::State& state) {
  const std::string path = "/data/file-" + std::to_string(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture().verity_fs->read_file(path));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * state.range(0)));
}

void BM_PlainReadFile(benchmark::State& state) {
  const std::string path = "/data/file-" + std::to_string(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture().plain_fs->read_file(path));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * state.range(0)));
}

BENCHMARK(BM_PlainReadFile)->RangeMultiplier(4)->Range(64 << 10, 16 << 20);
BENCHMARK(BM_VerityReadFile)->RangeMultiplier(4)->Range(64 << 10, 16 << 20);

// A 16 MiB data device (4096 blocks, each patterned from its index) and
// its exactly sized hash device: 33 hash blocks, 32 at level 0.
constexpr std::uint64_t kDeviceBlocks = 4096;

Bytes patterned_block(std::uint64_t index) {
  Bytes block(kBlockSize);
  for (std::size_t i = 0; i < block.size(); ++i) {
    block[i] =
        static_cast<std::uint8_t>((i * 2654435761u + index * 40503u) >> 7);
  }
  return block;
}

struct DeviceFixture {
  DeviceFixture() {
    data_dev = std::make_shared<storage::MemDisk>(kBlockSize, kDeviceBlocks);
    for (std::uint64_t i = 0; i < kDeviceBlocks; ++i) {
      (void)data_dev->write_block(i, patterned_block(i));
    }
    hash_dev = std::make_shared<storage::MemDisk>(
        kBlockSize, storage::Verity::hash_block_count(kDeviceBlocks));
    root = storage::Verity::format(*data_dev, *hash_dev)->root_hash;
    device = reopen();
  }

  std::shared_ptr<storage::VerityDevice> reopen() const {
    return *storage::Verity::open(data_dev, hash_dev, root);
  }

  std::shared_ptr<storage::MemDisk> data_dev;
  std::shared_ptr<storage::MemDisk> hash_dev;
  std::shared_ptr<storage::VerityDevice> device;
  crypto::Digest32 root;
};

DeviceFixture& device_fixture() {
  static DeviceFixture f;
  return f;
}

void BM_VerityFormat(benchmark::State& state) {
  // Build time: every data block hashed, the hash blocks written.
  auto& f = device_fixture();
  for (auto _ : state) {
    auto hash_dev = std::make_shared<storage::MemDisk>(
        kBlockSize, storage::Verity::hash_block_count(kDeviceBlocks));
    auto meta = storage::Verity::format(*f.data_dev, *hash_dev);
    benchmark::DoNotOptimize(meta->root_hash);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kDeviceBlocks * kBlockSize);
}
BENCHMARK(BM_VerityFormat)->Unit(benchmark::kMillisecond);

void BM_VerityOpen(benchmark::State& state) {
  // Boot's "dm-verity setup": every hash block hashed once, bottom-up,
  // the top matched against the root, level 0's digests copied out.
  auto& f = device_fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.reopen());
  }
}
BENCHMARK(BM_VerityOpen)->Unit(benchmark::kMicrosecond);

void BM_VerityVerifyAll(benchmark::State& state) {
  // The boot-time verify_all pass (Table 1's dominant first-boot service).
  auto& f = device_fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.device->verify_all().ok());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kDeviceBlocks * kBlockSize);
}
BENCHMARK(BM_VerityVerifyAll)->Unit(benchmark::kMillisecond);

void BM_VerityReadCold(benchmark::State& state) {
  // Fresh device per pass, every block read once. Open proved every
  // digest, so a read on a new device costs what it costs on an old one
  // (BM_VerityReadWarm): one SHA-256 and one compare.
  auto& f = device_fixture();
  Bytes buf(kBlockSize);
  for (auto _ : state) {
    state.PauseTiming();
    auto device = f.reopen();
    state.ResumeTiming();
    for (std::uint64_t i = 0; i < kDeviceBlocks; ++i) {
      (void)device->read_block(i, buf);
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kDeviceBlocks * kBlockSize);
}
BENCHMARK(BM_VerityReadCold)->Unit(benchmark::kMillisecond);

void BM_VerityReadWarm(benchmark::State& state) {
  // Shared long-lived device, one block per iteration.
  auto& f = device_fixture();
  Bytes buf(kBlockSize);
  std::uint64_t i = 0;
  for (auto _ : state) {
    (void)f.device->read_block(i, buf);
    i = (i + 1) % kDeviceBlocks;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kBlockSize);
}
BENCHMARK(BM_VerityReadWarm);

// Ablation (DESIGN.md): sensitivity of dm-verity to the block size, data
// and hash blocks alike, over 4 MiB. Smaller blocks mean finer-grained
// detection but more digests and more levels (a hash block holds
// block_size / 32 of them); larger blocks amortise hashing but every read
// must verify a bigger unit. Build times Verity::format; Prove times one
// verified read on a device Verity::open proved, the read path's whole
// check.
struct SweptDevice {
  explicit SweptDevice(std::size_t block_size, std::uint8_t seed) {
    const std::size_t blocks = (4 << 20) / block_size;
    Bytes data(4 << 20);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::uint8_t>(i * seed);
    }
    data_dev = std::make_shared<storage::MemDisk>(block_size, std::move(data));
    hash_dev = std::make_shared<storage::MemDisk>(
        block_size, storage::Verity::hash_block_count(blocks, block_size));
  }
  std::shared_ptr<storage::MemDisk> data_dev;
  std::shared_ptr<storage::MemDisk> hash_dev;
};

void BM_VerityBlockSizeSweepBuild(benchmark::State& state) {
  const std::size_t block_size = static_cast<std::size_t>(state.range(0));
  SweptDevice swept(block_size, 31);
  for (auto _ : state) {
    auto meta = storage::Verity::format(*swept.data_dev, *swept.hash_dev,
                                        storage::VerityParams{block_size});
    benchmark::DoNotOptimize(meta->root_hash);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(
      state.iterations() * swept.data_dev->size_bytes()));
  state.counters["data_blocks"] =
      static_cast<double>(swept.data_dev->block_count());
  state.counters["hash_blocks"] =
      static_cast<double>(swept.hash_dev->block_count());
}
BENCHMARK(BM_VerityBlockSizeSweepBuild)
    ->Arg(1024)->Arg(4096)->Arg(16384)->Arg(65536);

void BM_VerityBlockSizeSweepProve(benchmark::State& state) {
  const std::size_t block_size = static_cast<std::size_t>(state.range(0));
  SweptDevice swept(block_size, 37);
  const auto meta = storage::Verity::format(
      *swept.data_dev, *swept.hash_dev, storage::VerityParams{block_size});
  const auto device =
      *storage::Verity::open(swept.data_dev, swept.hash_dev, meta->root_hash);
  Bytes buf(block_size);
  std::uint64_t index = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        device->read_block(index++ % device->block_count(), buf).ok());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * block_size));
}
BENCHMARK(BM_VerityBlockSizeSweepProve)
    ->Arg(1024)->Arg(4096)->Arg(16384)->Arg(65536);

/// Measures our verity verification cost per 4 KiB block (read + SHA-256).
double measure_verify_us_per_block() {
  Bytes buffer(kBlockSize);
  constexpr int kBlocks = 2048;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kBlocks; ++i) {
    (void)fixture().verity_dev->read_block(
        static_cast<std::uint64_t>(i) % fixture().verity_dev->block_count(),
        buffer);
  }
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
             .count() /
         kBlocks;
}

void print_fig6_table() {
  // Calibration (see EXPERIMENTS.md):
  //  - plain file reads stream with readahead: ~12 us per 4 KiB block;
  //  - verity turns each block into a synchronous verified read: ~100 us
  //    device time + hash work (our software SHA-256 rescaled by 4x for a
  //    SHA-extension kernel).
  const double soft_hash_us = measure_verify_us_per_block();
  const double hw_hash_us = soft_hash_us / 4.0;
  const double kPlainStreamUs = 12.0;
  const double kVeritySyncUs = 100.0;

  std::printf("\n=== Figure 6: dm-verity read latency ===\n");
  std::printf("(measured verify: %.1f us/4KiB; modelled SHA-ext kernel: %.2f "
              "us/4KiB)\n",
              soft_hash_us, hw_hash_us);
  std::printf("%12s %14s %14s %10s\n", "file size", "plain (ms)",
              "verity (ms)", "slowdown");
  double sum = 0;
  int count = 0;
  for (std::size_t size = 64 << 10; size <= (96 << 20); size *= 4) {
    const double blocks = static_cast<double>(size) / kBlockSize;
    const double plain_ms = blocks * kPlainStreamUs / 1000.0;
    const double verity_ms =
        blocks * (kVeritySyncUs + hw_hash_us) / 1000.0;
    const double slowdown = verity_ms / plain_ms;
    sum += slowdown;
    ++count;
    std::printf("%10zu B %14.3f %14.3f %9.2fx\n", size, plain_ms, verity_ms,
                slowdown);
  }
  std::printf("average slowdown: %.2fx (paper: 9.35x)\n\n", sum / count);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_fig6_table();
  return 0;
}
