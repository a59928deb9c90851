// Bulk-data fast path benchmarks (DESIGN.md "Storage fast path").
//
// Measures the storage-layer paths the fast-path PR optimised:
//
//  - Verity::format          — build-time Merkle construction (leaf
//                              hashing on the calling thread, two leaves
//                              per SHA-NI pass)
//  - VerityDevice::verify_all — boot-time bulk verify, O(n) leaf hashes
//                              against the leaf level open proved
//  - VerityDevice::read_block — one leaf hash + one compare per read, on
//                              a freshly opened device (cold) and on a
//                              long-lived one (warm)
//  - DmCryptDevice read/write — AES-XTS sector path with cached key
//                              schedules and word-wise tweak update
//
// run_benches.sh runs this binary, writes BENCH_storage.json at the repo
// root and gates ns_per_op against bench/BENCH_storage.baseline.json
// (fails the run on a >25% regression).
#include <benchmark/benchmark.h>

#include <memory>

#include "crypto/drbg.hpp"
#include "storage/dm_crypt.hpp"
#include "storage/dm_verity.hpp"
#include "storage/mem_disk.hpp"

namespace {

using namespace revelio;

constexpr std::size_t kBlockSize = 4096;
constexpr std::uint64_t kDataBlocks = 4096;  // 16 MiB data device

Bytes patterned_block(std::uint64_t index) {
  Bytes block(kBlockSize);
  for (std::size_t i = 0; i < block.size(); ++i) {
    block[i] = static_cast<std::uint8_t>((i * 2654435761u + index * 40503u) >> 7);
  }
  return block;
}

struct VerityFixture {
  VerityFixture() {
    data_dev = std::make_shared<storage::MemDisk>(kBlockSize, kDataBlocks);
    for (std::uint64_t i = 0; i < kDataBlocks; ++i) {
      (void)data_dev->write_block(i, patterned_block(i));
    }
    hash_dev = std::make_shared<storage::MemDisk>(kBlockSize, kDataBlocks + 64);
    auto meta = storage::Verity::format(*data_dev, *hash_dev);
    root = meta->root_hash;
    device = *storage::Verity::open(data_dev, hash_dev, root);
  }

  std::shared_ptr<storage::VerityDevice> reopen() const {
    return *storage::Verity::open(data_dev, hash_dev, root);
  }

  std::shared_ptr<storage::MemDisk> data_dev;
  std::shared_ptr<storage::MemDisk> hash_dev;
  std::shared_ptr<storage::VerityDevice> device;
  crypto::Digest32 root;
};

VerityFixture& verity_fixture() {
  static VerityFixture f;
  return f;
}

void BM_VerityFormat(benchmark::State& state) {
  auto& f = verity_fixture();
  for (auto _ : state) {
    auto hash_dev =
        std::make_shared<storage::MemDisk>(kBlockSize, kDataBlocks + 64);
    auto meta = storage::Verity::format(*f.data_dev, *hash_dev);
    benchmark::DoNotOptimize(meta->root_hash);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kDataBlocks * kBlockSize);
}
BENCHMARK(BM_VerityFormat)->Unit(benchmark::kMillisecond);

void BM_VerityVerifyAll(benchmark::State& state) {
  auto& f = verity_fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.device->verify_all().ok());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kDataBlocks * kBlockSize);
}
BENCHMARK(BM_VerityVerifyAll)->Unit(benchmark::kMillisecond);

void BM_VerityReadCold(benchmark::State& state) {
  // Fresh device per pass, every block read once. Open proved the whole
  // tree, so a read on a new device costs what it costs on an old one
  // (BM_VerityReadWarm): one leaf hash and one compare.
  auto& f = verity_fixture();
  Bytes buf(kBlockSize);
  for (auto _ : state) {
    state.PauseTiming();
    auto device = f.reopen();
    state.ResumeTiming();
    for (std::uint64_t i = 0; i < kDataBlocks; ++i) {
      (void)device->read_block(i, buf);
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kDataBlocks * kBlockSize);
}
BENCHMARK(BM_VerityReadCold)->Unit(benchmark::kMillisecond);

void BM_VerityReadWarm(benchmark::State& state) {
  // Shared long-lived device, one block per iteration: one leaf hash and
  // one compare against level 0, as on a fresh device.
  auto& f = verity_fixture();
  Bytes buf(kBlockSize);
  std::uint64_t i = 0;
  for (auto _ : state) {
    (void)f.device->read_block(i, buf);
    i = (i + 1) % kDataBlocks;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kBlockSize);
}
BENCHMARK(BM_VerityReadWarm);

struct CryptFixture {
  CryptFixture() {
    auto disk = std::make_shared<storage::MemDisk>(kBlockSize, 4096);
    crypto::HmacDrbg drbg(to_bytes(std::string_view("bench-storage-crypt")));
    device = *storage::CryptVolume::format(disk, drbg.generate(32),
                                           drbg.generate(32));
    const Bytes block(kBlockSize, 0x5c);
    for (std::uint64_t i = 0; i < device->block_count(); ++i) {
      (void)device->write_block(i, block);
    }
  }
  std::shared_ptr<storage::DmCryptDevice> device;
};

CryptFixture& crypt_fixture() {
  static CryptFixture f;
  return f;
}

void BM_DmCryptReadBlock(benchmark::State& state) {
  auto& f = crypt_fixture();
  Bytes buf(kBlockSize);
  std::uint64_t i = 0;
  for (auto _ : state) {
    (void)f.device->read_block(i, buf);
    i = (i + 1) % f.device->block_count();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kBlockSize);
}
BENCHMARK(BM_DmCryptReadBlock);

void BM_DmCryptWriteBlock(benchmark::State& state) {
  auto& f = crypt_fixture();
  const Bytes block(kBlockSize, 0xd6);
  std::uint64_t i = 0;
  for (auto _ : state) {
    (void)f.device->write_block(i, block);
    i = (i + 1) % f.device->block_count();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kBlockSize);
}
BENCHMARK(BM_DmCryptWriteBlock);

}  // namespace

BENCHMARK_MAIN();
