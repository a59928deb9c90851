// Large allocations on a first boot's dm-verity path and in one image
// build, counted exactly.
//
// This binary replaces the global operator new with one that counts every
// allocation of 128 KiB or more while a window is open. That size is
// glibc's default mmap threshold: while the threshold sits there, each
// such allocation is a fresh mapping whose pages fault in on first touch
// and are unmapped again on free, so a transient one costs page faults,
// not just a copy. The rest of
// the suite keeps the default allocator; only this binary swaps it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "boot_workloads.hpp"
#include "storage/dm_verity.hpp"
#include "storage/mem_disk.hpp"

namespace {

constexpr std::size_t kLarge = 128 * 1024;
std::atomic<bool> counting{false};
std::atomic<std::size_t> large_allocations{0};

}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  if (size >= kLarge && counting.load(std::memory_order_relaxed)) {
    large_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// The array forms of new and delete forward to these. None is inlined:
// GCC would otherwise see free() on a pointer from a new-expression, or
// delete on a pointer from malloc(), in this file and warn about a
// mismatch that the replacement makes intended.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace revelio::storage {
namespace {

// The CryptPad image's rootfs: a 16 MiB service payload plus the base
// files, 4099 blocks, whose serialized tree (about 260 KiB) fits a
// 67-block hash partition, as the image builder lays them out.
constexpr std::uint64_t kRootfsBlocks = 4099;
constexpr std::uint64_t kHashBlocks = 67;

TEST(BootAllocations, VerityOpenAndVerifyAllOfACryptPadRootfs) {
  Bytes contents(kRootfsBlocks * 4096);
  for (std::size_t i = 0; i < contents.size(); ++i) {
    contents[i] = static_cast<std::uint8_t>(i * 131 + i / 4096);
  }
  auto data = std::make_shared<MemDisk>(4096, std::move(contents));
  auto hash = std::make_shared<MemDisk>(4096, kHashBlocks);
  auto meta = Verity::format(*data, *hash);
  ASSERT_TRUE(meta.ok());

  large_allocations = 0;
  counting = true;
  auto device = Verity::open(data, hash, meta->root_hash);
  const bool verified = device.ok() && (*device)->verify_all().ok();
  counting = false;
  ASSERT_TRUE(verified);
  // Exact: MerkleTree::deserialize's leaf level (4099 x 32 bytes). Open
  // parses the tree from a view of the hash device, and verify_all hashes
  // the rootfs in place into a 16 KiB stack chunk of digests; staging
  // either device through a buffer (the tree is about 260 KiB) or
  // collecting every leaf digest at once adds one here.
  EXPECT_EQ(large_allocations.load(), 1u);
}

TEST(BuildAllocations, OneCryptPadImageBuild) {
  const bench::WorkloadBuild cp(bench::cryptpad_workload());
  imagebuild::ImageBuilder builder(cp.registry);

  large_allocations = 0;
  counting = true;
  auto image = builder.build(cp.inputs);
  counting = false;
  ASSERT_TRUE(image.ok());
  // Exact: the rootfs's copy of the 16 MiB payload, the one disk buffer
  // the rootfs is serialized into, and dm-verity format's tree: its leaf
  // level (4099 x 32 bytes) and MerkleTree::serialize's output, which
  // grows through three capacities (128, 256 and 512 KiB) on its way to
  // about 260 KiB. A separate rootfs buffer, and the copies it makes while
  // it grows, would add two here.
  EXPECT_EQ(large_allocations.load(), 6u);
}

}  // namespace
}  // namespace revelio::storage
