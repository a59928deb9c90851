// dm-verity: transparent block-level integrity verification.
//
// The build pipeline hashes the rootfs data device into a tree of hash
// blocks on a separate hash device; only the root hash travels through the
// measured kernel command line (§5.1.2), next to the data device's block
// count. At boot the VM re-opens the device read-only: every block read is
// verified against the tree, and the tree itself is validated against the
// root hash — a bit flipped anywhere on the data device turns reads of that
// block into errors, and a tampered hash device fails to open at all
// (§6.1.2/§6.1.3).
//
// On-disk format: Linux dm-verity's, as in the kernel's
// Documentation/admin-guide/device-mapper/verity.rst with an empty salt
// (`veritysetup --salt=- --no-superblock`). Every digest is
// SHA-256(salt ‖ block) of a whole block. Level 0 packs the data blocks'
// digests into hash blocks, hash_block_size / 32 to a block (128 for
// 4 KiB), the last one zero-padded; each level above holds the digests of
// the hash blocks of the level below, up to a level of one block, whose
// digest is the root. A single data block has no hash blocks: its digest is
// the root. The levels sit top-first on the hash device, as
// dm-verity-target lays out `hash_level_block[]`. Leaves and hash blocks
// are hashed alike, so the tree's shape is fixed by the data device's
// block count, which `open` takes from the device and the boot checks
// against the measured cmdline (`verity.data_blocks`, Linux's dm table
// field `num_data_blocks`).
//
// Read-path cost model: one SHA-256 and one compare per read. `open`
// hashes every hash block once, bottom-up, and matches the top against the
// cmdline root, so every digest it copies out of level 0 is already
// authenticated, and a read only has to check that its block hashes to its
// digest. (Linux dm-verity keeps a bitmap of verified hash blocks and
// climbs toward the root on a cold read, because it reads hash blocks
// lazily; this device holds the whole proven level 0 from open on.)
// `verify_all` is O(n) block hashes compared against those digests chunk
// by chunk. Every sweep hashes read-only `map_blocks` views on the calling
// thread, full-size blocks two at a time (Sha256::finish_2x), so both
// devices must be mappable (a MemDisk or a slice of one); anything else
// fails with blockdev.not_mappable.
#pragma once

#include <memory>
#include <vector>

#include "crypto/sha2.hpp"
#include "storage/block_device.hpp"

namespace revelio::storage {

struct VerityParams {
  std::size_t data_block_size = 4096;  // paper: 4 kB data and hash blocks
};

/// Output of formatting: what the build pipeline publishes.
struct VerityMetadata {
  crypto::Digest32 root_hash;       // goes on the kernel command line
  std::uint64_t data_block_count = 0;  // so does this (verity.data_blocks)
};

class VerityDevice;

class Verity {
 public:
  /// Hash blocks of `hash_block_size` bytes that the tree over
  /// `data_blocks` data blocks takes: 0 for one block, 34 for 4,099 blocks
  /// and 4 KiB hash blocks (33 at level 0, one above).
  static std::uint64_t hash_block_count(std::uint64_t data_blocks,
                                        std::size_t hash_block_size = 4096);

  /// Hashes `data_dev` and writes the tree's hash blocks onto `hash_dev`,
  /// top level first from block 0. Runs at image build time, on the service
  /// provider's premises.
  static Result<VerityMetadata> format(BlockDevice& data_dev,
                                       BlockDevice& hash_dev,
                                       const VerityParams& params = {});

  /// Opens a verity target over `data_dev`'s block count: hashes every
  /// hash block on `hash_dev` once, each against its entry in the level
  /// above and the top against `expected_root` (from the kernel command
  /// line). This is the `veritysetup open` step of the boot sequence.
  static Result<std::shared_ptr<VerityDevice>> open(
      std::shared_ptr<BlockDevice> data_dev,
      std::shared_ptr<BlockDevice> hash_dev,
      const crypto::Digest32& expected_root);
};

/// Read-only, per-read-verified view of the data device. Only
/// `Verity::open` makes one (it alone can mint the OpenKey passkey), so
/// every device's digests were proved against the cmdline root.
class VerityDevice final : public BlockDevice {
 public:
  class OpenKey {
    friend class Verity;
    OpenKey() = default;
  };

  VerityDevice(OpenKey, std::shared_ptr<BlockDevice> data_dev,
               std::vector<crypto::Digest32> digests);

  std::size_t block_size() const override { return data_dev_->block_size(); }
  std::uint64_t block_count() const override {
    return data_dev_->block_count();
  }

  /// Reads and verifies one block: one SHA-256 of the bytes read, compared
  /// with the digest `open` authenticated. Fails with
  /// verity.block_mismatch if they differ, on every read, so tampering
  /// after any number of clean reads is still caught.
  Status read_block(std::uint64_t index, std::span<std::uint8_t> out) override;

  /// Always fails: the rootfs is immutable during runtime (requirement F4).
  Status write_block(std::uint64_t index, ByteView data) override;

  /// Verifies every block — the boot-time "dm-verity verify" service whose
  /// latency dominates Table 1. O(n) block hashes of the data device's
  /// bytes in place, hashed a fixed-size chunk at a time and compared
  /// against the digests `open` authenticated; fails with
  /// verity.block_mismatch naming the lowest mismatching block.
  Status verify_all();

 private:
  std::shared_ptr<BlockDevice> data_dev_;
  std::vector<crypto::Digest32> digests_;  // one per data block
};

}  // namespace revelio::storage
