// dm-verity: transparent block-level integrity verification.
//
// The build pipeline computes a SHA-256 Merkle tree over the rootfs data
// device and stores it on a separate hash device; only the root hash
// travels through the measured kernel command line (§5.1.2). At boot the
// VM re-opens the device read-only: every block read is verified against
// the tree, and the tree itself is validated against the root hash — a bit
// flipped anywhere on the data device turns reads of that block into
// errors, and a tampered hash device fails to open at all (§6.1.2/§6.1.3).
//
// Read-path cost model: one leaf hash and one compare per read. `open`
// recomputes every stored level from the leaves up and matches the root
// against the cmdline's, so every node of the tree it hands over is
// already authenticated, and a read only has to check that its block
// hashes to its stored leaf. (Linux dm-verity keeps a bitmap of verified
// hash blocks and climbs toward the root on a cold read, because it reads
// hash blocks lazily; this device holds the whole proven tree from open
// on.) `verify_all` is O(n) leaf hashes compared against that leaf level
// chunk by chunk. It hashes the data device in place: one read-only
// `map_blocks` view, hashed on the calling thread with full-size leaves
// two at a time (Sha256::finish_2x). `format`
// sweeps the same way and `open` parses the tree from a view of the hash
// device, so both devices must be mappable (a MemDisk or a slice of one);
// anything else fails with blockdev.not_mappable.
#pragma once

#include <memory>

#include "crypto/merkle.hpp"
#include "storage/block_device.hpp"

namespace revelio::storage {

struct VerityParams {
  std::size_t data_block_size = 4096;  // paper: 4 kB data and hash blocks
};

/// Output of formatting: what the build pipeline publishes.
struct VerityMetadata {
  crypto::Digest32 root_hash;       // goes on the kernel command line
  std::uint64_t data_block_count = 0;
};

class VerityDevice;

class Verity {
 public:
  /// Computes the Merkle tree over `data` and serializes it onto `hash_dev`.
  /// Runs at image build time, on the service provider's premises.
  static Result<VerityMetadata> format(BlockDevice& data_dev,
                                       BlockDevice& hash_dev,
                                       const VerityParams& params = {});

  /// Opens a verity target: loads the tree from the hash device and checks
  /// its root equals `expected_root` (from the kernel command line). This is
  /// the `veritysetup open` step of the boot sequence.
  static Result<std::shared_ptr<VerityDevice>> open(
      std::shared_ptr<BlockDevice> data_dev,
      std::shared_ptr<BlockDevice> hash_dev,
      const crypto::Digest32& expected_root);
};

/// Read-only, per-read-verified view of the data device. Only
/// `Verity::open` makes one (it alone can mint the OpenKey passkey), so
/// every device's tree was recomputed and its root matched the cmdline's.
class VerityDevice final : public BlockDevice {
 public:
  class OpenKey {
    friend class Verity;
    OpenKey() = default;
  };

  VerityDevice(OpenKey, std::shared_ptr<BlockDevice> data_dev,
               crypto::MerkleTree tree);

  std::size_t block_size() const override { return data_dev_->block_size(); }
  std::uint64_t block_count() const override {
    return data_dev_->block_count();
  }

  /// Reads and verifies one block: one leaf hash of the bytes read,
  /// compared with the leaf `open` authenticated. Fails with
  /// verity.block_mismatch if they differ, on every read, so tampering
  /// after any number of clean reads is still caught.
  Status read_block(std::uint64_t index, std::span<std::uint8_t> out) override;

  /// Always fails: the rootfs is immutable during runtime (requirement F4).
  Status write_block(std::uint64_t index, ByteView data) override;

  /// Verifies every block — the boot-time "dm-verity verify" service whose
  /// latency dominates Table 1. O(n) leaf hashes of the data device's
  /// bytes in place, hashed a fixed-size chunk at a time and
  /// compared against the leaf level `open` authenticated; fails with
  /// verity.block_mismatch naming the lowest mismatching block.
  Status verify_all();

  const crypto::Digest32& root_hash() const { return tree_.root(); }

 private:
  std::shared_ptr<BlockDevice> data_dev_;
  crypto::MerkleTree tree_;
};

}  // namespace revelio::storage
