// Block-device abstraction.
//
// Everything the confidential VM persists flows through this interface:
// the raw memory disk the (untrusted) hypervisor provides, partition
// slices of it, and the dm-crypt / dm-verity targets stacked on top —
// mirroring the Linux device-mapper architecture the paper builds on.
//
// Reads copy: `read_block` hands the caller its own copy of a block, which
// is what every verified read checks. Bulk hashing (dm-verity's format and
// boot sweep, the hash-device load at open) instead takes one read-only
// `map_blocks` view of a range and hashes the bytes where they lie. Only
// devices whose stored bytes are their contents can give one: a memory
// disk and slices of it. Targets that transform or verify on the way out
// (dm-crypt, dm-verity) refuse with `blockdev.not_mappable`.
#pragma once

#include <cstdint>
#include <memory>

#include "common/bytes.hpp"
#include "common/result.hpp"

namespace revelio::storage {

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  virtual std::size_t block_size() const = 0;
  virtual std::uint64_t block_count() const = 0;

  /// Reads one whole block into `out` (out.size() == block_size()).
  virtual Status read_block(std::uint64_t index,
                            std::span<std::uint8_t> out) = 0;

  /// Writes one whole block.
  virtual Status write_block(std::uint64_t index, ByteView data) = 0;

  /// A read-only view of blocks [first, first + count) in the device's own
  /// memory, without a copy; it counts as reading those blocks. Valid until
  /// the next write to the device. Fails with `blockdev.out_of_range` for a
  /// range past the device end, and with `blockdev.not_mappable` (the
  /// default) on devices whose contents are not their stored bytes.
  virtual Result<ByteView> map_blocks(std::uint64_t first,
                                      std::uint64_t count);

  std::uint64_t size_bytes() const {
    return static_cast<std::uint64_t>(block_size()) * block_count();
  }

  /// Byte-granular read spanning blocks (read-modify on top of blocks).
  Result<Bytes> read(std::uint64_t offset, std::size_t length);

  /// Byte-granular write spanning blocks. Whole blocks go straight to
  /// write_block; only a partial head or tail block is read-modify-written.
  Status write(std::uint64_t offset, ByteView data);
};

/// Exposes a contiguous block range of a parent device as its own device.
/// This is how partitions are realised.
class SliceDevice final : public BlockDevice {
 public:
  SliceDevice(std::shared_ptr<BlockDevice> parent, std::uint64_t first_block,
              std::uint64_t block_count);

  std::size_t block_size() const override { return parent_->block_size(); }
  std::uint64_t block_count() const override { return block_count_; }
  Status read_block(std::uint64_t index, std::span<std::uint8_t> out) override;
  Status write_block(std::uint64_t index, ByteView data) override;
  Result<ByteView> map_blocks(std::uint64_t first,
                              std::uint64_t count) override;

 private:
  std::shared_ptr<BlockDevice> parent_;
  std::uint64_t first_block_;
  std::uint64_t block_count_;
};

}  // namespace revelio::storage
