// In-memory disk — the simulation's physical storage medium.
//
// The disk lives on the (untrusted) host side of the trust boundary: the
// cloud provider can read and scribble over it at will, which the attack
// tests exercise through `raw_tamper`. I/O counters feed the Fig 5/6
// benchmarks.
#pragma once

#include <cstdint>
#include <vector>

#include "storage/block_device.hpp"

namespace revelio::storage {

struct IoStats {
  std::uint64_t blocks_read = 0;
  std::uint64_t blocks_written = 0;
};

class MemDisk final : public BlockDevice {
 public:
  /// A zero-filled disk of `block_count` blocks.
  MemDisk(std::size_t block_size, std::uint64_t block_count);
  /// A disk whose bytes are `contents` (a whole number of blocks), taken
  /// over without a copy.
  MemDisk(std::size_t block_size, Bytes contents);

  std::size_t block_size() const override { return block_size_; }
  std::uint64_t block_count() const override { return block_count_; }
  Status read_block(std::uint64_t index, std::span<std::uint8_t> out) override;
  Status write_block(std::uint64_t index, ByteView data) override;
  /// The disk's own bytes; counts `count` blocks in `IoStats::blocks_read`.
  Result<ByteView> map_blocks(std::uint64_t first,
                              std::uint64_t count) override;

  const IoStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  /// Host-side tampering: flips bits without going through the device-mapper
  /// stack, the way a malicious cloud provider would edit the backing file.
  void raw_tamper(std::uint64_t byte_offset, std::uint8_t xor_mask);

  /// Host-side raw inspection (offline attack on data at rest).
  Bytes raw_dump(std::uint64_t byte_offset, std::size_t length) const;

  /// Hands the disk's bytes over without a copy; the disk is left with no
  /// blocks.
  Bytes take_contents() &&;

 private:
  std::size_t block_size_;
  std::uint64_t block_count_;
  std::vector<std::uint8_t> data_;
  IoStats stats_;
};

}  // namespace revelio::storage
