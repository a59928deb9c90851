// GPT-style partition table.
//
// The Revelio image builder lays out the disk as labelled partitions
// (rootfs, verity hash device, encrypted data volume). Partition UUIDs are
// fixed at build time — one of the paper's reproducibility measures
// ("specifying a uuid for each partition we create", §5.1.1).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "storage/block_device.hpp"

namespace revelio::storage {

struct PartitionEntry {
  std::string label;
  FixedBytes<16> uuid;
  std::uint64_t first_block = 0;
  std::uint64_t block_count = 0;
};

class PartitionTable {
 public:
  /// Appends a partition after the last one; returns its index.
  /// Block 0 is reserved for the table itself.
  std::size_t add(const std::string& label, const FixedBytes<16>& uuid,
                  std::uint64_t block_count);

  const std::vector<PartitionEntry>& entries() const { return entries_; }

  /// Replaces the UUID of partition `index` (as returned by `add`).
  void set_uuid(std::size_t index, const FixedBytes<16>& uuid);

  /// Finds a partition by label.
  Result<PartitionEntry> find(const std::string& label) const;

  /// The partition `label` of `device` as a block device slice. Fails with
  /// partition.out_of_range if the entry reaches past the device end.
  Result<std::shared_ptr<BlockDevice>> slice(
      std::shared_ptr<BlockDevice> device, const std::string& label) const;

  /// Serializes into block 0 of `device`.
  Status write_to(BlockDevice& device) const;

  /// Parses the table from block 0 of `device`.
  static Result<PartitionTable> read_from(BlockDevice& device);

  /// Opens a partition as a block device slice: `read_from`, then `slice`.
  static Result<std::shared_ptr<BlockDevice>> open(
      std::shared_ptr<BlockDevice> device, const std::string& label);

  /// Total blocks used, including the table block.
  std::uint64_t blocks_used() const { return next_block_; }

 private:
  std::vector<PartitionEntry> entries_;
  std::uint64_t next_block_ = 1;  // block 0 holds the table
};

}  // namespace revelio::storage
