#include "storage/partition.hpp"

#include <cassert>

namespace revelio::storage {

namespace {
constexpr std::uint32_t kMagic = 0x52505431;  // "RPT1"
}

std::size_t PartitionTable::add(const std::string& label,
                                const FixedBytes<16>& uuid,
                                std::uint64_t block_count) {
  PartitionEntry entry;
  entry.label = label;
  entry.uuid = uuid;
  entry.first_block = next_block_;
  entry.block_count = block_count;
  next_block_ += block_count;
  entries_.push_back(entry);
  return entries_.size() - 1;
}

void PartitionTable::set_uuid(std::size_t index, const FixedBytes<16>& uuid) {
  assert(index < entries_.size());
  entries_[index].uuid = uuid;
}

Result<PartitionEntry> PartitionTable::find(const std::string& label) const {
  for (const auto& e : entries_) {
    if (e.label == label) return e;
  }
  return Error::make("partition.not_found", label);
}

Status PartitionTable::write_to(BlockDevice& device) const {
  Bytes buf;
  append_u32be(buf, kMagic);
  append_u32be(buf, static_cast<std::uint32_t>(entries_.size()));
  append_u64be(buf, next_block_);
  for (const auto& e : entries_) {
    append_u32be(buf, static_cast<std::uint32_t>(e.label.size()));
    append(buf, e.label);
    append(buf, e.uuid.view());
    append_u64be(buf, e.first_block);
    append_u64be(buf, e.block_count);
  }
  if (buf.size() > device.block_size()) {
    return Error::make("partition.table_too_large");
  }
  buf.resize(device.block_size(), 0);
  return device.write_block(0, buf);
}

Result<PartitionTable> PartitionTable::read_from(BlockDevice& device) {
  Bytes buf(device.block_size());
  if (auto st = device.read_block(0, buf); !st.ok()) return st.error();
  if (buf.size() < 16 || read_u32be(buf, 0) != kMagic) {
    return Error::make("partition.bad_magic");
  }
  PartitionTable table;
  const std::uint32_t count = read_u32be(buf, 4);
  table.next_block_ = read_u64be(buf, 8);
  std::size_t off = 16;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (off + 4 > buf.size()) return Error::make("partition.truncated");
    const std::uint32_t label_len = read_u32be(buf, off);
    off += 4;
    if (off + label_len + 16 + 16 > buf.size()) {
      return Error::make("partition.truncated");
    }
    PartitionEntry e;
    e.label.assign(buf.begin() + static_cast<std::ptrdiff_t>(off),
                   buf.begin() + static_cast<std::ptrdiff_t>(off + label_len));
    off += label_len;
    e.uuid = FixedBytes<16>::from(ByteView(buf).subspan(off, 16));
    off += 16;
    e.first_block = read_u64be(buf, off);
    off += 8;
    e.block_count = read_u64be(buf, off);
    off += 8;
    table.entries_.push_back(std::move(e));
  }
  return table;
}

Result<std::shared_ptr<BlockDevice>> PartitionTable::slice(
    std::shared_ptr<BlockDevice> device, const std::string& label) const {
  auto entry = find(label);
  if (!entry.ok()) return entry.error();
  // The entry may come from a host-written table: first_block +
  // block_count must not be allowed to wrap.
  const std::uint64_t blocks = device->block_count();
  if (entry->first_block > blocks ||
      entry->block_count > blocks - entry->first_block) {
    return Error::make("partition.out_of_range", label);
  }
  return std::shared_ptr<BlockDevice>(std::make_shared<SliceDevice>(
      std::move(device), entry->first_block, entry->block_count));
}

Result<std::shared_ptr<BlockDevice>> PartitionTable::open(
    std::shared_ptr<BlockDevice> device, const std::string& label) {
  auto table = read_from(*device);
  if (!table.ok()) return table.error();
  return table->slice(std::move(device), label);
}

}  // namespace revelio::storage
