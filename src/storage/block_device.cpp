#include "storage/block_device.hpp"

#include <algorithm>

namespace revelio::storage {

Result<Bytes> BlockDevice::read(std::uint64_t offset, std::size_t length) {
  if (offset + length > size_bytes()) {
    return Error::make("blockdev.out_of_range", "read past device end");
  }
  Bytes out;
  out.reserve(length);
  Bytes block(block_size());
  std::uint64_t index = offset / block_size();
  std::size_t within = offset % block_size();
  while (out.size() < length) {
    if (auto st = read_block(index, block); !st.ok()) return st.error();
    const std::size_t take =
        std::min(block_size() - within, length - out.size());
    out.insert(out.end(), block.begin() + static_cast<std::ptrdiff_t>(within),
               block.begin() + static_cast<std::ptrdiff_t>(within + take));
    within = 0;
    ++index;
  }
  return out;
}

Result<ByteView> BlockDevice::map_blocks(std::uint64_t, std::uint64_t) {
  return Error::make("blockdev.not_mappable",
                     "device contents are not its stored bytes");
}

Status BlockDevice::write(std::uint64_t offset, ByteView data) {
  if (offset + data.size() > size_bytes()) {
    return Error::make("blockdev.out_of_range", "write past device end");
  }
  const std::size_t bs = block_size();
  Bytes block;  // staging for a partial head or tail block only
  for (std::size_t consumed = 0; consumed < data.size();) {
    const std::uint64_t index = (offset + consumed) / bs;
    const std::size_t within = (offset + consumed) % bs;
    const std::size_t take = std::min(bs - within, data.size() - consumed);
    ByteView chunk = data.subspan(consumed, take);
    if (take != bs) {  // partial block: read-modify-write
      block.resize(bs);
      if (auto st = read_block(index, block); !st.ok()) return st;
      std::copy(chunk.begin(), chunk.end(),
                block.begin() + static_cast<std::ptrdiff_t>(within));
      chunk = block;
    }
    if (auto st = write_block(index, chunk); !st.ok()) return st;
    consumed += take;
  }
  return Status::success();
}

SliceDevice::SliceDevice(std::shared_ptr<BlockDevice> parent,
                         std::uint64_t first_block, std::uint64_t block_count)
    : parent_(std::move(parent)),
      first_block_(first_block),
      block_count_(block_count) {}

Status SliceDevice::read_block(std::uint64_t index,
                               std::span<std::uint8_t> out) {
  if (index >= block_count_) {
    return Error::make("blockdev.out_of_range", "slice read past end");
  }
  return parent_->read_block(first_block_ + index, out);
}

Status SliceDevice::write_block(std::uint64_t index, ByteView data) {
  if (index >= block_count_) {
    return Error::make("blockdev.out_of_range", "slice write past end");
  }
  return parent_->write_block(first_block_ + index, data);
}

Result<ByteView> SliceDevice::map_blocks(std::uint64_t first,
                                         std::uint64_t count) {
  if (first > block_count_ || count > block_count_ - first) {
    return Error::make("blockdev.out_of_range", "slice map past end");
  }
  return parent_->map_blocks(first_block_ + first, count);
}

}  // namespace revelio::storage
