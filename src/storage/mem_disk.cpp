#include "storage/mem_disk.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace revelio::storage {

MemDisk::MemDisk(std::size_t block_size, std::uint64_t block_count)
    : MemDisk(block_size, Bytes(block_size * block_count, 0)) {}

MemDisk::MemDisk(std::size_t block_size, Bytes contents)
    : block_size_(block_size),
      block_count_(contents.size() / block_size),
      data_(std::move(contents)) {
  assert(block_size > 0 && data_.size() % block_size == 0);
}

Status MemDisk::read_block(std::uint64_t index, std::span<std::uint8_t> out) {
  if (index >= block_count_) {
    return Error::make("blockdev.out_of_range", "read past disk end");
  }
  if (out.size() != block_size_) {
    return Error::make("blockdev.bad_buffer", "block buffer size mismatch");
  }
  std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(index * block_size_),
              block_size_, out.begin());
  ++stats_.blocks_read;
  return Status::success();
}

Result<ByteView> MemDisk::map_blocks(std::uint64_t first,
                                     std::uint64_t count) {
  if (first > block_count_ || count > block_count_ - first) {
    return Error::make("blockdev.out_of_range", "map past disk end");
  }
  stats_.blocks_read += count;
  return ByteView(data_).subspan(static_cast<std::size_t>(first * block_size_),
                                 static_cast<std::size_t>(count * block_size_));
}

Status MemDisk::write_block(std::uint64_t index, ByteView data) {
  if (index >= block_count_) {
    return Error::make("blockdev.out_of_range", "write past disk end");
  }
  if (data.size() != block_size_) {
    return Error::make("blockdev.bad_buffer", "block buffer size mismatch");
  }
  std::copy_n(data.begin(), block_size_,
              data_.begin() + static_cast<std::ptrdiff_t>(index * block_size_));
  ++stats_.blocks_written;
  return Status::success();
}

void MemDisk::raw_tamper(std::uint64_t byte_offset, std::uint8_t xor_mask) {
  if (byte_offset < data_.size()) data_[byte_offset] ^= xor_mask;
}

Bytes MemDisk::raw_dump(std::uint64_t byte_offset, std::size_t length) const {
  const std::uint64_t end = std::min<std::uint64_t>(
      byte_offset + length, static_cast<std::uint64_t>(data_.size()));
  if (byte_offset >= end) return {};
  return Bytes(data_.begin() + static_cast<std::ptrdiff_t>(byte_offset),
               data_.begin() + static_cast<std::ptrdiff_t>(end));
}

Bytes MemDisk::take_contents() && {
  block_count_ = 0;
  return std::exchange(data_, {});
}

}  // namespace revelio::storage
