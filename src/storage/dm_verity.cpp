#include "storage/dm_verity.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <optional>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace revelio::storage {

namespace {

using crypto::Digest32;

// Hash blocks are written straight from an array of digests, and level 0 is
// copied straight out of one.
static_assert(sizeof(Digest32) == 32);

// The compare sweeps' digest chunk: 512 x 32 B = 16 KiB on the stack, and
// 2 MiB of 4 KiB blocks per compare pass.
constexpr std::size_t kChunkBlocks = 512;

Error block_mismatch(std::uint64_t index) {
  return Error::make("verity.block_mismatch",
                     "block " + std::to_string(index) +
                         " failed integrity verification");
}

// out[i] = SHA-256(salt ‖ block i of `blocks`) for whole `bs`-byte blocks,
// with the empty salt, on the calling thread. Blocks go two at a time
// through Sha256::finish_2x, bit-identical to sha256(); an odd last one
// goes alone.
void hash_blocks(ByteView blocks, std::size_t bs, std::span<Digest32> out) {
  const crypto::Sha256 salt;
  std::size_t i = 0;
  for (; i + 1 < out.size(); i += 2) {
    crypto::Sha256::finish_2x(salt, blocks.subspan(i * bs, bs),
                              blocks.subspan((i + 1) * bs, bs), out[i],
                              out[i + 1]);
  }
  if (i < out.size()) out[i] = crypto::sha256(blocks.subspan(i * bs, bs));
}

// Hashes the `bs`-byte blocks of `blocks` a chunk at a time and compares
// block i's digest with bytes [32 i, 32 i + 32) of `expected`; the index of
// the first block that differs, if any.
std::optional<std::uint64_t> first_mismatch(ByteView blocks, std::size_t bs,
                                            ByteView expected) {
  std::array<Digest32, kChunkBlocks> chunk;
  const std::size_t n = blocks.size() / bs;
  for (std::size_t first = 0; first < n; first += kChunkBlocks) {
    const std::size_t count = std::min(kChunkBlocks, n - first);
    const std::span<Digest32> digests(chunk.data(), count);
    hash_blocks(blocks.subspan(first * bs, count * bs), bs, digests);
    for (std::size_t i = 0; i < count; ++i) {
      if (!ct_equal(digests[i].view(),
                    expected.subspan((first + i) * 32, 32))) {
        return first + i;
      }
    }
  }
  return std::nullopt;
}

// Digests per hash block. The kernel spaces digests at a power of two, so
// the hash block size must be one, with room for two digests.
Result<std::uint64_t> fanout_of(std::size_t hash_block_size) {
  if (!std::has_single_bit(hash_block_size) || hash_block_size < 64) {
    return Error::make("verity.bad_hash_block_size",
                       std::to_string(hash_block_size));
  }
  return hash_block_size / 32;
}

// One level of the tree: its hash blocks' place on the hash device.
struct Level {
  std::uint64_t first = 0;
  std::uint64_t blocks = 0;
};

// The tree over `data_blocks` blocks, level 0 first: level i holds
// ceil(data_blocks / fanout^(i+1)) hash blocks, up to the first level of
// one block. The levels sit top-first on the hash device.
std::vector<Level> tree_shape(std::uint64_t data_blocks, std::uint64_t fanout) {
  std::vector<Level> levels;
  for (std::uint64_t below = data_blocks; below > 1;) {
    below = (below + fanout - 1) / fanout;
    levels.push_back({0, below});
  }
  std::uint64_t next = 0;
  for (auto level = levels.rbegin(); level != levels.rend(); ++level) {
    level->first = next;
    next += level->blocks;
  }
  return levels;
}

std::uint64_t total_blocks(const std::vector<Level>& levels) {
  return levels.empty() ? 0 : levels.front().first + levels.front().blocks;
}

}  // namespace

std::uint64_t Verity::hash_block_count(std::uint64_t data_blocks,
                                       std::size_t hash_block_size) {
  const auto fanout = fanout_of(hash_block_size);
  return fanout.ok() ? total_blocks(tree_shape(data_blocks, *fanout)) : 0;
}

Result<VerityMetadata> Verity::format(BlockDevice& data_dev,
                                      BlockDevice& hash_dev,
                                      const VerityParams& params) {
  if (data_dev.block_size() != params.data_block_size) {
    return Error::make("verity.block_size_mismatch",
                       "data device block size differs from verity config");
  }
  const auto fanout = fanout_of(hash_dev.block_size());
  if (!fanout.ok()) return fanout.error();
  const std::uint64_t n = data_dev.block_count();
  if (n == 0) return Error::make("verity.empty_data_device");
  const auto levels = tree_shape(n, *fanout);
  if (total_blocks(levels) > hash_dev.block_count()) {
    return Error::make("verity.hash_device_too_small");
  }

  // Level by level from the bottom: each hash block takes the digests of
  // up to `fanout` blocks below it (the data device's, for level 0), its
  // tail zero. Each run is mapped just before it is hashed, because a
  // write to the hash device ends any view of it, and the two devices may
  // be slices of one disk.
  BlockDevice* below = &data_dev;
  std::uint64_t below_first = 0;
  std::uint64_t below_blocks = n;
  std::vector<Digest32> digests(static_cast<std::size_t>(*fanout));
  const ByteView hash_block(digests.front().begin(), hash_dev.block_size());
  for (const Level& level : levels) {
    for (std::uint64_t k = 0; k < level.blocks; ++k) {
      const std::uint64_t count =
          std::min(*fanout, below_blocks - k * *fanout);
      auto run = below->map_blocks(below_first + k * *fanout, count);
      if (!run.ok()) return run.error();
      hash_blocks(*run, below->block_size(),
                  std::span(digests).first(static_cast<std::size_t>(count)));
      std::fill(digests.begin() + static_cast<std::ptrdiff_t>(count),
                digests.end(), Digest32{});
      if (auto st = hash_dev.write_block(level.first + k, hash_block);
          !st.ok()) {
        return st.error();
      }
    }
    below = &hash_dev;
    below_first = level.first;
    below_blocks = level.blocks;
  }
  auto top = below->map_blocks(below_first, 1);
  if (!top.ok()) return top.error();

  VerityMetadata meta;
  meta.root_hash = crypto::sha256(*top);
  meta.data_block_count = n;
  return meta;
}

namespace {

Result<std::shared_ptr<VerityDevice>> open_impl(
    VerityDevice::OpenKey key, std::shared_ptr<BlockDevice> data_dev,
    std::shared_ptr<BlockDevice> hash_dev,
    const Digest32& expected_root) {
  const std::size_t bs = hash_dev->block_size();
  const auto fanout = fanout_of(bs);
  if (!fanout.ok()) return fanout.error();
  const std::uint64_t n = data_dev->block_count();
  if (n == 0) return Error::make("verity.empty_data_device");
  const auto levels = tree_shape(n, *fanout);
  const std::uint64_t total = total_blocks(levels);
  if (total > hash_dev->block_count()) {
    return Error::make("verity.hash_device_too_small",
                       "the tree over " + std::to_string(n) +
                           " data blocks takes " + std::to_string(total) +
                           " hash blocks");
  }
  if (levels.empty()) {
    // One data block: its digest is the root.
    return std::make_shared<VerityDevice>(key, std::move(data_dev),
                                          std::vector<Digest32>{expected_root});
  }

  // Bottom-up, every hash block once: each level's block digests against
  // their entries in the level above, the top block's against the root.
  auto tree = hash_dev->map_blocks(0, total);
  if (!tree.ok()) return tree.error();
  const auto level_bytes = [&](const Level& level) {
    return tree->subspan(static_cast<std::size_t>(level.first * bs),
                         static_cast<std::size_t>(level.blocks * bs));
  };
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const bool top = i + 1 == levels.size();
    const ByteView entries =
        top ? expected_root.view() : level_bytes(levels[i + 1]);
    if (const auto bad = first_mismatch(level_bytes(levels[i]), bs, entries)) {
      if (top) {
        return Error::make(
            "verity.root_mismatch",
            "hash device root does not match kernel cmdline root");
      }
      return Error::make("verity.corrupt_hash_device",
                         "level " + std::to_string(i) + " hash block " +
                             std::to_string(*bad) +
                             " differs from its entry above");
    }
  }
  // Level 0's first n entries, authenticated above, are the data blocks'
  // digests.
  std::vector<Digest32> digests(static_cast<std::size_t>(n));
  std::memcpy(digests.data(), level_bytes(levels.front()).data(),
              digests.size() * sizeof(Digest32));
  return std::make_shared<VerityDevice>(key, std::move(data_dev),
                                        std::move(digests));
}

}  // namespace

Result<std::shared_ptr<VerityDevice>> Verity::open(
    std::shared_ptr<BlockDevice> data_dev,
    std::shared_ptr<BlockDevice> hash_dev,
    const Digest32& expected_root) {
  obs::Span span("storage.verity.open");
  span.attr("data_blocks", data_dev->block_count());
  auto device = open_impl(VerityDevice::OpenKey{}, std::move(data_dev),
                          std::move(hash_dev), expected_root);
  if (!device.ok()) {
    span.attr("result", device.error().code);
    obs::metrics()
        .counter("storage.verity_open.fail.count",
                 {{"reason", device.error().code}})
        .inc();
  } else {
    span.attr("result", "ok");
  }
  return device;
}

VerityDevice::VerityDevice(OpenKey, std::shared_ptr<BlockDevice> data_dev,
                           std::vector<Digest32> digests)
    : data_dev_(std::move(data_dev)), digests_(std::move(digests)) {}

Status VerityDevice::read_block(std::uint64_t index,
                                std::span<std::uint8_t> out) {
  // A counter bound once, not a span: this runs once per block.
  static obs::Counter& blocks =
      obs::metrics().counter("storage.verity_read.block.count");
  blocks.inc();
  // Open proved every digest against the cmdline root, so the compare
  // alone decides the read. The data device range-checks `index`, and
  // open took one digest per data block.
  Status st = data_dev_->read_block(index, out);
  if (st.ok() && !(crypto::sha256(out) ==
                   digests_[static_cast<std::size_t>(index)])) {
    st = block_mismatch(index);
  }
  if (!st.ok()) {
    obs::metrics()
        .counter("storage.verity_read.fail.count",
                 {{"reason", st.error().code}})
        .inc();
  }
  return st;
}

Status VerityDevice::write_block(std::uint64_t, ByteView) {
  return Error::make("verity.read_only",
                     "dm-verity devices reject all writes");
}

Status VerityDevice::verify_all() {
  obs::Span span("storage.verity.verify_all");
  span.attr("blocks", block_count());
  const std::uint64_t n = block_count();
  static obs::Counter& blocks =
      obs::metrics().counter("storage.verity_read.block.count");
  blocks.inc(n);

  const auto fail = [&](const Error& err) -> Status {
    obs::metrics()
        .counter("storage.verity_read.fail.count", {{"reason", err.code}})
        .inc();
    span.attr("result", err.code);
    return err;
  };

  // O(n) block hashes over one view of the device, compared a chunk at a
  // time against the digests `open` authenticated.
  auto bytes = data_dev_->map_blocks(0, n);
  if (!bytes.ok()) return fail(bytes.error());
  const ByteView expected(digests_.front().begin(),
                          digests_.size() * sizeof(Digest32));
  if (const auto bad = first_mismatch(*bytes, block_size(), expected)) {
    return fail(block_mismatch(*bad));
  }
  span.attr("result", "ok");
  return Status::success();
}

}  // namespace revelio::storage
