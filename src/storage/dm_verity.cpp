#include "storage/dm_verity.hpp"

#include <algorithm>
#include <array>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace revelio::storage {

namespace {

// verify_all's digest chunk: 512 x 32 B = 16 KiB on the stack, and 2 MiB
// of 4 KiB blocks per compare pass.
constexpr std::size_t kVerifyChunkLeaves = 512;

Error block_mismatch(std::uint64_t index) {
  return Error::make("verity.block_mismatch",
                     "block " + std::to_string(index) +
                         " failed integrity verification");
}

}  // namespace

Result<VerityMetadata> Verity::format(BlockDevice& data_dev,
                                      BlockDevice& hash_dev,
                                      const VerityParams& params) {
  if (data_dev.block_size() != params.data_block_size) {
    return Error::make("verity.block_size_mismatch",
                       "data device block size differs from verity config");
  }
  // The leaves are hashed in place from one read-only view of the whole
  // device, on the calling thread.
  auto bytes = data_dev.map_blocks(0, data_dev.block_count());
  if (!bytes.ok()) return bytes.error();
  const auto tree =
      crypto::MerkleTree::from_blocks(*bytes, data_dev.block_size());

  const Bytes serialized = tree.serialize();
  const std::uint64_t needed =
      (serialized.size() + hash_dev.block_size() - 1) / hash_dev.block_size();
  if (needed + 1 > hash_dev.block_count()) {
    return Error::make("verity.hash_device_too_small");
  }
  // Block 0: length header; blocks 1..: serialized tree.
  Bytes header;
  append_u64be(header, serialized.size());
  header.resize(hash_dev.block_size(), 0);
  if (auto st = hash_dev.write_block(0, header); !st.ok()) return st.error();
  if (auto st = hash_dev.write(hash_dev.block_size(), serialized); !st.ok()) {
    return st.error();
  }

  VerityMetadata meta;
  meta.root_hash = tree.root();
  meta.data_block_count = data_dev.block_count();
  return meta;
}

namespace {

Result<std::shared_ptr<VerityDevice>> open_impl(
    VerityDevice::OpenKey key, std::shared_ptr<BlockDevice> data_dev,
    std::shared_ptr<BlockDevice> hash_dev,
    const crypto::Digest32& expected_root) {
  // The tree is parsed from a view of the hash device: block 0 holds the
  // serialized length, blocks 1.. the serialized tree.
  const std::size_t bs = hash_dev->block_size();
  auto header = hash_dev->map_blocks(0, 1);
  if (!header.ok()) return header.error();
  const std::uint64_t length = read_u64be(*header, 0);
  if (length == 0 || length > (hash_dev->block_count() - 1) * bs) {
    return Error::make("verity.bad_hash_header");
  }
  auto serialized = hash_dev->map_blocks(1, (length + bs - 1) / bs);
  if (!serialized.ok()) return serialized.error();
  auto tree = crypto::MerkleTree::deserialize(
      serialized->first(static_cast<std::size_t>(length)));
  if (!tree.ok()) {
    return Error::make("verity.corrupt_hash_device",
                       tree.error().to_string());
  }
  if (!(tree->root() == expected_root)) {
    return Error::make("verity.root_mismatch",
                       "hash device root does not match kernel cmdline root");
  }
  if (tree->leaf_count() != data_dev->block_count()) {
    return Error::make("verity.leaf_count_mismatch");
  }
  return std::make_shared<VerityDevice>(key, std::move(data_dev),
                                        std::move(*tree));
}

}  // namespace

Result<std::shared_ptr<VerityDevice>> Verity::open(
    std::shared_ptr<BlockDevice> data_dev,
    std::shared_ptr<BlockDevice> hash_dev,
    const crypto::Digest32& expected_root) {
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
                           crypto::MerkleTree tree)
    : data_dev_(std::move(data_dev)), tree_(std::move(tree)) {}

Status VerityDevice::read_block(std::uint64_t index,
                                std::span<std::uint8_t> out) {
  // A counter bound once, not a span: this runs once per block.
  static obs::Counter& blocks =
      obs::metrics().counter("storage.verity_read.block.count");
  blocks.inc();
  // Open proved every stored node against the cmdline root, so the leaf
  // compare alone decides the read. The data device range-checks `index`,
  // and open matched its block count to level 0's size.
  Status st = data_dev_->read_block(index, out);
  if (st.ok() && !(crypto::MerkleTree::hash_leaf(out) ==
                   tree_.level(0)[static_cast<std::size_t>(index)])) {
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

  // O(n) leaf hashes over one view of the device, a chunk at a time into
  // a stack buffer, each chunk compared against level 0 (which `open`
  // recomputed up to the cmdline root) before the next is hashed.
  auto bytes = data_dev_->map_blocks(0, n);
  if (!bytes.ok()) return fail(bytes.error());
  const std::size_t bs = block_size();
  const auto& level0 = tree_.level(0);
  std::array<crypto::Digest32, kVerifyChunkLeaves> chunk;
  for (std::size_t first = 0; first < level0.size();
       first += kVerifyChunkLeaves) {
    const std::size_t count =
        std::min(kVerifyChunkLeaves, level0.size() - first);
    const std::span<crypto::Digest32> digests(chunk.data(), count);
    crypto::MerkleTree::hash_leaves(bytes->subspan(first * bs, count * bs),
                                    bs, digests);
    for (std::size_t i = 0; i < count; ++i) {
      if (!(digests[i] == level0[first + i])) {
        return fail(block_mismatch(first + i));
      }
    }
  }

  span.attr("result", "ok");
  return Status::success();
}

}  // namespace revelio::storage
