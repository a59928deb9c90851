#include "storage/dm_verity.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace revelio::storage {

namespace {

/// The leaf digests of every block of `dev`, hashed in place from one
/// read-only view of the whole device (taken here, on the calling thread;
/// the hashing fans out over the pool). Shared by Verity::format and
/// VerityDevice::verify_all.
Result<std::vector<crypto::Digest32>> hash_device_leaves(BlockDevice& dev) {
  auto bytes = dev.map_blocks(0, dev.block_count());
  if (!bytes.ok()) return bytes.error();
  std::vector<crypto::Digest32> leaves(
      static_cast<std::size_t>(dev.block_count()));
  crypto::MerkleTree::hash_leaves(*bytes, dev.block_size(), leaves);
  return leaves;
}

}  // namespace

Result<VerityMetadata> Verity::format(BlockDevice& data_dev,
                                      BlockDevice& hash_dev,
                                      const VerityParams& params) {
  if (data_dev.block_size() != params.data_block_size) {
    return Error::make("verity.block_size_mismatch",
                       "data device block size differs from verity config");
  }
  auto leaves = hash_device_leaves(data_dev);
  if (!leaves.ok()) return leaves.error();
  auto tree = crypto::MerkleTree::from_leaves(std::move(*leaves));

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
    : data_dev_(std::move(data_dev)), tree_(std::move(tree)) {
  verified_.resize(tree_.level_count());
  for (std::size_t l = 0; l < tree_.level_count(); ++l) {
    verified_[l].assign(tree_.level(l).size(), false);
  }
  // The root was matched against the expected (cmdline) hash before this
  // device was handed out, so the top level starts trusted.
  if (!verified_.empty()) verified_.back()[0] = true;
}

Status VerityDevice::verify_block(std::uint64_t idx, ByteView data) {
  const auto index = static_cast<std::size_t>(idx);
  const auto mismatch = [idx] {
    return Error::make("verity.block_mismatch",
                       "block " + std::to_string(idx) +
                           " failed integrity verification");
  };
  if (tree_.level_count() == 0 || index >= tree_.level(0).size()) {
    return mismatch();
  }
  // The leaf hash is recomputed unconditionally: the bitmap caches trust in
  // *tree nodes*, never in data-block contents, so post-verification
  // tampering of the backing device is still caught on the next read.
  const crypto::Digest32 leaf = crypto::MerkleTree::hash_leaf(data);
  if (!(leaf == tree_.level(0)[index])) return mismatch();

  // Climb until the first ancestor already authenticated against the root.
  // Each step hashes a stored sibling pair and compares it to the stored
  // parent; reaching a verified node transitively authenticates the chain.
  std::size_t level = 0;
  std::size_t pos = index;
  while (!verified_[level][pos]) {
    const auto& nodes = tree_.level(level);
    const std::size_t left = pos & ~std::size_t{1};
    const std::size_t right = (left + 1 < nodes.size()) ? left + 1 : left;
    const crypto::Digest32 parent =
        crypto::MerkleTree::hash_inner(nodes[left], nodes[right]);
    if (!(parent == tree_.level(level + 1)[pos / 2])) return mismatch();
    ++level;
    pos /= 2;
  }
  const std::size_t walked = level;  // inner hashes computed this read

  // Both halves of each checked pair hashed into an authenticated parent,
  // so mark sibling pairs — not just the direct ancestors — as verified.
  pos = index;
  for (std::size_t l = 0; l < walked; ++l) {
    const std::size_t left = pos & ~std::size_t{1};
    verified_[l][left] = true;
    if (left + 1 < verified_[l].size()) verified_[l][left + 1] = true;
    pos /= 2;
  }

  if (walked + 1 == tree_.level_count()) {
    obs::metrics()
        .counter("storage.verity_read.ancestor_cache.full_walk.count")
        .inc();
  } else {
    obs::metrics()
        .counter("storage.verity_read.ancestor_cache.hit.count")
        .inc();
  }
  return Status::success();
}

Status VerityDevice::read_block(std::uint64_t index,
                                std::span<std::uint8_t> out) {
  // Counters + a latency summary, not a span: this runs once per block
  // and a span per read would flood the tracer during verify_all.
  const auto t0 = std::chrono::steady_clock::now();
  obs::metrics().counter("storage.verity_read.block.count").inc();
  Status st = data_dev_->read_block(index, out);
  if (st.ok()) st = verify_block(index, out);
  if (!st.ok()) {
    obs::metrics()
        .counter("storage.verity_read.fail.count",
                 {{"reason", st.error().code}})
        .inc();
  }
  obs::metrics()
      .summary("storage.verity_read.real_us")
      .observe(std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - t0)
                   .count());
  return st;
}

Result<std::span<const crypto::Digest32>> VerityDevice::leaf_digests(
    std::uint64_t first, std::uint64_t count) const {
  const std::uint64_t n = block_count();
  if (first > n || count > n - first) {
    return Error::make("verity.out_of_range",
                       "leaves past the device end");
  }
  if (count == 0) return std::span<const crypto::Digest32>{};
  const auto begin = verified_[0].begin() + static_cast<std::ptrdiff_t>(first);
  const auto end = begin + static_cast<std::ptrdiff_t>(count);
  if (std::find(begin, end, false) != end) {
    return Error::make("verity.unverified_leaf",
                       "leaf range not yet authenticated against the root");
  }
  return std::span<const crypto::Digest32>(tree_.level(0))
      .subspan(static_cast<std::size_t>(first), static_cast<std::size_t>(count));
}

Status VerityDevice::write_block(std::uint64_t, ByteView) {
  return Error::make("verity.read_only",
                     "dm-verity devices reject all writes");
}

Status VerityDevice::verify_all() {
  obs::Span span("storage.verity.verify_all");
  span.attr("blocks", block_count());
  const std::uint64_t n = block_count();
  obs::metrics().counter("storage.verity_read.block.count").inc(n);

  const auto fail = [&](const Error& err) -> Status {
    obs::metrics()
        .counter("storage.verity_read.fail.count", {{"reason", err.code}})
        .inc();
    span.attr("result", err.code);
    return err;
  };

  // O(n) leaf hashes: one bulk sweep over the device instead of per-read
  // path verification (which costs O(n log n) inner hashes in total),
  // against level 0, which `open` recomputed up to the cmdline root.
  auto leaves = hash_device_leaves(*data_dev_);
  if (!leaves.ok()) return fail(leaves.error());
  for (std::uint64_t i = 0; i < n; ++i) {
    if (!((*leaves)[i] == tree_.level(0)[i])) {
      return fail(Error::make("verity.block_mismatch",
                              "block " + std::to_string(i) +
                                  " failed integrity verification"));
    }
  }

  // Everything below the root has now been authenticated end-to-end.
  for (auto& level : verified_) {
    std::fill(level.begin(), level.end(), true);
  }
  span.attr("result", "ok");
  return Status::success();
}

}  // namespace revelio::storage
