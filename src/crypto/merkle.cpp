#include "crypto/merkle.hpp"

#include <algorithm>
#include <cstring>

namespace revelio::crypto {

namespace {
constexpr std::uint8_t kLeafPrefix = 0x00;
constexpr std::uint8_t kInnerPrefix = 0x01;

// Node i of the level above `below`. An odd last node is paired with
// itself, which keeps the tree total.
Digest32 parent_of(const std::vector<Digest32>& below, std::size_t i) {
  const Digest32& left = below[2 * i];
  const Digest32& right = (2 * i + 1 < below.size()) ? below[2 * i + 1] : left;
  return MerkleTree::hash_inner(left, right);
}
}  // namespace

Digest32 MerkleTree::hash_leaf(ByteView block) {
  Sha256 h;
  h.update(ByteView(&kLeafPrefix, 1));
  h.update(block);
  return h.finish();
}

Digest32 MerkleTree::hash_inner(const Digest32& left, const Digest32& right) {
  std::uint8_t buf[65];
  buf[0] = kInnerPrefix;
  std::memcpy(buf + 1, left.view().data(), 32);
  std::memcpy(buf + 33, right.view().data(), 32);
  return sha256(ByteView(buf, sizeof(buf)));
}

void MerkleTree::hash_leaves(ByteView data, std::size_t block_size,
                             std::span<Digest32> out) {
  Sha256 prefixed;
  prefixed.update(ByteView(&kLeafPrefix, 1));
  // Full-size leaves two at a time; an odd last one and a short
  // zero-padded tail go one at a time.
  const std::size_t pairs_end = std::min(out.size(), data.size() / block_size);
  std::size_t i = 0;
  for (; i + 1 < pairs_end; i += 2) {
    Sha256::finish_2x(prefixed, data.subspan(i * block_size, block_size),
                      data.subspan((i + 1) * block_size, block_size), out[i],
                      out[i + 1]);
  }
  for (; i < out.size(); ++i) {
    const std::size_t off = i * block_size;
    const std::size_t len = std::min(block_size, data.size() - off);
    if (len == block_size) {
      out[i] = hash_leaf(data.subspan(off, len));
    } else {
      Bytes padded(block_size, 0);
      std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(off), len,
                  padded.begin());
      out[i] = hash_leaf(padded);
    }
  }
}

MerkleTree MerkleTree::from_leaves(std::vector<Digest32> leaves) {
  MerkleTree tree;
  tree.leaf_count_ = leaves.size();
  if (leaves.empty()) {
    // Root of the empty tree: hash of the empty string with leaf prefix.
    tree.root_ = hash_leaf({});
    return tree;
  }
  tree.levels_.push_back(std::move(leaves));
  while (tree.levels_.back().size() > 1) {
    const auto& below = tree.levels_.back();
    std::vector<Digest32> level((below.size() + 1) / 2);
    for (std::size_t i = 0; i < level.size(); ++i) {
      level[i] = parent_of(below, i);
    }
    tree.levels_.push_back(std::move(level));
  }
  tree.root_ = tree.levels_.back()[0];
  return tree;
}

MerkleTree MerkleTree::from_blocks(ByteView data, std::size_t block_size) {
  std::vector<Digest32> leaves((data.size() + block_size - 1) / block_size);
  hash_leaves(data, block_size, leaves);
  return from_leaves(std::move(leaves));
}

Bytes MerkleTree::serialize() const {
  Bytes out;
  append_u64be(out, leaf_count_);
  append_u64be(out, levels_.size());
  for (const auto& level : levels_) {
    append_u64be(out, level.size());
    for (const auto& node : level) append(out, node.view());
  }
  return out;
}

Result<MerkleTree> MerkleTree::deserialize(ByteView data) {
  if (data.size() < 16) return Error::make("merkle.truncated_header");
  MerkleTree tree;
  tree.leaf_count_ = read_u64be(data, 0);
  const std::uint64_t level_count = read_u64be(data, 8);
  std::size_t off = 16;
  for (std::uint64_t l = 0; l < level_count; ++l) {
    if (off + 8 > data.size()) return Error::make("merkle.truncated_level");
    const std::uint64_t node_count = read_u64be(data, off);
    off += 8;
    // Divide instead of multiplying: `node_count * 32` wraps for huge
    // node_count and would accept truncated input.
    if (node_count > (data.size() - off) / 32) {
      return Error::make("merkle.truncated_nodes");
    }
    std::vector<Digest32> level;
    level.reserve(node_count);
    for (std::uint64_t i = 0; i < node_count; ++i) {
      level.push_back(Digest32::from(data.subspan(off, 32)));
      off += 32;
    }
    tree.levels_.push_back(std::move(level));
  }
  if (tree.levels_.empty() || tree.levels_.back().size() != 1) {
    return Error::make("merkle.malformed", "missing root level");
  }
  // The readers index leaves by the header's count; a header that claims
  // more leaves than level 0 holds would send them past its end.
  if (tree.levels_[0].size() != tree.leaf_count_) {
    return Error::make("merkle.malformed", "leaf count differs from level 0");
  }
  // Recompute upward to reject tampered serializations; the first node
  // that differs from its children's hash fails the whole tree.
  for (std::size_t level = 0; level + 1 < tree.levels_.size(); ++level) {
    const auto& below = tree.levels_[level];
    const auto& above = tree.levels_[level + 1];
    if (above.size() != (below.size() + 1) / 2) {
      return Error::make("merkle.malformed", "bad level size");
    }
    for (std::size_t i = 0; i < above.size(); ++i) {
      if (!(parent_of(below, i) == above[i])) {
        return Error::make("merkle.inconsistent", "inner node mismatch");
      }
    }
  }
  tree.root_ = tree.levels_.back()[0];
  return tree;
}

}  // namespace revelio::crypto
