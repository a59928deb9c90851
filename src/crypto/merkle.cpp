#include "crypto/merkle.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/parallel.hpp"

namespace revelio::crypto {

namespace {
constexpr std::uint8_t kLeafPrefix = 0x00;
constexpr std::uint8_t kInnerPrefix = 0x01;

// Smallest per-chunk node count worth shipping to a pool worker: below this
// the hash work is cheaper than the wake-up.
constexpr std::size_t kLeafGrain = 64;    // 64 x 4 KiB SHA-256 ≈ 1 ms scalar
constexpr std::size_t kInnerGrain = 512;  // inner hashes are 65-byte inputs

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
  const std::size_t full = data.size() / block_size;
  common::parallel_for(
      out.size(),
      [&](std::size_t begin, std::size_t end) {
        // Full-size leaves two at a time; one left over at the end of the
        // chunk and a short zero-padded tail go one at a time.
        const std::size_t pairs_end = std::min(end, full);
        std::size_t i = begin;
        for (; i + 1 < pairs_end; i += 2) {
          Sha256::finish_2x(prefixed, data.subspan(i * block_size, block_size),
                            data.subspan((i + 1) * block_size, block_size),
                            out[i], out[i + 1]);
        }
        for (; i < end; ++i) {
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
      },
      kLeafGrain);
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
    common::parallel_for(
        level.size(),
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            level[i] = parent_of(below, i);
          }
        },
        kInnerGrain);
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
  // Recompute upward to reject tampered serializations. Each level is
  // checked with a parallel sweep; a mismatch anywhere flips one shared
  // flag (the only cross-chunk state, write-only, so the outcome does not
  // depend on chunk order).
  for (std::size_t level = 0; level + 1 < tree.levels_.size(); ++level) {
    const auto& below = tree.levels_[level];
    const auto& above = tree.levels_[level + 1];
    if (above.size() != (below.size() + 1) / 2) {
      return Error::make("merkle.malformed", "bad level size");
    }
    std::atomic<bool> mismatch{false};
    common::parallel_for(
        above.size(),
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            if (mismatch.load(std::memory_order_relaxed)) return;
            if (!(parent_of(below, i) == above[i])) {
              mismatch.store(true, std::memory_order_relaxed);
            }
          }
        },
        kInnerGrain);
    if (mismatch.load()) {
      return Error::make("merkle.inconsistent", "inner node mismatch");
    }
  }
  tree.root_ = tree.levels_.back()[0];
  return tree;
}

}  // namespace revelio::crypto
