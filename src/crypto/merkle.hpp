// Binary Merkle tree over fixed-size data blocks (SHA-256).
//
// This is the hash structure behind the dm-verity target: the builder hashes
// every 4 KiB block, then hashes hash-blocks upward until a single root
// remains. `deserialize` recomputes every level from the leaves up, so a
// tree it returns is consistent with its root; a block is then verified by
// recomputing its one leaf and comparing it with level 0. Leaves and inner
// nodes use distinct domain-separation prefixes so a leaf can never be
// replayed as an inner node.
//
// Construction (leaf hashing, level reduction) and the deserialize
// recompute check are plain loops on the calling thread.
#pragma once

#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "crypto/sha2.hpp"

namespace revelio::crypto {

class MerkleTree {
 public:
  /// Builds the tree bottom-up from precomputed leaf digests.
  static MerkleTree from_leaves(std::vector<Digest32> leaves);

  /// Convenience: hash each block with the leaf prefix, then build.
  static MerkleTree from_blocks(ByteView data, std::size_t block_size);

  /// The leaf sweep behind from_blocks and dm-verity's device hashing:
  /// out[i] = hash_leaf(block i of `data`) for out.size() ==
  /// ceil(data.size() / block_size), on the calling thread. A short last
  /// block is zero-padded to `block_size`, as on a block device. Full-size
  /// blocks are hashed in pairs through Sha256::finish_2x, bit-identical
  /// to hash_leaf; `data` is only read, so it may be a device's own bytes.
  static void hash_leaves(ByteView data, std::size_t block_size,
                          std::span<Digest32> out);

  const Digest32& root() const { return root_; }
  std::size_t leaf_count() const { return leaf_count_; }

  /// Number of levels (0 for the empty tree); level 0 holds the leaves and
  /// the last level the single root node.
  std::size_t level_count() const { return levels_.size(); }
  /// Nodes of one level. dm-verity compares each read's leaf hash against
  /// level 0 in place.
  const std::vector<Digest32>& level(std::size_t i) const { return levels_[i]; }

  /// Domain-separated hashes.
  static Digest32 hash_leaf(ByteView block);
  static Digest32 hash_inner(const Digest32& left, const Digest32& right);

  /// Serialized level-by-level representation (the "hash device" contents
  /// dm-verity stores next to the data device).
  Bytes serialize() const;
  static Result<MerkleTree> deserialize(ByteView data);

 private:
  // levels_[0] = leaves; last level has a single node (the root).
  std::vector<std::vector<Digest32>> levels_;
  Digest32 root_;
  std::size_t leaf_count_ = 0;
};

}  // namespace revelio::crypto
