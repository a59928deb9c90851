// Binary Merkle tree over digests (SHA-256): the audit log's checkpoint
// root over one epoch of record digests. Leaves and inner nodes use
// distinct domain-separation prefixes so a leaf can never be replayed as an
// inner node; an odd last node is paired with itself.
//
// dm-verity does not use this tree: it has its own on-disk format
// (storage/dm_verity.hpp).
#pragma once

#include <vector>

#include "common/bytes.hpp"
#include "crypto/sha2.hpp"

namespace revelio::crypto {

class MerkleTree {
 public:
  /// Builds the tree bottom-up from precomputed leaf digests.
  static MerkleTree from_leaves(std::vector<Digest32> leaves);

  const Digest32& root() const { return root_; }
  std::size_t leaf_count() const { return leaf_count_; }

  /// Domain-separated hashes.
  static Digest32 hash_leaf(ByteView block);
  static Digest32 hash_inner(const Digest32& left, const Digest32& right);

 private:
  Digest32 root_;
  std::size_t leaf_count_ = 0;
};

}  // namespace revelio::crypto
