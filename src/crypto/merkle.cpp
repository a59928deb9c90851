#include "crypto/merkle.hpp"

#include <cstring>

namespace revelio::crypto {

namespace {
constexpr std::uint8_t kLeafPrefix = 0x00;
constexpr std::uint8_t kInnerPrefix = 0x01;
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

MerkleTree MerkleTree::from_leaves(std::vector<Digest32> leaves) {
  MerkleTree tree;
  tree.leaf_count_ = leaves.size();
  if (leaves.empty()) {
    // Root of the empty tree: hash of the empty string with leaf prefix.
    tree.root_ = hash_leaf({});
    return tree;
  }
  // Each level overwrites the front of the one below it.
  for (std::size_t n = leaves.size(); n > 1; n = (n + 1) / 2) {
    for (std::size_t i = 0; 2 * i < n; ++i) {
      const Digest32& left = leaves[2 * i];
      const Digest32& right = 2 * i + 1 < n ? leaves[2 * i + 1] : left;
      leaves[i] = hash_inner(left, right);
    }
  }
  tree.root_ = leaves.front();
  return tree;
}

}  // namespace revelio::crypto
