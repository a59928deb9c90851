// Merkle equivalence suite: MerkleTree's root must match a plain reference
// build for every tree shape. The reference below is written without
// MerkleTree's own in-place level loop.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/merkle.hpp"
#include "crypto/sha2.hpp"

namespace revelio::crypto {
namespace {

/// Plain reference build: one new level at a time, one node at a time.
Digest32 reference_root(std::vector<Digest32> level) {
  while (level.size() > 1) {
    std::vector<Digest32> up;
    for (std::size_t i = 0; i < level.size(); i += 2) {
      const Digest32& left = level[i];
      const Digest32& right = (i + 1 < level.size()) ? level[i + 1] : level[i];
      up.push_back(MerkleTree::hash_inner(left, right));
    }
    level = std::move(up);
  }
  return level.front();
}

std::vector<Digest32> make_leaves(std::size_t n) {
  std::vector<Digest32> leaves;
  leaves.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Bytes seed;
    append_u64be(seed, i);
    leaves.push_back(sha256(seed));
  }
  return leaves;
}

TEST(Merkle, MatchesSequentialReferenceAcrossShapes) {
  // Empty, single leaf, powers of two, odd counts and their neighbours.
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        std::size_t{5}, std::size_t{8}, std::size_t{9}, std::size_t{63},
        std::size_t{64}, std::size_t{65}, std::size_t{127}, std::size_t{128},
        std::size_t{129}, std::size_t{1023}, std::size_t{1024},
        std::size_t{1500}}) {
    const auto leaves = make_leaves(n);
    const auto tree = MerkleTree::from_leaves(leaves);
    ASSERT_EQ(tree.leaf_count(), n);
    if (n == 0) {
      EXPECT_EQ(tree.root(), MerkleTree::hash_leaf({}));
      continue;
    }
    EXPECT_EQ(tree.root(), reference_root(leaves)) << "n=" << n;
  }
}

}  // namespace
}  // namespace revelio::crypto
