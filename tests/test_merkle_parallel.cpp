// Merkle equivalence suite: MerkleTree must match a plain reference build,
// level by level, for every tree shape, and deserialize must recompute and
// reject a tree whose stored inner nodes do not match their children. The
// reference below is written without MerkleTree's own level loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/merkle.hpp"
#include "crypto/sha2.hpp"

namespace revelio::crypto {
namespace {

/// Plain reference build: one level at a time, one node at a time.
std::vector<std::vector<Digest32>> reference_levels(
    std::vector<Digest32> leaves) {
  std::vector<std::vector<Digest32>> levels;
  if (leaves.empty()) return levels;
  levels.push_back(std::move(leaves));
  while (levels.back().size() > 1) {
    const auto& below = levels.back();
    std::vector<Digest32> up;
    for (std::size_t i = 0; i < below.size(); i += 2) {
      const Digest32& left = below[i];
      const Digest32& right = (i + 1 < below.size()) ? below[i + 1] : below[i];
      up.push_back(MerkleTree::hash_inner(left, right));
    }
    levels.push_back(std::move(up));
  }
  return levels;
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

void expect_levels(const MerkleTree& tree,
                   const std::vector<std::vector<Digest32>>& ref,
                   std::size_t n) {
  ASSERT_EQ(tree.level_count(), ref.size()) << "n=" << n;
  for (std::size_t l = 0; l < ref.size(); ++l) {
    ASSERT_EQ(tree.level(l).size(), ref[l].size()) << "n=" << n;
    for (std::size_t i = 0; i < ref[l].size(); ++i) {
      ASSERT_EQ(tree.level(l)[i], ref[l][i])
          << "n=" << n << " level=" << l << " node=" << i;
    }
  }
  ASSERT_EQ(tree.root(), ref.back()[0]) << "n=" << n;
}

TEST(Merkle, MatchesSequentialReferenceAcrossShapes) {
  // Empty, single leaf, powers of two, odd counts and their neighbours;
  // every level of the built tree, and of its serialize/deserialize round
  // trip, must equal the reference's.
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
      EXPECT_EQ(tree.level_count(), 0u);
      EXPECT_EQ(tree.root(), MerkleTree::hash_leaf({}));
      continue;
    }
    const auto ref = reference_levels(leaves);
    expect_levels(tree, ref, n);
    const auto back = MerkleTree::deserialize(tree.serialize());
    ASSERT_TRUE(back.ok()) << "n=" << n;
    expect_levels(*back, ref, n);
  }
}

TEST(Merkle, FromBlocksMatchesManualLeafHashing) {
  // 37 blocks of 256 bytes plus a short 100-byte tail (zero-padded).
  Bytes data(37 * 256 + 100);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  const auto tree = MerkleTree::from_blocks(data, 256);

  std::vector<Digest32> leaves;
  for (std::size_t off = 0; off < data.size(); off += 256) {
    Bytes block(256, 0);
    const std::size_t len = std::min<std::size_t>(256, data.size() - off);
    std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(off), len,
                block.begin());
    leaves.push_back(MerkleTree::hash_leaf(block));
  }
  EXPECT_EQ(tree.root(), MerkleTree::from_leaves(leaves).root());
  EXPECT_EQ(tree.leaf_count(), 38u);
}

TEST(Merkle, DeserializeRejectsFlippedInnerNode) {
  const auto tree = MerkleTree::from_leaves(make_leaves(1500));
  Bytes blob = tree.serialize();
  ASSERT_TRUE(MerkleTree::deserialize(blob).ok());
  blob[16 + 8 + 1500 * 32 + 8 + 5 * 32 + 3] ^= 0x20;  // level 1, node 5
  const auto result = MerkleTree::deserialize(blob);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, "merkle.inconsistent");
}

}  // namespace
}  // namespace revelio::crypto
