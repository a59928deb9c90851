#include <gtest/gtest.h>

#include <type_traits>

#include "common/hex.hpp"
#include "crypto/drbg.hpp"
#include "obs/metrics.hpp"
#include "storage/block_device.hpp"
#include "storage/dm_crypt.hpp"
#include "storage/dm_verity.hpp"
#include "storage/imagefs.hpp"
#include "storage/mem_disk.hpp"
#include "storage/partition.hpp"

namespace revelio::storage {
namespace {

using crypto::HmacDrbg;

Bytes pattern_bytes(std::size_t n, std::uint8_t seed = 0) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(i * 131 + seed);
  }
  return out;
}

// ---------------------------------------------------------------- MemDisk

TEST(MemDisk, BlockRoundTrip) {
  MemDisk disk(512, 8);
  const Bytes data = pattern_bytes(512);
  ASSERT_TRUE(disk.write_block(3, data).ok());
  Bytes back(512);
  ASSERT_TRUE(disk.read_block(3, back).ok());
  EXPECT_EQ(back, data);
}

TEST(MemDisk, RejectsOutOfRangeAndBadBuffer) {
  MemDisk disk(512, 4);
  Bytes buf(512);
  EXPECT_FALSE(disk.read_block(4, buf).ok());
  EXPECT_FALSE(disk.write_block(4, buf).ok());
  Bytes small(100);
  EXPECT_FALSE(disk.read_block(0, small).ok());
  EXPECT_FALSE(disk.write_block(0, small).ok());
}

TEST(MemDisk, TracksIoStats) {
  MemDisk disk(512, 4);
  Bytes buf(512);
  ASSERT_TRUE(disk.write_block(0, buf).ok());
  ASSERT_TRUE(disk.read_block(0, buf).ok());
  ASSERT_TRUE(disk.read_block(1, buf).ok());
  EXPECT_EQ(disk.stats().blocks_written, 1u);
  EXPECT_EQ(disk.stats().blocks_read, 2u);
  disk.reset_stats();
  EXPECT_EQ(disk.stats().blocks_read, 0u);
}

TEST(MemDisk, RawTamperBypassesInterface) {
  MemDisk disk(512, 2);
  Bytes buf(512, 0x00);
  ASSERT_TRUE(disk.write_block(0, buf).ok());
  disk.raw_tamper(100, 0xff);
  ASSERT_TRUE(disk.read_block(0, buf).ok());
  EXPECT_EQ(buf[100], 0xff);
}

TEST(MemDisk, RawDumpSeesCiphertextLayout) {
  MemDisk disk(512, 2);
  const Bytes data = pattern_bytes(512);
  ASSERT_TRUE(disk.write_block(1, data).ok());
  const Bytes dump = disk.raw_dump(512, 512);
  EXPECT_EQ(dump, data);
  EXPECT_TRUE(disk.raw_dump(2000, 10).empty());
}

TEST(MemDisk, TakesOverGivenContents) {
  const Bytes contents = pattern_bytes(512 * 6, 7);
  MemDisk disk(512, Bytes(contents));
  EXPECT_EQ(disk.block_count(), contents.size() / 512);
  EXPECT_EQ(disk.block_size(), 512u);
  Bytes block(512);
  for (std::uint64_t i = 0; i < disk.block_count(); ++i) {
    ASSERT_TRUE(disk.read_block(i, block).ok());
    EXPECT_TRUE(std::equal(block.begin(), block.end(),
                           contents.begin() + static_cast<std::ptrdiff_t>(i * 512)))
        << "block " << i;
  }
  EXPECT_FALSE(disk.read_block(6, block).ok());
  EXPECT_EQ(disk.raw_dump(0, contents.size()), contents);
}

TEST(MemDisk, TakeContentsHandsOverWrittenBytes) {
  MemDisk disk(512, 4);
  const Bytes data = pattern_bytes(512 * 2, 3);
  ASSERT_TRUE(disk.write(512, data).ok());
  Bytes want(512 * 4, 0);
  std::copy(data.begin(), data.end(), want.begin() + 512);
  EXPECT_EQ(std::move(disk).take_contents(), want);
  // The emptied disk has no blocks left to read.
  EXPECT_EQ(disk.block_count(), 0u);
  Bytes block(512);
  EXPECT_FALSE(disk.read_block(0, block).ok());
}

// ---------------------------------------------------------- byte helpers

TEST(BlockDevice, ByteReadWriteSpansBlocks) {
  MemDisk disk(64, 16);
  const Bytes data = pattern_bytes(200);
  ASSERT_TRUE(disk.write(30, data).ok());
  auto back = disk.read(30, 200);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

TEST(BlockDevice, WritesMatchByteReference) {
  // One write at an unaligned offset: a partial head block, three whole
  // middle blocks and a partial tail block. Only the partial ones may be
  // read (read-modify-write); whole blocks go straight to the device.
  const Bytes original = pattern_bytes(64 * 8, 3);
  MemDisk disk(64, Bytes(original));
  const Bytes data = pattern_bytes(40 + 3 * 64 + 25, 99);
  const std::uint64_t offset = 64 + 24;
  Bytes reference = original;
  std::copy(data.begin(), data.end(),
            reference.begin() + static_cast<std::ptrdiff_t>(offset));
  ASSERT_TRUE(disk.write(offset, data).ok());
  EXPECT_EQ(disk.raw_dump(0, reference.size()), reference);
  EXPECT_EQ(disk.stats().blocks_read, 2u) << "head and tail only";
  EXPECT_EQ(disk.stats().blocks_written, 5u);

  // A single whole block at offset 0: no read at all.
  disk.reset_stats();
  const Bytes first = pattern_bytes(64, 42);
  std::copy(first.begin(), first.end(), reference.begin());
  ASSERT_TRUE(disk.write(0, first).ok());
  EXPECT_EQ(disk.raw_dump(0, reference.size()), reference);
  EXPECT_EQ(disk.stats().blocks_read, 0u);
  EXPECT_EQ(disk.stats().blocks_written, 1u);
}

TEST(BlockDevice, ByteAccessRejectsOutOfRange) {
  MemDisk disk(64, 2);
  EXPECT_FALSE(disk.read(100, 100).ok());
  EXPECT_FALSE(disk.write(120, pattern_bytes(100)).ok());
}

TEST(SliceDevice, WindowsParentRange) {
  auto disk = std::make_shared<MemDisk>(64, 10);
  SliceDevice slice(disk, 4, 3);
  EXPECT_EQ(slice.block_count(), 3u);
  const Bytes data = pattern_bytes(64);
  ASSERT_TRUE(slice.write_block(0, data).ok());
  Bytes back(64);
  ASSERT_TRUE(disk->read_block(4, back).ok());
  EXPECT_EQ(back, data);
  EXPECT_FALSE(slice.read_block(3, back).ok());
}

TEST(BlockDevice, MapBlocksViewsStoredBytesAndCountsLikeReads) {
  auto disk = std::make_shared<MemDisk>(64, 10);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        disk->write_block(i, pattern_bytes(64, static_cast<std::uint8_t>(i)))
            .ok());
  }
  SliceDevice slice(disk, 4, 3);
  disk->reset_stats();
  Bytes expect;
  Bytes block(64);
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(slice.read_block(i, block).ok());
    expect.insert(expect.end(), block.begin(), block.end());
  }
  const IoStats per_block = disk->stats();
  disk->reset_stats();
  auto view = slice.map_blocks(0, 3);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(Bytes(view->begin(), view->end()), expect);
  EXPECT_EQ(disk->stats().blocks_read, per_block.blocks_read);
  // The slice forwards with its offset to the disk's own bytes: no copy.
  auto direct = disk->map_blocks(4, 3);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(view->data(), direct->data());
  EXPECT_TRUE(disk->map_blocks(10, 0).ok()) << "empty range at the end";
}

TEST(BlockDevice, MapBlocksFailsClosedPastTheEnd) {
  auto disk = std::make_shared<MemDisk>(64, 10);
  SliceDevice slice(disk, 4, 3);
  disk->reset_stats();
  const std::uint64_t huge = ~std::uint64_t{0};
  for (const auto& [first, count] :
       std::vector<std::pair<std::uint64_t, std::uint64_t>>{
           {9, 2}, {11, 0}, {0, 11}, {1, huge}}) {
    auto r = disk->map_blocks(first, count);
    ASSERT_FALSE(r.ok()) << first << "+" << count;
    EXPECT_EQ(r.error().code, "blockdev.out_of_range");
  }
  // Across the slice's end, though the parent has those blocks.
  for (const auto& [first, count] :
       std::vector<std::pair<std::uint64_t, std::uint64_t>>{
           {2, 2}, {3, 1}, {4, 0}, {0, 4}, {1, huge}}) {
    auto r = slice.map_blocks(first, count);
    ASSERT_FALSE(r.ok()) << first << "+" << count;
    EXPECT_EQ(r.error().code, "blockdev.out_of_range");
  }
  EXPECT_EQ(disk->stats().blocks_read, 0u) << "a refused map reads nothing";
}

// ------------------------------------------------------------- Partition

TEST(PartitionTable, RoundTripThroughDevice) {
  auto disk = std::make_shared<MemDisk>(4096, 100);
  PartitionTable table;
  FixedBytes<16> uuid_a = FixedBytes<16>::from(pattern_bytes(16, 1));
  FixedBytes<16> uuid_b = FixedBytes<16>::from(pattern_bytes(16, 2));
  table.add("rootfs", uuid_a, 50);
  table.add("verity", uuid_b, 20);
  ASSERT_TRUE(table.write_to(*disk).ok());

  auto parsed = PartitionTable::read_from(*disk);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->entries().size(), 2u);
  EXPECT_EQ(parsed->entries()[0].label, "rootfs");
  EXPECT_EQ(parsed->entries()[0].first_block, 1u);
  EXPECT_EQ(parsed->entries()[1].first_block, 51u);
  EXPECT_EQ(parsed->entries()[1].uuid, uuid_b);
}

TEST(PartitionTable, OpenReturnsCorrectSlice) {
  auto disk = std::make_shared<MemDisk>(4096, 100);
  PartitionTable table;
  table.add("a", {}, 10);
  table.add("b", {}, 5);
  ASSERT_TRUE(table.write_to(*disk).ok());

  auto part = PartitionTable::open(disk, "b");
  ASSERT_TRUE(part.ok());
  EXPECT_EQ((*part)->block_count(), 5u);
  const Bytes data = pattern_bytes(4096);
  ASSERT_TRUE((*part)->write_block(0, data).ok());
  Bytes back(4096);
  ASSERT_TRUE(disk->read_block(11, back).ok());
  EXPECT_EQ(back, data);
}

TEST(PartitionTable, MissingLabelAndBadMagic) {
  auto disk = std::make_shared<MemDisk>(4096, 10);
  PartitionTable table;
  table.add("only", {}, 2);
  ASSERT_TRUE(table.write_to(*disk).ok());
  EXPECT_FALSE(PartitionTable::open(disk, "nope").ok());

  auto blank = std::make_shared<MemDisk>(4096, 10);
  EXPECT_EQ(PartitionTable::read_from(*blank).error().code,
            "partition.bad_magic");
}

TEST(PartitionTable, SliceComesFromTheInMemoryTable) {
  // No table on the device: the slice's bounds come from the caller's table.
  auto disk = std::make_shared<MemDisk>(4096, 16);
  PartitionTable table;
  table.add("a", {}, 3);
  table.add("b", {}, 4);
  auto part = table.slice(disk, "b");
  ASSERT_TRUE(part.ok());
  EXPECT_EQ((*part)->block_count(), 4u);
  const Bytes data = pattern_bytes(4096, 9);
  ASSERT_TRUE((*part)->write_block(0, data).ok());
  Bytes back(4096);
  ASSERT_TRUE(disk->read_block(4, back).ok());
  EXPECT_EQ(back, data);
  EXPECT_EQ(table.slice(disk, "nope").error().code, "partition.not_found");

  PartitionTable too_big;
  too_big.add("a", {}, 16);  // blocks 1..16 of a 16-block disk
  EXPECT_EQ(too_big.slice(disk, "a").error().code, "partition.out_of_range");
}

TEST(PartitionTable, WrappingEntryFromTheHostIsOutOfRange) {
  // A host-written table whose first_block + block_count wraps past 2^64:
  // first block 2^64 - 4, 5 blocks. If accepted, the slice's block 4 would
  // be the disk's block 0, the table itself.
  auto disk = std::make_shared<MemDisk>(4096, 8);
  Bytes block;
  append_u32be(block, 0x52505431);  // "RPT1"
  append_u32be(block, 1);
  append_u64be(block, 8);
  append_u32be(block, 6);
  append(block, std::string_view("rootfs"));
  append(block, pattern_bytes(16, 4));
  append_u64be(block, ~std::uint64_t{0} - 3);
  append_u64be(block, 5);
  block.resize(4096, 0);
  ASSERT_TRUE(disk->write_block(0, block).ok());

  auto part = PartitionTable::open(disk, "rootfs");
  ASSERT_FALSE(part.ok()) << "the wrapped slice would alias block 0";
  EXPECT_EQ(part.error().code, "partition.out_of_range");
}

// -------------------------------------------------------------- DmCrypt

class DmCryptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_ = std::make_shared<MemDisk>(4096, 32);
    HmacDrbg drbg(to_bytes(std::string_view("crypt-test")));
    key_ = drbg.generate(32);
    salt_ = drbg.generate(32);
  }
  std::shared_ptr<MemDisk> disk_;
  Bytes key_;
  Bytes salt_;
};

TEST_F(DmCryptTest, FormatOpenRoundTrip) {
  auto dev = CryptVolume::format(disk_, key_, salt_);
  ASSERT_TRUE(dev.ok());
  const Bytes data = pattern_bytes(4096);
  ASSERT_TRUE((*dev)->write_block(5, data).ok());

  auto reopened = CryptVolume::open(disk_, key_);
  ASSERT_TRUE(reopened.ok());
  Bytes back(4096);
  ASSERT_TRUE((*reopened)->read_block(5, back).ok());
  EXPECT_EQ(back, data);
}

TEST_F(DmCryptTest, WrongKeyRejectedAtOpen) {
  ASSERT_TRUE(CryptVolume::format(disk_, key_, salt_).ok());
  Bytes wrong = key_;
  wrong[0] ^= 1;
  auto r = CryptVolume::open(disk_, wrong);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "crypt.wrong_key");
}

TEST_F(DmCryptTest, CiphertextOnDiskDiffersFromPlaintext) {
  auto dev = CryptVolume::format(disk_, key_, salt_);
  ASSERT_TRUE(dev.ok());
  const Bytes data = pattern_bytes(4096);
  ASSERT_TRUE((*dev)->write_block(0, data).ok());
  // Payload block 0 lands at backing block 1 (after the header).
  const Bytes on_disk = disk_->raw_dump(4096, 4096);
  EXPECT_NE(on_disk, data) << "plaintext must never reach the disk";
}

TEST_F(DmCryptTest, IdenticalPlaintextBlocksEncryptDifferently) {
  auto dev = CryptVolume::format(disk_, key_, salt_);
  ASSERT_TRUE(dev.ok());
  const Bytes data = pattern_bytes(4096);
  ASSERT_TRUE((*dev)->write_block(0, data).ok());
  ASSERT_TRUE((*dev)->write_block(1, data).ok());
  EXPECT_NE(disk_->raw_dump(4096, 4096), disk_->raw_dump(8192, 4096))
      << "XTS sector tweak must separate identical sectors";
}

TEST_F(DmCryptTest, HostTamperGarblesPlaintext) {
  auto dev = CryptVolume::format(disk_, key_, salt_);
  ASSERT_TRUE(dev.ok());
  const Bytes data = pattern_bytes(4096);
  ASSERT_TRUE((*dev)->write_block(2, data).ok());
  disk_->raw_tamper(3 * 4096 + 7, 0x01);  // payload block 2 = backing block 3
  Bytes back(4096);
  ASSERT_TRUE((*dev)->read_block(2, back).ok());
  EXPECT_NE(back, data) << "XTS decrypt of tampered ciphertext must differ";
}

TEST_F(DmCryptTest, DetectsFormattedDevice) {
  EXPECT_FALSE(CryptVolume::is_formatted(*disk_));
  ASSERT_TRUE(CryptVolume::format(disk_, key_, salt_).ok());
  EXPECT_TRUE(CryptVolume::is_formatted(*disk_));
}

TEST_F(DmCryptTest, RejectsBadSaltAndTinyDevice) {
  EXPECT_FALSE(CryptVolume::format(disk_, key_, pattern_bytes(5)).ok());
  auto tiny = std::make_shared<MemDisk>(4096, 1);
  EXPECT_FALSE(CryptVolume::format(tiny, key_, salt_).ok());
}

// One block is one XTS data unit: a block that is not whole AES blocks
// would leave its tail in plaintext (or overrun it), and one under 72 bytes
// cannot hold the header. Both format and open fail closed on such devices.
TEST_F(DmCryptTest, RejectsBlockSizesThatAreNotWholeAesBlocks) {
  for (const std::size_t block_size : {40u, 4100u}) {
    auto odd = std::make_shared<MemDisk>(block_size, 8);
    auto formatted = CryptVolume::format(odd, key_, salt_);
    ASSERT_FALSE(formatted.ok()) << block_size;
    EXPECT_EQ(formatted.error().code, "crypt.bad_block_size");
    EXPECT_FALSE(CryptVolume::is_formatted(*odd)) << "nothing written";
  }
  // A header that is valid byte for byte does not make open accept the
  // 4100-byte device either.
  ASSERT_TRUE(CryptVolume::format(disk_, key_, salt_).ok());
  Bytes header = disk_->raw_dump(0, 4096);
  header.resize(4100, 0);
  auto odd = std::make_shared<MemDisk>(4100, 8);
  ASSERT_TRUE(odd->write_block(0, header).ok());
  auto opened = CryptVolume::open(odd, key_);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.error().code, "crypt.bad_block_size");
}

TEST_F(DmCryptTest, SmallestWholeBlockSizeRoundTrips) {
  // 80 bytes: the smallest multiple of 16 that holds the 72-byte header;
  // five AES blocks, a run shorter than the kernel's 8-block group.
  auto small = std::make_shared<MemDisk>(80, 4);
  auto dev = CryptVolume::format(small, key_, salt_);
  ASSERT_TRUE(dev.ok());
  const Bytes data = pattern_bytes(80);
  ASSERT_TRUE((*dev)->write_block(1, data).ok());
  EXPECT_NE(small->raw_dump(2 * 80, 80), data);
  auto reopened = CryptVolume::open(small, key_);
  ASSERT_TRUE(reopened.ok());
  Bytes back(80);
  ASSERT_TRUE((*reopened)->read_block(1, back).ok());
  EXPECT_EQ(back, data);
}

TEST_F(DmCryptTest, RefusesToMapAndVerityCannotFormatOverIt) {
  auto dev = CryptVolume::format(disk_, key_, salt_);
  ASSERT_TRUE(dev.ok());
  auto view = (*dev)->map_blocks(0, 1);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.error().code, "blockdev.not_mappable");
  MemDisk hash(4096, 8);
  auto meta = Verity::format(**dev, hash);
  ASSERT_FALSE(meta.ok());
  EXPECT_EQ(meta.error().code, "blockdev.not_mappable");
}

// -------------------------------------------------------------- DmVerity

class DmVerityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_dev_ = std::make_shared<MemDisk>(4096, 16);
    hash_dev_ = std::make_shared<MemDisk>(4096, 16);
    for (std::uint64_t i = 0; i < data_dev_->block_count(); ++i) {
      ASSERT_TRUE(data_dev_
                      ->write_block(i, pattern_bytes(4096,
                                                     static_cast<std::uint8_t>(i)))
                      .ok());
    }
    auto meta = Verity::format(*data_dev_, *hash_dev_);
    ASSERT_TRUE(meta.ok());
    meta_ = *meta;
  }
  std::shared_ptr<MemDisk> data_dev_;
  std::shared_ptr<MemDisk> hash_dev_;
  VerityMetadata meta_;

  // A second formatted device, `blocks` long, block i patterned from seed
  // i like the fixture's.
  struct Formatted {
    std::shared_ptr<MemDisk> data;
    std::shared_ptr<MemDisk> hash;
    crypto::Digest32 root;
  };
  static Formatted format_patterned(std::uint64_t blocks,
                                    std::uint64_t hash_blocks) {
    Formatted f{std::make_shared<MemDisk>(4096, blocks),
                std::make_shared<MemDisk>(4096, hash_blocks), {}};
    for (std::uint64_t i = 0; i < blocks; ++i) {
      EXPECT_TRUE(
          f.data->write_block(i, pattern_bytes(4096, static_cast<std::uint8_t>(i)))
              .ok());
    }
    auto meta = Verity::format(*f.data, *f.hash);
    EXPECT_TRUE(meta.ok());
    if (meta.ok()) f.root = meta->root_hash;
    return f;
  }
};

TEST_F(DmVerityTest, OpenAndReadAllBlocks) {
  auto dev = Verity::open(data_dev_, hash_dev_, meta_.root_hash);
  ASSERT_TRUE(dev.ok());
  EXPECT_TRUE((*dev)->verify_all().ok());
}

TEST_F(DmVerityTest, SingleBitFlipFailsExactlyThatBlock) {
  auto dev = Verity::open(data_dev_, hash_dev_, meta_.root_hash);
  ASSERT_TRUE(dev.ok());
  data_dev_->raw_tamper(5 * 4096 + 123, 0x40);  // flip one bit in block 5

  Bytes buf(4096);
  for (std::uint64_t i = 0; i < (*dev)->block_count(); ++i) {
    const auto st = (*dev)->read_block(i, buf);
    if (i == 5) {
      ASSERT_FALSE(st.ok());
      EXPECT_EQ(st.error().code, "verity.block_mismatch");
    } else {
      EXPECT_TRUE(st.ok()) << "block " << i;
    }
  }
}

TEST_F(DmVerityTest, WritesAlwaysRejected) {
  auto dev = Verity::open(data_dev_, hash_dev_, meta_.root_hash);
  ASSERT_TRUE(dev.ok());
  const auto st = (*dev)->write_block(0, pattern_bytes(4096));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, "verity.read_only");
}

TEST_F(DmVerityTest, RefusesToMap) {
  auto dev = Verity::open(data_dev_, hash_dev_, meta_.root_hash);
  ASSERT_TRUE(dev.ok());
  ASSERT_TRUE((*dev)->verify_all().ok());
  auto view = (*dev)->map_blocks(0, 1);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.error().code, "blockdev.not_mappable");
}

TEST_F(DmVerityTest, WrongRootHashFailsOpen) {
  crypto::Digest32 wrong = meta_.root_hash;
  wrong[0] ^= 1;
  const auto r = Verity::open(data_dev_, hash_dev_, wrong);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "verity.root_mismatch");
}

TEST_F(DmVerityTest, TamperedHashDeviceFailsOpen) {
  // Corrupt a serialized tree node (skip the length header block).
  hash_dev_->raw_tamper(4096 + 64, 0x01);
  const auto r = Verity::open(data_dev_, hash_dev_, meta_.root_hash);
  EXPECT_FALSE(r.ok());
}

TEST_F(DmVerityTest, EveryInnerNodeIsCheckedAtOpen) {
  // A read compares only its leaf, so open has to have proved every node
  // above level 0: flip each one in turn (the root included) and the
  // device must not open. Serialized layout after the length header
  // block: u64 leaf_count, u64 level_count, then per level a u64
  // node_count followed by the nodes.
  for (const Formatted& f : {Formatted{data_dev_, hash_dev_, meta_.root_hash},
                             format_patterned(17, 16)}) {
    const std::uint64_t leaves = f.data->block_count();
    std::uint64_t offset = 4096 + 16;  // level 0's node_count
    std::size_t flipped = 0;
    for (std::uint64_t level = 0, nodes = leaves;; ++level) {
      for (std::uint64_t i = 0; level >= 1 && i < nodes; ++i) {
        const std::uint64_t node = offset + 8 + i * 32;
        f.hash->raw_tamper(node + 9, 0x04);
        const auto r = Verity::open(f.data, f.hash, f.root);
        ASSERT_FALSE(r.ok()) << leaves << " leaves, level " << level
                             << " node " << i;
        EXPECT_EQ(r.error().code, "verity.corrupt_hash_device");
        f.hash->raw_tamper(node + 9, 0x04);  // restore
        ++flipped;
      }
      offset += 8 + nodes * 32;
      if (nodes == 1) break;
      nodes = (nodes + 1) / 2;
    }
    // 16 leaves: 8 + 4 + 2 + 1; 17 leaves: 9 + 5 + 3 + 2 + 1.
    EXPECT_EQ(flipped, leaves == 16 ? 15u : 20u);
    EXPECT_TRUE(Verity::open(f.data, f.hash, f.root).ok()) << "restored";
  }
}

TEST_F(DmVerityTest, ConsistentTamperOfDataAndLeafStillFailsViaRoot) {
  // Attacker rewrites a data block AND recomputes its leaf in the hash
  // device; inner nodes no longer match, so deserialize or open fails.
  Bytes new_block = pattern_bytes(4096, 0xEE);
  ASSERT_TRUE(data_dev_->write_block(5, new_block).ok());
  const auto leaf = crypto::MerkleTree::hash_leaf(new_block);
  // Serialized layout: u64 leaf_count, u64 level_count, then level 0:
  // u64 node_count followed by the leaves.
  const std::uint64_t leaf_offset = 4096 /*len header block*/ + 8 + 8 + 8 +
                                    5 * 32;
  Bytes leaf_bytes = leaf.bytes();
  ASSERT_TRUE(hash_dev_->write(leaf_offset, leaf_bytes).ok());
  EXPECT_FALSE(Verity::open(data_dev_, hash_dev_, meta_.root_hash).ok());
}

TEST_F(DmVerityTest, TamperRejectedAfterAncestorsCached) {
  auto dev = Verity::open(data_dev_, hash_dev_, meta_.root_hash);
  ASSERT_TRUE(dev.ok());
  Bytes buf(4096);
  // Clean reads of block 5 and its sibling first. Trust is held in tree
  // nodes, never in block contents: the per-read leaf recompute must
  // still catch tampering of the backing store afterwards.
  ASSERT_TRUE((*dev)->read_block(5, buf).ok());
  ASSERT_TRUE((*dev)->read_block(4, buf).ok());
  data_dev_->raw_tamper(5 * 4096 + 1000, 0x01);
  const auto st = (*dev)->read_block(5, buf);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, "verity.block_mismatch");
  EXPECT_FALSE((*dev)->read_block(5, buf).ok()) << "must stay rejected";
}

TEST_F(DmVerityTest, VerifyAllNamesTheFlippedBlockAndStaysClosed) {
  // The sweep hashes leaves in pairs, so flips land on a pair's first leaf
  // (0, 8), its second (5, 15), the odd last leaf of a 17-block device
  // (16), and two leaves at once, where the lowest block is named. It
  // compares 512 leaves at a time, so on an 1100-block device flips land
  // on both sides of a chunk edge (511, 512, 513), in the short last
  // chunk (1024, 1099) and in two chunks at once (600 and 1099).
  const Formatted odd = format_patterned(17, 16);
  const Formatted wide = format_patterned(1100, 32);
  struct Case {
    std::shared_ptr<MemDisk> data;
    std::shared_ptr<MemDisk> hash;
    crypto::Digest32 root;
    std::vector<std::uint64_t> flipped;  // lowest first
  };
  const Case cases[] = {
      {data_dev_, hash_dev_, meta_.root_hash, {0}},
      {data_dev_, hash_dev_, meta_.root_hash, {5}},
      {data_dev_, hash_dev_, meta_.root_hash, {8}},
      {data_dev_, hash_dev_, meta_.root_hash, {15}},
      {data_dev_, hash_dev_, meta_.root_hash, {5, 12}},
      {odd.data, odd.hash, odd.root, {16}},
      {wide.data, wide.hash, wide.root, {511}},
      {wide.data, wide.hash, wide.root, {512}},
      {wide.data, wide.hash, wide.root, {513}},
      {wide.data, wide.hash, wide.root, {1024}},
      {wide.data, wide.hash, wide.root, {1099}},
      {wide.data, wide.hash, wide.root, {600, 1099}},
  };
  for (const Case& c : cases) {
    const std::uint64_t block = c.flipped.front();
    const auto flip = [&c] {
      for (const std::uint64_t b : c.flipped) {
        c.data->raw_tamper(b * 4096 + 777, 0x10);
      }
    };
    flip();
    auto dev = Verity::open(c.data, c.hash, c.root);
    ASSERT_TRUE(dev.ok()) << "data tamper is invisible to open";
    const auto st = (*dev)->verify_all();
    ASSERT_FALSE(st.ok()) << "block " << block;
    EXPECT_EQ(st.error().code, "verity.block_mismatch");
    EXPECT_NE(st.error().to_string().find("block " + std::to_string(block) +
                                          " failed"),
              std::string::npos)
        << st.error().to_string();
    EXPECT_FALSE((*dev)->verify_all().ok()) << "a second sweep still fails";
    flip();  // restore for the next case
  }
}

// Only Verity::open makes a VerityDevice, so every device's tree was
// recomputed from its leaves and its root matched the expected root.
static_assert(!std::is_constructible_v<VerityDevice, std::shared_ptr<BlockDevice>,
                                       crypto::MerkleTree>);
static_assert(!std::is_default_constructible_v<VerityDevice::OpenKey>);

TEST_F(DmVerityTest, HashDeviceClaimingMoreLeavesThanLevelZeroFailsOpen) {
  // Rewrite the hash device so its header still claims the 16 data blocks
  // but its levels start at the real tree's level 1 (8 nodes). The inner
  // nodes recompute and the root matches the cmdline root, so only the
  // leaf-count check in deserialize keeps this device from opening.
  Bytes header(4096);
  ASSERT_TRUE(hash_dev_->read_block(0, header).ok());
  auto real =
      hash_dev_->read(4096, static_cast<std::size_t>(read_u64be(header, 0)));
  ASSERT_TRUE(real.ok());
  const std::size_t level0 = 8 + 16 * 32;
  Bytes forged;
  append_u64be(forged, 16);
  append_u64be(forged, read_u64be(*real, 8) - 1);
  forged.insert(forged.end(), real->begin() + 16 + level0, real->end());
  Bytes forged_header;
  append_u64be(forged_header, forged.size());
  forged_header.resize(4096, 0);
  ASSERT_TRUE(hash_dev_->write_block(0, forged_header).ok());
  ASSERT_TRUE(hash_dev_->write(4096, forged).ok());

  const auto r = Verity::open(data_dev_, hash_dev_, meta_.root_hash);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "verity.corrupt_hash_device");
}

TEST(DmVerity, FormatRootIsPinned) {
  // 300 blocks: one full 256-block sweep plus a 44-block tail, and an odd
  // node on the way up. The root is pinned as hex so a change to leaf or
  // inner hashing shows here.
  MemDisk data(4096, 300);
  MemDisk hash(4096, 16);
  for (std::uint64_t i = 0; i < data.block_count(); ++i) {
    ASSERT_TRUE(
        data.write_block(i, pattern_bytes(4096, static_cast<std::uint8_t>(i)))
            .ok());
  }
  auto meta = Verity::format(data, hash);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(to_hex(meta->root_hash.view()),
            "22deab7ebccbe9d17c8e6908dce15071542c9cd4d82db5049371b4efd36be50a");
}

TEST_F(DmVerityTest, FormatRejectsTooSmallHashDevice) {
  auto tiny_hash = std::make_shared<MemDisk>(4096, 1);
  EXPECT_FALSE(Verity::format(*data_dev_, *tiny_hash).ok());
}

TEST_F(DmVerityTest, BlockSizeMismatchRejected) {
  MemDisk small_blocks(512, 4);
  MemDisk hash(4096, 4);
  EXPECT_EQ(Verity::format(small_blocks, hash).error().code,
            "verity.block_size_mismatch");
}

// --------------------------------------------------------------- ImageFs

TEST(ImageFs, AddReadListRemove) {
  ImageFs fs;
  fs.add_file("/bin/server", pattern_bytes(100), 0755);
  fs.add_file("/etc/conf", to_bytes(std::string_view("key=value")));
  EXPECT_TRUE(fs.exists("/bin/server"));
  EXPECT_EQ(fs.file_count(), 2u);
  auto content = fs.read_file("/etc/conf");
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(to_string(*content), "key=value");
  fs.remove_file("/etc/conf");
  EXPECT_FALSE(fs.exists("/etc/conf"));
  EXPECT_FALSE(fs.read_file("/etc/conf").ok());
}

TEST(ImageFs, SerializationIsCanonical) {
  ImageFs a;
  a.add_file("/z", pattern_bytes(10));
  a.add_file("/a", pattern_bytes(20, 1));
  ImageFs b;
  b.add_file("/a", pattern_bytes(20, 1));  // insertion order differs
  b.add_file("/z", pattern_bytes(10));
  EXPECT_EQ(a.serialize(), b.serialize())
      << "file insertion order must not affect the image bits";
}

TEST(ImageFs, SerializeParseRoundTrip) {
  ImageFs fs;
  fs.add_file("/bin/app", pattern_bytes(10000), 0755);
  fs.add_file("/etc/nginx/nginx.conf", to_bytes(std::string_view("worker;")));
  fs.add_file("/empty", {});
  const Bytes image = fs.serialize();
  EXPECT_EQ(image.size() % 4096, 0u);
  auto parsed = ImageFs::parse(image);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->file_count(), 3u);
  EXPECT_EQ(*parsed->read_file("/bin/app"), *fs.read_file("/bin/app"));
  EXPECT_EQ(parsed->read_file("/empty")->size(), 0u);
}

TEST(ImageFs, SerializeIntoWritesEveryByteOfTheImage) {
  ImageFs fs;
  fs.add_file("/bin/app", pattern_bytes(10000), 0755);
  fs.add_file("/empty", {});
  fs.add_file("/etc/conf", to_bytes(std::string_view("key=value")));
  const Bytes image = fs.serialize();
  ASSERT_EQ(fs.serialized_size(), image.size());
  // The directory, 3 blocks of /bin/app, none for /empty, 1 of /etc/conf.
  EXPECT_EQ(image.size(), 5u * 4096);
  // A dirty buffer: padding and gaps must come out zero, not left as is.
  Bytes out(image.size(), 0xa5);
  ASSERT_TRUE(fs.serialize_into(out).ok());
  EXPECT_EQ(out, image);

  Bytes short_buf(image.size() - 4096);
  EXPECT_EQ(fs.serialize_into(short_buf).error().code, "imagefs.bad_buffer");
  EXPECT_EQ(ImageFs().serialized_size(), 4096u) << "an empty fs is one block";
}

TEST(ImageFs, ParseRejectsGarbage) {
  EXPECT_FALSE(ImageFs::parse(pattern_bytes(100)).ok());
  EXPECT_FALSE(ImageFs::parse({}).ok());
}

TEST(MountedFs, ReadsFilesThroughDevice) {
  ImageFs fs;
  fs.add_file("/data/big", pattern_bytes(9000, 3));
  fs.add_file("/data/small", to_bytes(std::string_view("tiny")));
  const Bytes image = fs.serialize();

  auto disk = std::make_shared<MemDisk>(4096, image.size() / 4096);
  ASSERT_TRUE(disk->write(0, image).ok());

  auto mounted = MountedFs::mount(disk);
  ASSERT_TRUE(mounted.ok());
  EXPECT_TRUE(mounted->exists("/data/big"));
  EXPECT_EQ(mounted->list().size(), 2u);
  auto big = mounted->read_file("/data/big");
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(*big, pattern_bytes(9000, 3));
  EXPECT_FALSE(mounted->read_file("/nope").ok());
}

TEST(MountedFs, WorksThroughVerityAndDetectsTamper) {
  ImageFs fs;
  fs.add_file("/bin/service", pattern_bytes(20000, 7), 0755);
  const Bytes image = fs.serialize();

  auto data_dev = std::make_shared<MemDisk>(4096, image.size() / 4096);
  ASSERT_TRUE(data_dev->write(0, image).ok());
  auto hash_dev = std::make_shared<MemDisk>(4096, 64);
  auto meta = Verity::format(*data_dev, *hash_dev);
  ASSERT_TRUE(meta.ok());

  auto verity = Verity::open(data_dev, hash_dev, meta->root_hash);
  ASSERT_TRUE(verity.ok());
  auto mounted = MountedFs::mount(*verity);
  ASSERT_TRUE(mounted.ok());
  auto content = mounted->read_file("/bin/service");
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, pattern_bytes(20000, 7));

  // Malicious host flips a bit in the file's data area: read now fails.
  const auto entry = mounted->directory().at("/bin/service");
  data_dev->raw_tamper(entry.offset + 5000, 0x10);
  EXPECT_FALSE(mounted->read_file("/bin/service").ok());
}

}  // namespace
}  // namespace revelio::storage
