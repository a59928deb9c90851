#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>
#include <vector>

#include "common/hex.hpp"
#include "crypto/aes.hpp"
#include "crypto/bigint.hpp"
#include "crypto/drbg.hpp"
#include "crypto/ec.hpp"
#include "crypto/ec_precomp.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/hmac.hpp"
#include "crypto/kdf.hpp"
#include "crypto/merkle.hpp"
#include "crypto/modes.hpp"
#include "crypto/sha2.hpp"
#include "window_edge_scalars.hpp"

namespace revelio::crypto {
namespace {

Bytes H(std::string_view hex) {
  auto v = from_hex(hex);
  EXPECT_TRUE(v.has_value()) << hex;
  return *v;
}

// ---------------------------------------------------------------- SHA-2

TEST(Sha256, Fips180Abc) {
  EXPECT_EQ(to_hex(sha256(to_bytes(std::string_view("abc"))).view()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(sha256({}).view()),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, TwoBlockMessage) {
  const auto msg = to_bytes(std::string_view(
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
  EXPECT_EQ(to_hex(sha256(msg).view()),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, StreamingMatchesOneShot) {
  const Bytes data = to_bytes(std::string_view(
      "The quick brown fox jumps over the lazy dog, repeatedly."));
  Sha256 h;
  // Feed in awkward chunk sizes crossing block boundaries.
  std::size_t off = 0;
  const std::size_t chunks[] = {1, 3, 17, 64, 5, 100};
  for (std::size_t c : chunks) {
    const std::size_t take = std::min(c, data.size() - off);
    h.update(ByteView(data.data() + off, take));
    off += take;
    if (off == data.size()) break;
  }
  EXPECT_EQ(to_hex(h.finish().view()), to_hex(sha256(data).view()));
}

TEST(Sha256, MillionA) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish().view()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// sha256_many against sha256() of each slice, on whichever path the host
// dispatches to: message counts around the 16-lane group (none, a lone
// remainder, one group, a group and a remainder, two groups), lengths of
// whole blocks (0 hashes the shared padding block alone) up to a 4 KiB
// verity block, a 100-byte length that always goes per message, and the
// messages read from a base one byte off alignment.
TEST(Sha256, ManyMatchesOneStream) {
  HmacDrbg drbg(to_bytes(std::string_view("sha256-many")));
  for (const std::size_t count : {0u, 1u, 15u, 16u, 17u, 32u, 33u}) {
    for (const std::size_t len : {0u, 64u, 100u, 128u, 4096u}) {
      for (const std::size_t skew : {0u, 1u}) {
        const Bytes buf = drbg.generate(skew + count * len);
        const ByteView msgs = ByteView(buf).subspan(skew);
        std::vector<Digest32> out(count);
        sha256_many(msgs, len, out);
        for (std::size_t i = 0; i < count; ++i) {
          EXPECT_EQ(out[i], sha256(msgs.subspan(i * len, len)))
              << count << " x " << len << " skew " << skew << " msg " << i;
        }
      }
    }
  }
}

TEST(Sha384, Fips180Abc) {
  EXPECT_EQ(to_hex(sha384(to_bytes(std::string_view("abc"))).view()),
            "cb00753f45a35e8bb5a03d699ac65007272c32ab0eded1631a8b605a43ff5bed"
            "8086072ba1e7cc2358baeca134c825a7");
}

TEST(Sha512, Fips180Abc) {
  EXPECT_EQ(to_hex(sha512(to_bytes(std::string_view("abc"))).view()),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, EmptyString) {
  EXPECT_EQ(to_hex(sha512({}).view()),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

// Messages of 'a' * n around the padding boundaries: the last message byte
// lands just before, on and just after the length field and the block end.
// Digests from Python's hashlib.
struct PaddingKat {
  std::size_t n;
  const char* hex;
};

TEST(Sha256, PaddingBoundaryKnownAnswers) {
  const PaddingKat kats[] = {
      {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {65, "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0"},
      {119, "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
      {120, "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
  };
  for (const auto& kat : kats) {
    EXPECT_EQ(to_hex(sha256(Bytes(kat.n, 'a')).view()), kat.hex) << kat.n;
  }
}

TEST(Sha384, PaddingBoundaryKnownAnswers) {
  const PaddingKat kats[] = {
      {111,
       "3c37955051cb5c3026f94d551d5b5e2ac38d572ae4e07172085fed81f8466b8f"
       "90dc23a8ffcdea0b8d8e58e8fdacc80a"},
      {112,
       "187d4e07cb306103c69967bf544d0dfbe9042577599c73c330abc0cb64c61236"
       "d5ed565ee19119d8c31779a38f791fcd"},
      {127,
       "9bd06b1763c2cf7aef40e795dc65bc96d59c41b537f3ad72ebdefd485476b571"
       "7c1aeb37c327fe9c1831b12b9efd08ae"},
      {128,
       "edb12730a366098b3b2beac75a3bef1b0969b15c48e2163c23d96994f8d1bef7"
       "60c7e27f3c464d3829f56c0d53808b0b"},
      {129,
       "39b6f5a7b0e781dbc419f72e49b30eaac10f2c98c4403bc610da31067fd1b48f"
       "324138c8615d2b496d08d73d5e865326"},
      {239,
       "e247c35f4bc1aa38026f8880c8c97305545d00d3f859e00c57d1c1f0a176b3c6"
       "b749c4eb081f08bd0fba500969cd056a"},
      {240,
       "4d86957beab348a29180f02d02564ac1d32f5b4c217ece2b038f7c184f0cafc8"
       "c8e438eb82aa03796170e0a7ce8c0675"},
  };
  for (const auto& kat : kats) {
    EXPECT_EQ(to_hex(sha384(Bytes(kat.n, 'a')).view()), kat.hex) << kat.n;
  }
}

TEST(Sha512, PaddingBoundaryKnownAnswers) {
  const PaddingKat kats[] = {
      {111,
       "fa9121c7b32b9e01733d034cfc78cbf67f926c7ed83e82200ef8681819692176"
       "0b4beff48404df811b953828274461673c68d04e297b0eb7b2b4d60fc6b566a2"},
      {112,
       "c01d080efd492776a1c43bd23dd99d0a2e626d481e16782e75d54c2503b5dc32"
       "bd05f0f1ba33e568b88fd2d970929b719ecbb152f58f130a407c8830604b70ca"},
      {127,
       "828613968b501dc00a97e08c73b118aa8876c26b8aac93df128502ab360f91ba"
       "b50a51e088769a5c1eff4782ace147dce3642554199876374291f5d921629502"},
      {128,
       "b73d1929aa615934e61a871596b3f3b33359f42b8175602e89f7e06e5f658a24"
       "3667807ed300314b95cacdd579f3e33abdfbe351909519a846d465c59582f321"},
      {129,
       "4f681e0bd53cda4b5a2041cc8a06f2eabde44fb16c951fbd5b87702f07aeab61"
       "1565b19c47fde30587177ebb852e3971bbd8d3fd30da18d71037dfbd98420429"},
      {239,
       "52c853cb8d907f3d4d6b889beb027985d7c273486d75f8baf26f80d24e90c74c"
       "6c3de3e22131582380a7d14d43f2941a31385439cd6ddc469f628015e50bf286"},
      {240,
       "4c296d90c61052a62ffb1dd196f1b7b09373b1f93e71836baebf89690546b759"
       "5684dbe9467a8e484fa0d1094272b4344a7c24f5fee8daedeb0bf549c985ab5f"},
  };
  for (const auto& kat : kats) {
    EXPECT_EQ(to_hex(sha512(Bytes(kat.n, 'a')).view()), kat.hex) << kat.n;
  }
}

// ---------------------------------------------------------------- HMAC

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const auto mac = hmac_sha256(key, to_bytes(std::string_view("Hi There")));
  EXPECT_EQ(to_hex(mac.view()),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const auto mac =
      hmac_sha256(to_bytes(std::string_view("Jefe")),
                  to_bytes(std::string_view("what do ya want for nothing?")));
  EXPECT_EQ(to_hex(mac.view()),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data).view()),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  const Bytes key(131, 0xaa);
  const auto mac = hmac_sha256(
      key, to_bytes(std::string_view("Test Using Larger Than Block-Size Key "
                                     "- Hash Key First")));
  EXPECT_EQ(to_hex(mac.view()),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, Sha384Variant) {
  // RFC 4231 case 1 for HMAC-SHA-384.
  const Bytes key(20, 0x0b);
  const auto mac = hmac_sha384(key, to_bytes(std::string_view("Hi There")));
  EXPECT_EQ(to_hex(mac.view()),
            "afd03944d84895626b0825f4ab46907f15f9dadbe4101ec682aa034c7cebc59c"
            "faea9ea9076ede7f4af152e8b2fa9cb6");
}

// ---------------------------------------------------------------- KDFs

TEST(Hkdf, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = H("000102030405060708090a0b0c");
  const Bytes info = H("f0f1f2f3f4f5f6f7f8f9");
  const Bytes okm = hkdf_sha256(ikm, salt, info, 42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, Rfc5869Case3EmptySaltInfo) {
  const Bytes ikm(22, 0x0b);
  const Bytes okm = hkdf_sha256(ikm, {}, {}, 42);
  EXPECT_EQ(to_hex(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(Pbkdf2, Rfc7914Vector1) {
  const Bytes dk = pbkdf2_sha256(to_bytes(std::string_view("password")),
                                 to_bytes(std::string_view("salt")), 1, 32);
  EXPECT_EQ(to_hex(dk),
            "120fb6cffcf8b32c43e7225256c4f837a86548c92ccc35480805987cb70be17b");
}

TEST(Pbkdf2, Rfc7914Vector2) {
  const Bytes dk = pbkdf2_sha256(to_bytes(std::string_view("password")),
                                 to_bytes(std::string_view("salt")), 2, 32);
  EXPECT_EQ(to_hex(dk),
            "ae4d0c95af6b46d32d0adff928f06dd02a303f8ef3c251dfd6e2d85a95474c43");
}

TEST(Pbkdf2, MultiBlockOutput) {
  // 40-byte output forces two PRF blocks.
  const Bytes dk =
      pbkdf2_sha256(to_bytes(std::string_view("passwordPASSWORDpassword")),
                    to_bytes(std::string_view("saltSALTsaltSALTsaltSALTsaltSAL"
                                              "Tsalt")),
                    4096, 40);
  EXPECT_EQ(to_hex(dk),
            "348c89dbcbd32b2f32d814b8116e84cf2b17347ebc1800181c4e2a1fb8dd53e1"
            "c635518c7dac47e9");
}

// ---------------------------------------------------------------- DRBG

TEST(HmacDrbg, DeterministicForSameSeed) {
  HmacDrbg a(to_bytes(std::string_view("seed material")));
  HmacDrbg b(to_bytes(std::string_view("seed material")));
  EXPECT_EQ(a.generate(48), b.generate(48));
}

TEST(HmacDrbg, DifferentSeedsDiverge) {
  HmacDrbg a(to_bytes(std::string_view("seed-1")));
  HmacDrbg b(to_bytes(std::string_view("seed-2")));
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(HmacDrbg, PersonalizationSeparatesStreams) {
  HmacDrbg a(to_bytes(std::string_view("seed")),
             to_bytes(std::string_view("role-a")));
  HmacDrbg b(to_bytes(std::string_view("seed")),
             to_bytes(std::string_view("role-b")));
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(HmacDrbg, SequentialCallsDiffer) {
  HmacDrbg drbg(to_bytes(std::string_view("seed")));
  EXPECT_NE(drbg.generate(32), drbg.generate(32));
}

TEST(HmacDrbg, ReseedChangesOutput) {
  HmacDrbg a(to_bytes(std::string_view("seed")));
  HmacDrbg b(to_bytes(std::string_view("seed")));
  b.reseed(to_bytes(std::string_view("extra entropy")));
  EXPECT_NE(a.generate(32), b.generate(32));
}

// ---------------------------------------------------------------- AES

TEST(Aes, Fips197Aes128) {
  const Bytes key = H("000102030405060708090a0b0c0d0e0f");
  const Bytes pt = H("00112233445566778899aabbccddeeff");
  Aes aes(key);
  std::uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(to_hex(ByteView(ct, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");
  std::uint8_t back[16];
  aes.decrypt_block(ct, back);
  EXPECT_EQ(to_hex(ByteView(back, 16)), to_hex(pt));
}

TEST(Aes, Fips197Aes192) {
  const Bytes key = H("000102030405060708090a0b0c0d0e0f1011121314151617");
  const Bytes pt = H("00112233445566778899aabbccddeeff");
  Aes aes(key);
  std::uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(to_hex(ByteView(ct, 16)), "dda97ca4864cdfe06eaf70a0ec0d7191");
}

TEST(Aes, Fips197Aes256) {
  const Bytes key =
      H("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Bytes pt = H("00112233445566778899aabbccddeeff");
  Aes aes(key);
  std::uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(to_hex(ByteView(ct, 16)), "8ea2b7ca516745bfeafc49904b496089");
  std::uint8_t back[16];
  aes.decrypt_block(ct, back);
  EXPECT_EQ(to_hex(ByteView(back, 16)), to_hex(pt));
}

// ---------------------------------------------------------------- Modes

TEST(AesXts, RoundTripAndSectorSeparation) {
  HmacDrbg drbg(to_bytes(std::string_view("xts-key")));
  const Bytes key = drbg.generate(64);
  AesXts xts(key);

  Bytes sector(512);
  for (std::size_t i = 0; i < sector.size(); ++i) {
    sector[i] = static_cast<std::uint8_t>(i);
  }
  Bytes a = sector;
  Bytes b = sector;
  xts.encrypt_sector(0, a);
  xts.encrypt_sector(1, b);
  EXPECT_NE(a, b) << "same plaintext must differ across sectors";
  EXPECT_NE(a, sector);

  xts.decrypt_sector(0, a);
  xts.decrypt_sector(1, b);
  EXPECT_EQ(a, sector);
  EXPECT_EQ(b, sector);
}

TEST(AesXts, WrongSectorFailsToDecrypt) {
  HmacDrbg drbg(to_bytes(std::string_view("xts-key-2")));
  AesXts xts(drbg.generate(64));
  Bytes sector(64, 0x5a);
  const Bytes original = sector;
  xts.encrypt_sector(7, sector);
  xts.decrypt_sector(8, sector);
  EXPECT_NE(sector, original);
}

// IEEE 1619-2007 XTS-AES-128 test vectors (32-byte key = key1 || key2).
// These pin the exact cipher + tweak arithmetic, so they hold for both the
// AES-NI and the scalar core (run with REVELIO_NO_ISA=1 for the latter).
TEST(AesXts, Ieee1619Vector1) {
  const Bytes key(32, 0x00);
  AesXts xts(key);
  Bytes data(32, 0x00);
  xts.encrypt_sector(0, data);
  EXPECT_EQ(to_hex(ByteView(data)),
            "917cf69ebd68b2ec9b9fe9a3eadda692cd43d2f59598ed858c02c2652fbf922e");
  xts.decrypt_sector(0, data);
  EXPECT_EQ(data, Bytes(32, 0x00));
}

TEST(AesXts, Ieee1619Vector2) {
  Bytes key(32, 0x11);
  std::fill(key.begin() + 16, key.end(), 0x22);
  AesXts xts(key);
  Bytes data(32, 0x44);
  xts.encrypt_sector(0x3333333333ULL, data);
  EXPECT_EQ(to_hex(ByteView(data)),
            "c454185e6a16936e39334038acef838bfb186fff7480adc4289382ecd6d394f0");
  xts.decrypt_sector(0x3333333333ULL, data);
  EXPECT_EQ(data, Bytes(32, 0x44));
}

TEST(AesXts, BlocksWithinSectorDiffer) {
  HmacDrbg drbg(to_bytes(std::string_view("xts-key-3")));
  AesXts xts(drbg.generate(64));
  Bytes sector(48, 0x00);  // three identical all-zero blocks
  xts.encrypt_sector(3, sector);
  EXPECT_FALSE(std::equal(sector.begin(), sector.begin() + 16,
                          sector.begin() + 16));
  EXPECT_FALSE(std::equal(sector.begin() + 16, sector.begin() + 32,
                          sector.begin() + 32));
}

TEST(AesCtr, KeystreamIsInvolution) {
  HmacDrbg drbg(to_bytes(std::string_view("ctr-key")));
  const Aes cipher(drbg.generate(32));
  const FixedBytes<16> iv = FixedBytes<16>::from(drbg.generate(16));
  Bytes data = to_bytes(std::string_view("counter mode payload over a few "
                                         "blocks of text to exercise wrap"));
  const Bytes original = data;
  aes_ctr_xor(cipher, iv, data);
  EXPECT_NE(data, original);
  aes_ctr_xor(cipher, iv, data);
  EXPECT_EQ(data, original);
}

// The multi-block calls against single-block calls, for every key size,
// run lengths around the 8-block group width, out of place and in place.
TEST(Aes, MultiBlockCallsMatchSingleBlocks) {
  HmacDrbg drbg(to_bytes(std::string_view("aes-multi")));
  for (const std::size_t key_size : {16u, 24u, 32u}) {
    const Aes aes(drbg.generate(key_size));
    for (std::size_t n = 1; n <= 17; ++n) {
      const Bytes in = drbg.generate(16 * n);
      Bytes enc_expect(in.size()), dec_expect(in.size());
      for (std::size_t i = 0; i < n; ++i) {
        aes.encrypt_block(in.data() + 16 * i, enc_expect.data() + 16 * i);
        aes.decrypt_block(in.data() + 16 * i, dec_expect.data() + 16 * i);
      }
      Bytes out(in.size());
      aes.encrypt_blocks(in.data(), out.data(), n);
      EXPECT_EQ(out, enc_expect) << key_size << " " << n;
      aes.decrypt_blocks(in.data(), out.data(), n);
      EXPECT_EQ(out, dec_expect) << key_size << " " << n;
      Bytes inplace = in;
      aes.encrypt_blocks(inplace.data(), inplace.data(), n);
      EXPECT_EQ(inplace, enc_expect) << key_size << " " << n;
      aes.decrypt_blocks(inplace.data(), inplace.data(), n);
      EXPECT_EQ(inplace, in) << key_size << " " << n;
    }
  }
}

// Full 4 KiB sectors of XTS-AES-256 (key = bytes 0..63, data byte i =
// (7i + 3) mod 256), pinned by the SHA-256 of the ciphertext. The digests
// come from Python `cryptography`'s modes.XTS with the 16-byte
// little-endian sector number as the tweak:
//   Cipher(algorithms.AES(key), modes.XTS(s.to_bytes(16, "little")))
TEST(AesXts, FullSectorKnownAnswers) {
  Bytes key(64);
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i);
  }
  Bytes plain(4096);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    plain[i] = static_cast<std::uint8_t>((7 * i + 3) % 256);
  }
  const AesXts xts(key);
  const std::pair<std::uint64_t, std::string_view> cases[] = {
      {0, "96b1135aa7d85b8be88ae0c31c00230fd19de4b815f406a7e55a27a4582454f4"},
      {5, "37e155ee6472024f13e6a98d5beb360b7874f2005512f42872c565e0ad4728c6"},
      {0x3333333333ULL,
       "dfe531d7dab55263cb710853580725bfae5185bd8b43597213ad96681d17c6aa"},
  };
  for (const auto& [sector, digest] : cases) {
    Bytes data = plain;
    xts.encrypt_sector(sector, data);
    EXPECT_EQ(to_hex(sha256(data).view()), digest) << sector;
    xts.decrypt_sector(sector, data);
    EXPECT_EQ(data, plain) << sector;
  }
}

/// XTS from first principles: single-block cipher calls and a byte-serial
/// tweak doubling (shift left across the little-endian bytes, fold the
/// carry out of bit 127 back in as 0x87).
Bytes xts_reference(ByteView key, std::uint64_t sector, ByteView data,
                    bool encrypt) {
  const Aes data_cipher(key.subspan(0, key.size() / 2));
  const Aes tweak_cipher(key.subspan(key.size() / 2));
  std::uint8_t t[16] = {};
  for (int i = 0; i < 8; ++i) t[i] = static_cast<std::uint8_t>(sector >> (8 * i));
  tweak_cipher.encrypt_block(t, t);
  Bytes out = to_bytes(data);
  for (std::size_t off = 0; off < out.size(); off += 16) {
    std::uint8_t b[16];
    for (int i = 0; i < 16; ++i) b[i] = out[off + i] ^ t[i];
    if (encrypt) {
      data_cipher.encrypt_block(b, b);
    } else {
      data_cipher.decrypt_block(b, b);
    }
    for (int i = 0; i < 16; ++i) out[off + i] = b[i] ^ t[i];
    std::uint8_t carry = 0;
    for (int i = 0; i < 16; ++i) {
      const std::uint8_t next = t[i] >> 7;
      t[i] = static_cast<std::uint8_t>((t[i] << 1) | carry);
      carry = next;
    }
    if (carry) t[0] ^= 0x87;
  }
  return out;
}

TEST(AesXts, MatchesSingleBlockReferenceAtEveryRunLength) {
  HmacDrbg drbg(to_bytes(std::string_view("xts-differential")));
  std::vector<std::size_t> lengths;
  for (std::size_t n = 1; n <= 17; ++n) lengths.push_back(n);
  lengths.insert(lengths.end(), {255, 256, 257});
  for (const std::size_t key_size : {32u, 64u}) {
    const Bytes key = drbg.generate(key_size);
    const AesXts xts(key);
    for (const std::size_t n : lengths) {
      const std::uint64_t sector = 0xfedcba9876543210ULL + n;
      const Bytes data = drbg.generate(16 * n);
      Bytes enc = data;
      xts.encrypt_sector(sector, enc);
      EXPECT_EQ(enc, xts_reference(key, sector, data, true))
          << key_size << " " << n;
      Bytes dec = data;
      xts.decrypt_sector(sector, dec);
      EXPECT_EQ(dec, xts_reference(key, sector, data, false))
          << key_size << " " << n;
    }
  }
}

/// CTR from first principles: one single-block call per 16-byte counter,
/// big-endian increment across all 16 bytes.
Bytes ctr_reference(const Aes& cipher, ByteView iv, ByteView data) {
  std::uint8_t counter[16];
  std::memcpy(counter, iv.data(), 16);
  Bytes out = to_bytes(data);
  for (std::size_t off = 0; off < out.size(); off += 16) {
    std::uint8_t ks[16];
    cipher.encrypt_block(counter, ks);
    for (std::size_t i = 0; i < 16 && off + i < out.size(); ++i) {
      out[off + i] ^= ks[i];
    }
    for (int i = 15; i >= 0; --i) {
      if (++counter[i] != 0) break;
    }
  }
  return out;
}

TEST(AesCtr, MatchesSingleBlockReferenceIncludingFullCounterWrap) {
  HmacDrbg drbg(to_bytes(std::string_view("ctr-differential")));
  const Aes cipher(drbg.generate(32));
  const Bytes ivs[] = {drbg.generate(16), Bytes(16, 0xff),
                       H("00000000000000000000000000fffffe")};
  for (const Bytes& iv : ivs) {
    for (const std::size_t len : {0u, 1u, 15u, 16u, 17u, 129u, 4101u}) {
      const Bytes data = drbg.generate(len);
      Bytes got = data;
      aes_ctr_xor(cipher, FixedBytes<16>::from(iv), got);
      EXPECT_EQ(got, ctr_reference(cipher, iv, data))
          << to_hex(iv) << " " << len;
    }
  }
}

TEST(AeadCtrHmac, SealOpenRoundTrip) {
  HmacDrbg drbg(to_bytes(std::string_view("aead-key")));
  AeadCtrHmac aead(drbg.generate(64));
  const Bytes nonce = drbg.generate(16);
  const Bytes aad = to_bytes(std::string_view("header"));
  const Bytes pt = to_bytes(std::string_view("secret payload"));
  const Bytes sealed = aead.seal(nonce, aad, pt);
  EXPECT_EQ(sealed.size(), pt.size() + AeadCtrHmac::kOverhead);
  auto opened = aead.open(aad, sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, pt);
}

TEST(AeadCtrHmac, TamperedCiphertextRejected) {
  HmacDrbg drbg(to_bytes(std::string_view("aead-key-2")));
  AeadCtrHmac aead(drbg.generate(64));
  Bytes sealed = aead.seal(drbg.generate(16), {},
                           to_bytes(std::string_view("payload")));
  sealed[AeadCtrHmac::kNonceSize] ^= 0x01;
  const auto r = aead.open({}, sealed);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "aead.bad_tag");
}

TEST(AeadCtrHmac, WrongAadRejected) {
  HmacDrbg drbg(to_bytes(std::string_view("aead-key-3")));
  AeadCtrHmac aead(drbg.generate(64));
  const Bytes sealed = aead.seal(drbg.generate(16),
                                 to_bytes(std::string_view("aad-1")),
                                 to_bytes(std::string_view("payload")));
  EXPECT_FALSE(aead.open(to_bytes(std::string_view("aad-2")), sealed).ok());
}

TEST(AeadCtrHmac, TruncatedBlobRejected) {
  HmacDrbg drbg(to_bytes(std::string_view("aead-key-4")));
  AeadCtrHmac aead(drbg.generate(64));
  const Bytes tiny(10, 0);
  EXPECT_EQ(aead.open({}, tiny).error().code, "aead.truncated");
}

// ---------------------------------------------------------------- BigInt

TEST(U384, ByteRoundTrip) {
  const Bytes raw = H("0102030405060708090a0b0c0d0e0f10");
  const U384 v = U384::from_bytes_be(raw);
  EXPECT_EQ(to_hex(v.to_bytes_be(16)), to_hex(raw));
  EXPECT_EQ(v.bit_length(), 121u);  // leading byte 0x01
}

TEST(U384, CompareAndZero) {
  EXPECT_TRUE(U384::zero().is_zero());
  const U384 one = U384::from_u64(1);
  const U384 two = U384::from_u64(2);
  EXPECT_LT(one.cmp(two), 0);
  EXPECT_GT(two.cmp(one), 0);
  EXPECT_EQ(one.cmp(one), 0);
}

TEST(U384, AddSubCarryChain) {
  // (2^384 - 1) + 1 overflows to zero with carry.
  U384 max;
  max.limbs.fill(~0ULL);
  U384 r;
  const std::uint64_t carry = add_with_carry(r, max, U384::from_u64(1));
  EXPECT_EQ(carry, 1u);
  EXPECT_TRUE(r.is_zero());

  const std::uint64_t borrow =
      sub_with_borrow(r, U384::zero(), U384::from_u64(1));
  EXPECT_EQ(borrow, 1u);
  EXPECT_EQ(r.limbs, max.limbs);
}

TEST(MontCtx, MulMatchesSmallModulus) {
  // Modulus 101 (prime): verify Montgomery mul against plain arithmetic.
  const MontCtx ctx(U384::from_u64(101));
  for (std::uint64_t a = 0; a < 101; a += 7) {
    for (std::uint64_t b = 0; b < 101; b += 11) {
      const U384 am = ctx.to_mont(U384::from_u64(a));
      const U384 bm = ctx.to_mont(U384::from_u64(b));
      const U384 product = ctx.from_mont(ctx.mul(am, bm));
      EXPECT_EQ(product.limbs[0], (a * b) % 101);
    }
  }
}

TEST(MontCtx, PowAndFermatInverse) {
  const MontCtx ctx(U384::from_u64(1000003));  // prime
  const U384 a = ctx.to_mont(U384::from_u64(123456));
  const U384 inv = ctx.inv(a);
  const U384 product = ctx.from_mont(ctx.mul(a, inv));
  EXPECT_EQ(product.limbs[0], 1u);
}

TEST(MontCtx, ReduceLargeValue) {
  const MontCtx ctx(U384::from_u64(97));
  U384 big;
  big.limbs.fill(~0ULL);  // 2^384 - 1
  const U384 r = ctx.reduce(big);
  // 2^384 mod 97: verify via repeated squaring in plain arithmetic.
  std::uint64_t expect = 1;
  for (int i = 0; i < 384; ++i) expect = (expect * 2) % 97;
  // reduce(2^384 - 1) == (2^384 - 1) mod 97 == expect - 1 mod 97
  EXPECT_EQ(r.limbs[0], (expect + 97 - 1) % 97);
}

TEST(MontCtx, AddSubModular) {
  const MontCtx ctx(U384::from_u64(13));
  const U384 a = U384::from_u64(9);
  const U384 b = U384::from_u64(7);
  EXPECT_EQ(ctx.add(a, b).limbs[0], 3u);   // 16 mod 13
  EXPECT_EQ(ctx.sub(b, a).limbs[0], 11u);  // -2 mod 13
}

// ------------------------------------------- Montgomery width (K = 4 / 6)

// The four curve contexts: P-256's run on 4 limbs, P-384's on 6.
struct WidthCase {
  const char* name;
  const MontCtx& ctx;
  std::size_t limbs;
};

std::vector<WidthCase> width_cases() {
  return {{"P-256 p", p256().field(), 4},
          {"P-256 n", p256().scalar_field(), 4},
          {"P-384 p", p384().field(), 6},
          {"P-384 n", p384().scalar_field(), 6}};
}

// Plain-domain references built only from MontCtx::add, so they share no
// code with the multiplier or the wide-input fold.
U384 ref_reduce(const MontCtx& ctx, const U384& x) {
  U384 acc;
  for (std::size_t i = 384; i-- > 0;) {
    acc = ctx.add(acc, acc);
    if (x.bit(i)) acc = ctx.add(acc, U384::from_u64(1));
  }
  return acc;
}

U384 ref_mulmod(const MontCtx& ctx, const U384& a, const U384& b) {
  U384 acc;
  for (std::size_t i = b.bit_length(); i-- > 0;) {
    acc = ctx.add(acc, acc);
    if (b.bit(i)) acc = ctx.add(acc, a);
  }
  return acc;
}

void expect_width(const WidthCase& c, const U384& v) {
  for (std::size_t i = c.limbs; i < U384::kLimbs; ++i) {
    EXPECT_EQ(v.limbs[i], 0u) << c.name << " limb " << i;
  }
}

U384 random_below(HmacDrbg& drbg, const U384& m) {
  U384 v = U384::from_bytes_be(drbg.generate((m.bit_length() + 7) / 8));
  // Each modulus is above half its byte width, so one subtraction suffices.
  if (!(v < m)) sub_with_borrow(v, v, m);
  return v;
}

TEST(MontWidth, CurveContextsPickTheirLimbCount) {
  for (const auto& c : width_cases()) {
    // one() is R mod m with R = 2^(64K): (R - 1) has K limbs of ones.
    U384 r_minus_1;
    for (std::size_t i = 0; i < c.limbs; ++i) r_minus_1.limbs[i] = ~0ULL;
    EXPECT_EQ(c.ctx.one(),
              c.ctx.add(ref_reduce(c.ctx, r_minus_1), U384::from_u64(1)))
        << c.name;
    expect_width(c, c.ctx.one());
    // one() * one() == one() * R: from_mont(one()) is 1.
    EXPECT_EQ(c.ctx.from_mont(c.ctx.one()), U384::from_u64(1)) << c.name;
  }
}

TEST(MontWidth, MulMatchesShiftAndAddReference) {
  HmacDrbg drbg(to_bytes(std::string_view("mont-width")));
  for (const auto& c : width_cases()) {
    const U384& m = c.ctx.modulus();
    U384 m_minus_1;
    sub_with_borrow(m_minus_1, m, U384::from_u64(1));
    std::vector<U384> operands = {U384::zero(), U384::from_u64(1), m_minus_1,
                                  U384::from_u64(2)};
    for (int i = 0; i < 12; ++i) operands.push_back(random_below(drbg, m));
    for (const U384& a : operands) {
      for (const U384& b : operands) {
        const U384 want = ref_mulmod(c.ctx, a, b);
        const U384 got =
            c.ctx.from_mont(c.ctx.mul(c.ctx.to_mont(a), c.ctx.to_mont(b)));
        EXPECT_EQ(got, want) << c.name;
        // Operands taken as Montgomery forms directly: mul(a, b) * R == a * b.
        const U384 direct = c.ctx.mul(a, b);
        EXPECT_EQ(ref_mulmod(c.ctx, direct, c.ctx.one()), want) << c.name;
        expect_width(c, got);
        expect_width(c, direct);
      }
    }
  }
}

TEST(MontWidth, CarryLimbProductsReduceCorrectly) {
  // Montgomery operands whose CIOS sum (a*b + q*m) / R reaches 2^(64K), so
  // the final subtraction has to see the carry limb t[K]. Found offline by
  // evaluating that sum exactly for R = 2^256 (P-256) and 2^384 (P-384).
  struct Pair {
    const MontCtx& ctx;
    std::size_t limbs;
    const char* a;
    const char* b;
  };
  const Pair pairs[] = {
      {p256().field(), 4,
       "7f15052434b9b5df9e7769b10f4205b4907a70c31012f037b64ce4228c38fb29",
       "ec66a78795e761d17731af10506bf2efc6f877186d76b07e881ed162ae2eb154"},
      {p256().scalar_field(), 4,
       "81b0d3c2dc575e53bcec1f5fdf618e38158d41100f59714f3a6a66787e9fa851",
       "997a8f42ce9697d6fc9d274b2697ae8aad138875cb0d9fa65e3aa09b6fc6808d"},
      {p384().field(), 6,
       "e4811b8cdd3869cafda9e0d0199b91b7180067a3edfaa78f0da149ccee12f797"
       "a4007eaab035ad1836719cb4a9da75da",
       "f87aea615584a223546cf8679847574905828a257cb1f38ac0a7f0838eb8e15a"
       "adc3e0d7d1d387622be37fbe14fb86db"},
      {p384().scalar_field(), 6,
       "e3b93c874f301f23c9af688e34527914e2318291331b4ae4af8ed2c54c4375d9"
       "48b89ce48bf03bd8676a68d9589b63f6",
       "b68e448815fbc1c1aecb6f00f53c241155904c95b97d5b496d612991da0ea990"
       "4b057ff1063326606b0a8d0944a37ca0"},
  };
  for (const Pair& p : pairs) {
    const WidthCase c{"carry", p.ctx, p.limbs};
    const U384 a = U384::from_hex(p.a);
    const U384 b = U384::from_hex(p.b);
    const U384 product = p.ctx.mul(a, b);
    EXPECT_TRUE(product < p.ctx.modulus());
    EXPECT_EQ(ref_mulmod(p.ctx, product, p.ctx.one()),
              ref_mulmod(p.ctx, a, b));
    expect_width(c, product);
  }
}

TEST(MontWidth, WideInputsFoldToThePlainResidue) {
  U384 all_ones;
  all_ones.limbs.fill(~0ULL);  // 2^384 - 1
  // n * 2^128 + 5, with n = P-256's group order: fills limbs 2..5.
  const U384& n = p256().params().n;
  U384 n_shifted = U384::from_u64(5);
  for (std::size_t i = 0; i + 2 < U384::kLimbs; ++i) {
    n_shifted.limbs[i + 2] = n.limbs[i];
  }
  HmacDrbg drbg(to_bytes(std::string_view("mont-wide")));
  for (const auto& c : width_cases()) {
    std::vector<U384> inputs = {all_ones, n_shifted};
    for (int i = 0; i < 8; ++i) {
      inputs.push_back(U384::from_bytes_be(drbg.generate(48)));
    }
    for (const U384& x : inputs) {
      const U384 residue = ref_reduce(c.ctx, x);
      EXPECT_EQ(c.ctx.reduce(x), residue) << c.name;
      const U384 mont = c.ctx.to_mont(x);
      EXPECT_EQ(mont, ref_mulmod(c.ctx, residue, c.ctx.one())) << c.name;
      expect_width(c, mont);
    }
  }
  EXPECT_EQ(p256().scalar_field().reduce(n_shifted), U384::from_u64(5));
}

TEST(MontWidth, WindowedPowMatchesBitwiseReference) {
  HmacDrbg drbg(to_bytes(std::string_view("mont-pow")));
  for (const auto& c : width_cases()) {
    const U384 a = c.ctx.to_mont(random_below(drbg, c.ctx.modulus()));
    std::vector<U384> exponents = {U384::zero(), U384::from_u64(1),
                                   U384::from_u64(15), U384::from_u64(16),
                                   U384::from_u64(0x10001)};
    for (int i = 0; i < 3; ++i) {
      exponents.push_back(U384::from_bytes_be(drbg.generate(48)));
    }
    for (const U384& e : exponents) {
      U384 want = c.ctx.one();
      for (std::size_t i = e.bit_length(); i-- > 0;) {
        want = c.ctx.mul(want, want);
        if (e.bit(i)) want = c.ctx.mul(want, a);
      }
      EXPECT_EQ(c.ctx.pow(a, e), want) << c.name;
    }
    EXPECT_EQ(c.ctx.from_mont(c.ctx.mul(a, c.ctx.inv(a))), U384::from_u64(1))
        << c.name;
    EXPECT_TRUE(c.ctx.inv(U384::zero()).is_zero()) << c.name;
  }
}

// Edge operands for the product/reduction pair: 0, 1, m-1, m-2, the
// Montgomery forms of 2^256 - 1 and of a 48-byte value, and random values.
std::vector<U384> edge_operands(const MontCtx& ctx, HmacDrbg& drbg) {
  const U384& m = ctx.modulus();
  U384 m_minus_1, m_minus_2;
  sub_with_borrow(m_minus_1, m, U384::from_u64(1));
  sub_with_borrow(m_minus_2, m, U384::from_u64(2));
  U384 ones_256;
  for (std::size_t i = 0; i < 4; ++i) ones_256.limbs[i] = ~0ULL;
  const U384 wide = U384::from_bytes_be(drbg.generate(48));
  std::vector<U384> operands = {U384::zero(),          U384::from_u64(1),
                                m_minus_1,             m_minus_2,
                                ctx.to_mont(ones_256), ctx.to_mont(wide)};
  for (int i = 0; i < 8; ++i) operands.push_back(random_below(drbg, m));
  return operands;
}

TEST(MontWidth, SqrAndP256ReductionMatchReference) {
  HmacDrbg drbg(to_bytes(std::string_view("mont-sqr")));
  for (const auto& c : width_cases()) {
    const std::vector<U384> operands = edge_operands(c.ctx, drbg);
    for (const U384& a : operands) {
      const U384 sq = c.ctx.sqr(a);
      EXPECT_EQ(sq, c.ctx.mul(a, a)) << c.name;
      EXPECT_EQ(ref_mulmod(c.ctx, sq, c.ctx.one()), ref_mulmod(c.ctx, a, a))
          << c.name;
      expect_width(c, sq);
      for (const U384& b : operands) {
        // P-256's p runs the special-form reduction; the others run the
        // generic one, so this also pins the two paths to each other.
        const U384 product = c.ctx.mul(a, b);
        EXPECT_EQ(product, mont_mul_generic(c.ctx, a, b)) << c.name;
        EXPECT_EQ(ref_mulmod(c.ctx, product, c.ctx.one()),
                  ref_mulmod(c.ctx, a, b))
            << c.name;
      }
    }
  }
}

TEST(MontWidth, SquaresThatSetTheTopCarryReduceCorrectly) {
  // Operands a < m whose reduction sum (a^2 + q*m) / R reaches 2^(64K), so
  // the final subtraction has to see the deferred top carry. Found offline
  // by evaluating that sum exactly for each modulus.
  const std::pair<const MontCtx*, const char*> cases[] = {
      {&p256().field(),
       "f3a160712456de76aaadd6b855c6b62bd09e04924d52bc614bedce030297c5e5"},
      {&p256().scalar_field(),
       "a3d3e78633ef315a66015f07e7102bc28277cf38c2476a94bf91ac84a41ed1ed"},
      {&p384().field(),
       "afc689a3d05c1e1c7116661784707ef80c3b7036e5606e812e9c420037ebb374"
       "f30149ee89f43d05589c8a56ffe1afe6"},
      {&p384().scalar_field(),
       "a2c6c1af38c9ca7cddfb157cc3d12a8e54278d70341ecb6ff2bbeb1a2a05aee1"
       "efacef2eb8faf959e67488455f12d1ff"},
  };
  for (const auto& [ctx, hex] : cases) {
    const U384 a = U384::from_hex(hex);
    const U384 sq = ctx->sqr(a);
    EXPECT_TRUE(sq < ctx->modulus());
    EXPECT_EQ(sq, ctx->mul(a, a));
    EXPECT_EQ(sq, mont_mul_generic(*ctx, a, a));
    EXPECT_EQ(ref_mulmod(*ctx, sq, ctx->one()), ref_mulmod(*ctx, a, a));
  }
}

// Test-local schoolbook references over K limbs with plain __int128
// carries: they share no code with the kernels' carry helpers (nor with
// add_with_carry, which runs on those helpers).
using uint128 = unsigned __int128;
using WideLimbs = std::array<std::uint64_t, 2 * U384::kLimbs + 1>;

WideLimbs wide_of(const U384& v) {
  WideLimbs w{};
  std::copy(v.limbs.begin(), v.limbs.end(), w.begin());
  return w;
}

U384 narrow(const WideLimbs& w, std::size_t k) {
  U384 v;
  std::copy_n(w.begin(), k, v.limbs.begin());
  return v;
}

/// r = a + b over the low n limbs; returns the carry out.
std::uint64_t school_add(WideLimbs& r, const WideLimbs& a, const WideLimbs& b,
                         std::size_t n) {
  uint128 carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    carry += static_cast<uint128>(a[i]) + b[i];
    r[i] = static_cast<std::uint64_t>(carry);
    carry >>= 64;
  }
  return static_cast<std::uint64_t>(carry);
}

/// r = a - b over the low n limbs; returns the borrow out.
std::uint64_t school_sub(WideLimbs& r, const WideLimbs& a, const WideLimbs& b,
                         std::size_t n) {
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const uint128 diff = static_cast<uint128>(a[i]) - b[i] - borrow;
    r[i] = static_cast<std::uint64_t>(diff);
    borrow = static_cast<std::uint64_t>(diff >> 127);
  }
  return borrow;
}

/// (a + b) mod m for a, b < m: the K + 1-limb sum, less m unless that
/// borrows.
U384 school_add_mod(const U384& a, const U384& b, const U384& m,
                    std::size_t k) {
  WideLimbs sum{}, reduced{};
  sum[k] = school_add(sum, wide_of(a), wide_of(b), k);
  if (school_sub(reduced, sum, wide_of(m), k + 1) == 0) sum = reduced;
  return narrow(sum, k);
}

/// (a - b) mod m for a, b < m.
U384 school_sub_mod(const U384& a, const U384& b, const U384& m,
                    std::size_t k) {
  WideLimbs diff{};
  if (school_sub(diff, wide_of(a), wide_of(b), k) != 0) {
    school_add(diff, diff, wide_of(m), k);
  }
  return narrow(diff, k);
}

/// a * b * 2^(-64K) mod m for a, b < m: the 2K-limb schoolbook product,
/// then 64K halvings, each adding m first when the value is odd.
U384 school_mont_mul(const U384& a, const U384& b, const U384& m,
                     std::size_t k) {
  WideLimbs t{};
  for (std::size_t i = 0; i < k; ++i) {
    uint128 carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      carry += static_cast<uint128>(a.limbs[i]) * b.limbs[j] + t[i + j];
      t[i + j] = static_cast<std::uint64_t>(carry);
      carry >>= 64;
    }
    t[i + k] = static_cast<std::uint64_t>(carry);
  }
  const WideLimbs wm = wide_of(m);
  for (std::size_t bit = 0; bit < 64 * k; ++bit) {
    if (t[0] & 1) school_add(t, t, wm, 2 * k + 1);
    for (std::size_t i = 0; i < 2 * k; ++i) {
      t[i] = (t[i] >> 1) | (t[i + 1] << 63);
    }
    t[2 * k] >>= 1;
  }
  // t < 2m now, in K + 1 limbs.
  WideLimbs reduced{};
  if (school_sub(reduced, t, wm, k + 1) == 0) t = reduced;
  return narrow(t, k);
}

TEST(MontWidth, CarryEdgesMatchSchoolbookReference) {
  HmacDrbg drbg(to_bytes(std::string_view("mont-carry-edges")));
  for (const auto& c : width_cases()) {
    const U384& m = c.ctx.modulus();
    // x - y for x >= y, on K + 1 limbs.
    const auto minus = [&](const WideLimbs& x, const U384& y) {
      WideLimbs d{};
      school_sub(d, x, wide_of(y), c.limbs + 1);
      return narrow(d, c.limbs);
    };
    const U384 m_minus_1 = minus(wide_of(m), U384::from_u64(1));
    const U384 m_minus_2 = minus(wide_of(m), U384::from_u64(2));
    const U384 r = random_below(drbg, m);
    const U384 m_minus_r = minus(wide_of(m), r);
    // (m - 1) + carry_mate = 2^(64K): the sum's low K limbs are all zero.
    WideLimbs two_to_64k{};
    two_to_64k[c.limbs] = 1;
    const U384 carry_mate = minus(two_to_64k, m_minus_1);
    const std::vector<U384> operands = {
        U384::zero(), U384::from_u64(1), U384::from_u64(2), m_minus_1,
        m_minus_2,    r,                 m_minus_r,         carry_mate,
        random_below(drbg, m)};

    int sums_equal_to_m = 0, sums_carrying_out = 0, subs_borrowing = 0;
    for (const U384& a : operands) {
      EXPECT_TRUE(a < m) << c.name;
      const U384 sq = c.ctx.sqr(a);
      EXPECT_EQ(sq, school_mont_mul(a, a, m, c.limbs)) << c.name;
      EXPECT_EQ(sq, mont_mul_generic(c.ctx, a, a)) << c.name;
      for (const U384& b : operands) {
        WideLimbs sum{};
        const std::uint64_t carry =
            school_add(sum, wide_of(a), wide_of(b), c.limbs);
        sums_equal_to_m += carry == 0 && narrow(sum, c.limbs) == m;
        sums_carrying_out += carry != 0;
        subs_borrowing += a < b;

        const U384 add = c.ctx.add(a, b);
        const U384 sub = c.ctx.sub(a, b);
        const U384 mul = c.ctx.mul(a, b);
        EXPECT_EQ(add, school_add_mod(a, b, m, c.limbs)) << c.name;
        EXPECT_EQ(sub, school_sub_mod(a, b, m, c.limbs)) << c.name;
        EXPECT_EQ(mul, school_mont_mul(a, b, m, c.limbs)) << c.name;
        // On P-256's p, mul runs the special-form reduction.
        EXPECT_EQ(mul, mont_mul_generic(c.ctx, a, b)) << c.name;
        expect_width(c, add);
        expect_width(c, sub);
        expect_width(c, mul);
      }
    }
    // The operand set reaches every carry edge.
    EXPECT_GT(sums_equal_to_m, 0) << c.name;
    EXPECT_GT(sums_carrying_out, 0) << c.name;
    EXPECT_GT(subs_borrowing, 0) << c.name;
  }
}

TEST(MontWidth, SafegcdInverseMatchesFermat) {
  for (const auto& c : width_cases()) {
    const U384& m = c.ctx.modulus();
    U384 m_minus_1, m_minus_2;
    sub_with_borrow(m_minus_1, m, U384::from_u64(1));
    sub_with_borrow(m_minus_2, m, U384::from_u64(2));
    std::vector<U384> values = {U384::from_u64(1), U384::from_u64(2),
                                m_minus_1, m_minus_2};
    // Powers of two, and values whose top limbs are zero.
    for (std::size_t bit : {1u, 61u, 62u, 63u, 64u, 124u, 127u, 200u, 255u}) {
      U384 p;
      p.limbs[bit / 64] = std::uint64_t{1} << (bit % 64);
      values.push_back(p);
    }
    values.push_back(U384::from_u64(0xfedcba9876543210ULL));
    values.push_back(U384::from_hex("0123456789abcdef0123456789abcdef"));
    for (const U384& v : values) {
      EXPECT_EQ(c.ctx.inv(v), c.ctx.pow(v, m_minus_2)) << c.name;
      const U384 vm = c.ctx.to_mont(v);
      EXPECT_EQ(c.ctx.mul(vm, c.ctx.inv(vm)), c.ctx.one()) << c.name;
      expect_width(c, c.ctx.inv(v));
    }
    // Fermat's a^(m-2) is 0 at a = 0; safegcd keeps that.
    EXPECT_TRUE(c.ctx.inv(U384::zero()).is_zero()) << c.name;
  }
}

TEST(MontCtx, SafegcdInvertsModuloAnyOddModulus) {
  // 1000001 = 101 * 9901 is not prime: Fermat would be wrong here, safegcd
  // needs only gcd(a, m) = 1.
  const MontCtx ctx(U384::from_u64(1000001));
  for (std::uint64_t a : {1ULL, 2ULL, 100ULL, 9900ULL, 999999ULL, 1000000ULL}) {
    const U384 am = ctx.to_mont(U384::from_u64(a));
    EXPECT_EQ(ctx.from_mont(ctx.mul(am, ctx.inv(am))), U384::from_u64(1))
        << a;
  }
}

TEST(MontWidth, WideScalarBaseMultMatchesNaiveLadder) {
  // 48-byte scalars, the shape bench_crypto_primitives feeds P-256 too.
  HmacDrbg drbg(to_bytes(std::string_view("mont-wide-scalar")));
  for (const Curve* curve : {&p256(), &p384()}) {
    for (int i = 0; i < 3; ++i) {
      const U384 k = U384::from_bytes_be(drbg.generate(48));
      const auto fast = curve->scalar_mult_base(k);
      const auto naive = curve->scalar_mult_naive(k, curve->generator());
      EXPECT_EQ(curve->encode_point(fast), curve->encode_point(naive))
          << curve->params().name;
    }
  }
}

TEST(FixedBase, WindowEdgeScalarsMatchNaiveLadder) {
  for (const Curve* curve : {&p256(), &p384()}) {
    for (const U384& k : window_edge_scalars(*curve)) {
      const auto fast = curve->scalar_mult_base(k);
      const auto naive = curve->scalar_mult_naive(k, curve->generator());
      EXPECT_EQ(curve->encode_point(fast), curve->encode_point(naive))
          << curve->params().name << " k=" << to_hex(k.to_bytes_be());
    }
    // (n - 1) * G = -G.
    U384 n_minus_1, neg_gy;
    sub_with_borrow(n_minus_1, curve->params().n, U384::from_u64(1));
    sub_with_borrow(neg_gy, curve->params().p, curve->params().gy);
    const auto minus_g = curve->scalar_mult_base(n_minus_1);
    EXPECT_EQ(minus_g.x, curve->params().gx) << curve->params().name;
    EXPECT_EQ(minus_g.y, neg_gy) << curve->params().name;
  }
}

// ---------------------------------------------------------------- wNAF

// Bit-serial width-w NAF: subtract each odd digit from k and shift one bit
// at a time, the textbook recoding ecp::wnaf_recode's word scan must equal
// digit for digit. Requires k < 2^384 - 2^w.
std::vector<std::int8_t> reference_wnaf(U384 d, unsigned width) {
  std::vector<std::int8_t> digits;
  const std::uint64_t mask = (std::uint64_t{1} << (width + 1)) - 1;
  const std::int64_t half = std::int64_t{1} << width;
  while (!d.is_zero()) {
    std::int64_t digit = 0;
    if (d.limbs[0] & 1) {
      digit = static_cast<std::int64_t>(d.limbs[0] & mask);
      if (digit >= half) digit -= half << 1;
      const U384 small = U384::from_u64(
          static_cast<std::uint64_t>(digit < 0 ? -digit : digit));
      U384 next;
      if (digit > 0) {
        sub_with_borrow(next, d, small);
      } else {
        add_with_carry(next, d, small);
      }
      d = next;
    }
    digits.push_back(static_cast<std::int8_t>(digit));
    for (std::size_t i = 0; i + 1 < U384::kLimbs; ++i) {
      d.limbs[i] = (d.limbs[i] >> 1) | (d.limbs[i + 1] << 63);
    }
    d.limbs[U384::kLimbs - 1] >>= 1;
  }
  return digits;
}

TEST(Wnaf, WordScanMatchesBitSerialRecoding) {
  std::vector<U384> scalars;
  for (std::uint64_t v = 0; v < 300; ++v) scalars.push_back(U384::from_u64(v));
  // 2^i - 1, 2^i and 2^i + 1 at every bit, so carries run across limbs.
  for (std::size_t i = 1; i < 384; ++i) {
    U384 p;
    p.limbs[i / 64] = std::uint64_t{1} << (i % 64);
    U384 below, above;
    sub_with_borrow(below, p, U384::from_u64(1));
    add_with_carry(above, p, U384::from_u64(1));
    scalars.insert(scalars.end(), {below, p, above});
  }
  U384 alternating_a, alternating_5, top;
  for (auto& l : alternating_a.limbs) l = 0xaaaaaaaaaaaaaaaaULL;
  for (auto& l : alternating_5.limbs) l = 0x5555555555555555ULL;
  for (auto& l : top.limbs) l = ~std::uint64_t{0};
  top.limbs[0] -= 1u << 7;  // 2^384 - 2^7 - 1, the largest k for any width
  scalars.insert(scalars.end(), {alternating_a, alternating_5, top});
  for (const Curve* curve : {&p256(), &p384()}) {
    const U384& n = curve->params().n;
    U384 n_minus_1;
    sub_with_borrow(n_minus_1, n, U384::from_u64(1));
    scalars.insert(scalars.end(), {n, n_minus_1});
    // Less 2^384 - 1, which the fixed-base path reduces mod n first.
    for (const U384& k : window_edge_scalars(*curve)) {
      if (!(top < k)) scalars.push_back(k);
    }
  }
  HmacDrbg drbg(to_bytes(std::string_view("wnaf-word-scan")));
  for (int i = 0; i < 10000; ++i) {
    scalars.push_back(U384::from_bytes_be(drbg.generate(32)));
    scalars.push_back(U384::from_bytes_be(drbg.generate(48)));
  }

  for (const unsigned width : {4u, 5u}) {
    std::size_t mismatches = 0;
    for (const U384& k : scalars) {
      if (ecp::wnaf_recode(k, width) != reference_wnaf(k, width) &&
          ++mismatches <= 3) {
        ADD_FAILURE() << "width " << width
                      << " k=" << to_hex(k.to_bytes_be());
      }
    }
    EXPECT_EQ(mismatches, 0u) << "width " << width << " over "
                              << scalars.size() << " scalars";
  }
}

// ---------------------------------------------------------------- EC

TEST(EcP256, GeneratorOnCurve) {
  EXPECT_TRUE(p256().on_curve(p256().generator()));
}

TEST(EcP384, GeneratorOnCurve) {
  EXPECT_TRUE(p384().on_curve(p384().generator()));
}

TEST(EcP256, KnownDoubleOfGenerator) {
  const auto two_g = p256().scalar_mult_base(U384::from_u64(2));
  EXPECT_EQ(to_hex(two_g.x.to_bytes_be(32)),
            "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978");
  EXPECT_EQ(to_hex(two_g.y.to_bytes_be(32)),
            "07775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1");
}

TEST(JacDouble, MatchesAffineTangentFormula) {
  // jac_double on (l^2 x, l^3 y, l) for random l, so Z != 1, normalized and
  // held to the affine tangent: s = (3x^2 - 3) / (2y), x3 = s^2 - 2x,
  // y3 = s (x - x3) - y.
  HmacDrbg drbg(to_bytes(std::string_view("jac-double")));
  for (const Curve* curve : {&p256(), &p384()}) {
    const MontCtx& fp = curve->field();
    const U384 three = fp.to_mont(U384::from_u64(3));
    for (int i = 0; i < 4; ++i) {
      const auto pt =
          curve->scalar_mult_base(random_below(drbg, curve->params().n));
      const U384 x = fp.to_mont(pt.x);
      const U384 y = fp.to_mont(pt.y);
      const U384 l = fp.to_mont(random_below(drbg, curve->params().p));
      const U384 l2 = fp.sqr(l);
      const ecp::Jac twice = ecp::jac_double(
          fp, ecp::Jac{fp.mul(x, l2), fp.mul(y, fp.mul(l2, l)), l});

      const U384 zinv = fp.inv(twice.z);
      const U384 zinv2 = fp.sqr(zinv);
      const Curve::Point got{fp.from_mont(fp.mul(twice.x, zinv2)),
                             fp.from_mont(fp.mul(twice.y, fp.mul(zinv2, zinv))),
                             false};

      const U384 slope = fp.mul(fp.sub(fp.mul(three, fp.sqr(x)), three),
                                fp.inv(fp.add(y, y)));
      const U384 x3 = fp.sub(fp.sqr(slope), fp.add(x, x));
      const U384 y3 = fp.sub(fp.mul(slope, fp.sub(x, x3)), y);
      EXPECT_EQ(got.x, fp.from_mont(x3)) << curve->params().name;
      EXPECT_EQ(got.y, fp.from_mont(y3)) << curve->params().name;
      EXPECT_TRUE(curve->on_curve(got)) << curve->params().name;
    }
  }
}

TEST(EcP256, AddMatchesDouble) {
  const auto g = p256().generator();
  const auto sum = p256().add(g, g);
  const auto dbl = p256().scalar_mult_base(U384::from_u64(2));
  EXPECT_EQ(sum.x.limbs, dbl.x.limbs);
  EXPECT_EQ(sum.y.limbs, dbl.y.limbs);
}

TEST(EcP384, AddMatchesDouble) {
  const auto g = p384().generator();
  const auto sum = p384().add(g, g);
  const auto dbl = p384().scalar_mult_base(U384::from_u64(2));
  EXPECT_EQ(sum.x.limbs, dbl.x.limbs);
  EXPECT_EQ(sum.y.limbs, dbl.y.limbs);
}

TEST(EcP256, ScalarMultDistributes) {
  // (a + b) G == aG + bG for several pairs.
  const std::uint64_t pairs[][2] = {{2, 3}, {10, 7}, {123456, 654321}};
  for (const auto& pair : pairs) {
    const auto lhs = p256().scalar_mult_base(U384::from_u64(pair[0] + pair[1]));
    const auto rhs = p256().add(p256().scalar_mult_base(U384::from_u64(pair[0])),
                                p256().scalar_mult_base(U384::from_u64(pair[1])));
    EXPECT_EQ(lhs.x.limbs, rhs.x.limbs);
    EXPECT_EQ(lhs.y.limbs, rhs.y.limbs);
  }
}

TEST(EcP256, OrderTimesGeneratorIsInfinity) {
  const auto r = p256().scalar_mult_base(p256().params().n);
  EXPECT_TRUE(r.infinity);
}

TEST(EcP384, OrderTimesGeneratorIsInfinity) {
  const auto r = p384().scalar_mult_base(p384().params().n);
  EXPECT_TRUE(r.infinity);
}

TEST(EcP256, RandomScalarsLandOnCurve) {
  HmacDrbg drbg(to_bytes(std::string_view("ec-scalars")));
  for (int i = 0; i < 8; ++i) {
    const U384 k = U384::from_bytes_be(drbg.generate(32));
    const auto pt = p256().scalar_mult_base(p256().scalar_field().reduce(k));
    if (!pt.infinity) { EXPECT_TRUE(p256().on_curve(pt)); }
  }
}

TEST(EcP384, RandomScalarsLandOnCurve) {
  HmacDrbg drbg(to_bytes(std::string_view("ec-scalars-384")));
  for (int i = 0; i < 4; ++i) {
    const U384 k = U384::from_bytes_be(drbg.generate(48));
    const auto pt = p384().scalar_mult_base(p384().scalar_field().reduce(k));
    if (!pt.infinity) { EXPECT_TRUE(p384().on_curve(pt)); }
  }
}

TEST(Ec, PointEncodingRoundTrip) {
  const auto g2 = p256().scalar_mult_base(U384::from_u64(5));
  const Bytes enc = p256().encode_point(g2);
  EXPECT_EQ(enc.size(), 65u);
  const auto back = p256().decode_point(enc);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->x.limbs, g2.x.limbs);
  EXPECT_EQ(back->y.limbs, g2.y.limbs);
}

TEST(Ec, DecodeRejectsOffCurvePoint) {
  auto enc = p256().encode_point(p256().generator());
  enc[40] ^= 0x01;  // corrupt a coordinate byte
  const auto result = p256().decode_point(enc);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, "ec.point_not_on_curve");
}

TEST(Ec, DecodeRejectsBadLengthOrPrefix) {
  const Bytes short_buf(10, 0);
  const auto too_short = p256().decode_point(short_buf);
  ASSERT_FALSE(too_short.ok());
  EXPECT_EQ(too_short.error().code, "ec.bad_point_encoding");
  auto enc = p256().encode_point(p256().generator());
  enc[0] = 0x02;
  const auto bad_prefix = p256().decode_point(enc);
  ASSERT_FALSE(bad_prefix.ok());
  EXPECT_EQ(bad_prefix.error().code, "ec.bad_point_encoding");
}

TEST(Ec, DecodeRejectsNonCanonicalCoordinate) {
  // x = p (the field prime itself) is out of range even though x mod p
  // would land on a representable value.
  Bytes enc;
  enc.push_back(0x04);
  append(enc, p256().params().p.to_bytes_be(32));
  append(enc, p256().generator().y.to_bytes_be(32));
  const auto result = p256().decode_point(enc);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, "ec.coordinate_out_of_range");
}

// ---------------------------------------------------------------- ECDSA

class EcdsaCurves : public ::testing::TestWithParam<const Curve*> {};

TEST_P(EcdsaCurves, SignVerifyRoundTrip) {
  const Curve& curve = *GetParam();
  HmacDrbg drbg(to_bytes(std::string_view("ecdsa-keys")),
                to_bytes(curve.params().name));
  const EcKeyPair kp = ec_generate(curve, drbg);
  EXPECT_TRUE(curve.on_curve(kp.q));

  const auto hash = sha384(to_bytes(std::string_view("message to sign")));
  const EcdsaSignature sig = ecdsa_sign(curve, kp.d, hash.view());
  EXPECT_TRUE(ecdsa_verify(curve, kp.q, hash.view(), sig));
}

TEST_P(EcdsaCurves, WrongMessageFails) {
  const Curve& curve = *GetParam();
  HmacDrbg drbg(to_bytes(std::string_view("ecdsa-keys-2")),
                to_bytes(curve.params().name));
  const EcKeyPair kp = ec_generate(curve, drbg);
  const auto h1 = sha384(to_bytes(std::string_view("message A")));
  const auto h2 = sha384(to_bytes(std::string_view("message B")));
  const EcdsaSignature sig = ecdsa_sign(curve, kp.d, h1.view());
  EXPECT_FALSE(ecdsa_verify(curve, kp.q, h2.view(), sig));
}

TEST_P(EcdsaCurves, WrongKeyFails) {
  const Curve& curve = *GetParam();
  HmacDrbg drbg(to_bytes(std::string_view("ecdsa-keys-3")),
                to_bytes(curve.params().name));
  const EcKeyPair signer = ec_generate(curve, drbg);
  const EcKeyPair other = ec_generate(curve, drbg);
  const auto hash = sha384(to_bytes(std::string_view("message")));
  const EcdsaSignature sig = ecdsa_sign(curve, signer.d, hash.view());
  EXPECT_FALSE(ecdsa_verify(curve, other.q, hash.view(), sig));
}

TEST_P(EcdsaCurves, SignatureIsDeterministic) {
  const Curve& curve = *GetParam();
  HmacDrbg drbg(to_bytes(std::string_view("ecdsa-keys-4")),
                to_bytes(curve.params().name));
  const EcKeyPair kp = ec_generate(curve, drbg);
  const auto hash = sha384(to_bytes(std::string_view("stable message")));
  const auto s1 = ecdsa_sign(curve, kp.d, hash.view());
  const auto s2 = ecdsa_sign(curve, kp.d, hash.view());
  EXPECT_EQ(s1.encode(curve), s2.encode(curve));
}

TEST_P(EcdsaCurves, TamperedSignatureComponentsFail) {
  const Curve& curve = *GetParam();
  HmacDrbg drbg(to_bytes(std::string_view("ecdsa-keys-5")),
                to_bytes(curve.params().name));
  const EcKeyPair kp = ec_generate(curve, drbg);
  const auto hash = sha384(to_bytes(std::string_view("message")));
  EcdsaSignature sig = ecdsa_sign(curve, kp.d, hash.view());
  sig.r.limbs[0] ^= 1;
  EXPECT_FALSE(ecdsa_verify(curve, kp.q, hash.view(), sig));
}

TEST_P(EcdsaCurves, EncodingRoundTrip) {
  const Curve& curve = *GetParam();
  HmacDrbg drbg(to_bytes(std::string_view("ecdsa-keys-6")),
                to_bytes(curve.params().name));
  const EcKeyPair kp = ec_generate(curve, drbg);
  const auto hash = sha384(to_bytes(std::string_view("encode me")));
  const EcdsaSignature sig = ecdsa_sign(curve, kp.d, hash.view());
  const Bytes enc = sig.encode(curve);
  const auto back = EcdsaSignature::decode(curve, enc);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(ecdsa_verify(curve, kp.q, hash.view(), *back));
}

TEST_P(EcdsaCurves, RejectsZeroOrOutOfRangeComponents) {
  const Curve& curve = *GetParam();
  HmacDrbg drbg(to_bytes(std::string_view("ecdsa-keys-7")),
                to_bytes(curve.params().name));
  const EcKeyPair kp = ec_generate(curve, drbg);
  const auto hash = sha384(to_bytes(std::string_view("message")));
  EcdsaSignature sig = ecdsa_sign(curve, kp.d, hash.view());
  EcdsaSignature zero_r = sig;
  zero_r.r = U384::zero();
  EXPECT_FALSE(ecdsa_verify(curve, kp.q, hash.view(), zero_r));
  EcdsaSignature big_s = sig;
  big_s.s = curve.params().n;
  EXPECT_FALSE(ecdsa_verify(curve, kp.q, hash.view(), big_s));
}

INSTANTIATE_TEST_SUITE_P(Curves, EcdsaCurves,
                         ::testing::Values(&p256(), &p384()),
                         [](const auto& info) {
                           return info.param->params().name == "P-256"
                                      ? std::string("P256")
                                      : std::string("P384");
                         });

TEST(Ecdh, SharedSecretAgrees) {
  HmacDrbg drbg(to_bytes(std::string_view("ecdh")));
  const EcKeyPair alice = ec_generate(p256(), drbg);
  const EcKeyPair bob = ec_generate(p256(), drbg);
  const auto s1 = ecdh_shared_secret(p256(), alice.d, bob.q);
  const auto s2 = ecdh_shared_secret(p256(), bob.d, alice.q);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(*s1, *s2);
}

TEST(Ecdh, RejectsInvalidPeer) {
  HmacDrbg drbg(to_bytes(std::string_view("ecdh-2")));
  const EcKeyPair alice = ec_generate(p256(), drbg);
  Curve::Point bogus{U384::from_u64(1), U384::from_u64(2), false};
  EXPECT_FALSE(ecdh_shared_secret(p256(), alice.d, bogus).ok());
  EXPECT_FALSE(
      ecdh_shared_secret(p256(), alice.d, Curve::Point::at_infinity()).ok());
}

// ------------------------------------- ECDSA known-answer vectors (CAVP)
//
// Signature values from RFC 6979 (deterministic ECDSA test vectors, which
// exercise the same SigVer math as NIST CAVP): any correct verifier must
// accept them. Our signer uses its own deterministic nonce construction,
// so the *sign* KAT checks public-key derivation d -> Q and that our own
// signatures verify under the vector keys, not nonce equality.

TEST(EcdsaKat, P256Rfc6979PublicKeyDerivation) {
  const U384 d = U384::from_hex(
      "c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721");
  const auto q = p256().scalar_mult_base(d);
  ASSERT_FALSE(q.infinity);
  EXPECT_EQ(to_hex(q.x.to_bytes_be(32)),
            "60fed4ba255a9d31c961eb74c6356d68c049b8923b61fa6ce669622e60f29fb6");
  EXPECT_EQ(to_hex(q.y.to_bytes_be(32)),
            "7903fe1008b8bc99a41ae9e95628bc64f2f1b20c2d7e9f5177a3c294d4462299");
}

TEST(EcdsaKat, P256Rfc6979Sha256SampleVerifies) {
  const Curve::Point q{
      U384::from_hex("60fed4ba255a9d31c961eb74c6356d68c049b8923b61fa6ce66962"
                     "2e60f29fb6"),
      U384::from_hex("7903fe1008b8bc99a41ae9e95628bc64f2f1b20c2d7e9f5177a3c2"
                     "94d4462299"),
      false};
  const auto hash = sha256(to_bytes(std::string_view("sample")));
  EcdsaSignature sig;
  sig.r = U384::from_hex(
      "efd48b2aacb6a8fd1140dd9cd45e81d69d2c877b56aaf991c34d0ea84eaf3716");
  sig.s = U384::from_hex(
      "f7cb1c942d657c41d436c7a1b6e29f65f3e900dbb9aff4064dc4ab2f843acda8");
  EXPECT_TRUE(ecdsa_verify(p256(), q, hash.view(), sig));
  // A single flipped message bit must fail.
  const auto wrong = sha256(to_bytes(std::string_view("samplf")));
  EXPECT_FALSE(ecdsa_verify(p256(), q, wrong.view(), sig));
}

TEST(EcdsaKat, P256Rfc6979Sha256TestVerifies) {
  const Curve::Point q{
      U384::from_hex("60fed4ba255a9d31c961eb74c6356d68c049b8923b61fa6ce66962"
                     "2e60f29fb6"),
      U384::from_hex("7903fe1008b8bc99a41ae9e95628bc64f2f1b20c2d7e9f5177a3c2"
                     "94d4462299"),
      false};
  const auto hash = sha256(to_bytes(std::string_view("test")));
  EcdsaSignature sig;
  sig.r = U384::from_hex(
      "f1abb023518351cd71d881567b1ea663ed3efcf6c5132b354f28d3b0b7d38367");
  sig.s = U384::from_hex(
      "019f4113742a2b14bd25926b49c649155f267e60d3814b4c0cc84250e46f0083");
  EXPECT_TRUE(ecdsa_verify(p256(), q, hash.view(), sig));
  // Swapped components must fail.
  EcdsaSignature swapped{sig.s, sig.r};
  EXPECT_FALSE(ecdsa_verify(p256(), q, hash.view(), swapped));
}

TEST(EcdsaKat, P384Rfc6979PublicKeyDerivation) {
  const U384 d = U384::from_hex(
      "6b9d3dad2e1b8c1c05b19875b6659f4de23c3b667bf297ba9aa47740787137d8"
      "96d5724e4c70a825f872c9ea60d2edf5");
  const auto q = p384().scalar_mult_base(d);
  ASSERT_FALSE(q.infinity);
  EXPECT_EQ(to_hex(q.x.to_bytes_be(48)),
            "ec3a4e415b4e19a4568618029f427fa5da9a8bc4ae92e02e06aae5286b300c64"
            "def8f0ea9055866064a254515480bc13");
  EXPECT_EQ(to_hex(q.y.to_bytes_be(48)),
            "8015d9b72d7d57244ea8ef9ac0c621896708a59367f9dfb9f54ca84b3f1c9db1"
            "288b231c3ae0d4fe7344fd2533264720");
}

TEST(EcdsaKat, P384Rfc6979Sha384SampleVerifies) {
  const Curve::Point q{
      U384::from_hex("ec3a4e415b4e19a4568618029f427fa5da9a8bc4ae92e02e06aae5"
                     "286b300c64def8f0ea9055866064a254515480bc13"),
      U384::from_hex("8015d9b72d7d57244ea8ef9ac0c621896708a59367f9dfb9f54ca8"
                     "4b3f1c9db1288b231c3ae0d4fe7344fd2533264720"),
      false};
  const auto hash = sha384(to_bytes(std::string_view("sample")));
  EcdsaSignature sig;
  sig.r = U384::from_hex(
      "94edbb92a5ecb8aad4736e56c691916b3f88140666ce9fa73d64c4ea95ad133c"
      "81a648152e44acf96e36dd1e80fabe46");
  sig.s = U384::from_hex(
      "99ef4aeb15f178cea1fe40db2603138f130e740a19624526203b6351d0a3a94f"
      "a329c145786e679e7b82c71a38628ac8");
  EXPECT_TRUE(ecdsa_verify(p384(), q, hash.view(), sig));
}

TEST(EcdsaKat, OwnSignaturesVerifyUnderVectorKeys) {
  // Our deterministic nonce differs from RFC 6979, so r/s differ, but the
  // signature must still verify under the vector's key pair.
  const U384 d = U384::from_hex(
      "c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721");
  const auto q = p256().scalar_mult_base(d);
  const auto hash = sha256(to_bytes(std::string_view("sample")));
  const auto sig = ecdsa_sign(p256(), d, hash.view());
  EXPECT_TRUE(ecdsa_verify(p256(), q, hash.view(), sig));
}

TEST(Ec, VerifyTableCacheServesRepeatedKeys) {
  HmacDrbg drbg(to_bytes(std::string_view("cache-check")));
  const EcKeyPair kp = ec_generate(p256(), drbg);
  const auto hash = sha384(to_bytes(std::string_view("cached message")));
  const auto sig = ecdsa_sign(p256(), kp.d, hash.view());
  const auto before = p256().verify_cache_stats();
  EXPECT_TRUE(ecdsa_verify(p256(), kp.q, hash.view(), sig));
  EXPECT_TRUE(ecdsa_verify(p256(), kp.q, hash.view(), sig));
  const auto after = p256().verify_cache_stats();
  // First verify may hit or miss (other tests share the singleton), but the
  // second one must be served from the per-key table cache.
  EXPECT_GE(after.hits, before.hits + 1);
}

// ------------------------------------------------- extra known answers

TEST(Sha384, EmptyString) {
  EXPECT_EQ(to_hex(sha384({}).view()),
            "38b060a751ac96384cd9327eb1b1e36a21fdb71114be07434c0cc7bf63f6e1da"
            "274edebfe76f65fbd51ad2f14898b95b");
}

TEST(Sha384, TwoBlockMessage) {
  const auto msg = to_bytes(std::string_view(
      "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
      "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"));
  EXPECT_EQ(to_hex(sha384(msg).view()),
            "09330c33f71147e83d192fc782cd1b4753111b173b3b05d22fa08086e3b0f712"
            "fcc7c71a557e2db966c3e9fa91746039");
}

TEST(Hmac, Rfc4231Case4TruncatedKeyData) {
  // key = 0x0102..0x19, data = 0xcd x 50.
  Bytes key(25);
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i + 1);
  }
  const Bytes data(50, 0xcd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data).view()),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(Aes, Fips197Aes192Decrypt) {
  const Bytes key = H("000102030405060708090a0b0c0d0e0f1011121314151617");
  const Bytes ct = H("dda97ca4864cdfe06eaf70a0ec0d7191");
  Aes aes(key);
  std::uint8_t pt[16];
  aes.decrypt_block(ct.data(), pt);
  EXPECT_EQ(to_hex(ByteView(pt, 16)), "00112233445566778899aabbccddeeff");
}

TEST(U384, ToBytesTruncatesHighZeros) {
  const U384 v = U384::from_u64(0xabcd);
  EXPECT_EQ(to_hex(v.to_bytes_be(2)), "abcd");
  EXPECT_EQ(to_hex(v.to_bytes_be(4)), "0000abcd");
}

TEST(U384, BitLengthEdges) {
  EXPECT_EQ(U384::zero().bit_length(), 0u);
  EXPECT_EQ(U384::from_u64(1).bit_length(), 1u);
  U384 top;
  top.limbs[5] = 1ULL << 63;
  EXPECT_EQ(top.bit_length(), 384u);
  EXPECT_TRUE(top.bit(383));
  EXPECT_FALSE(top.bit(0));
}

TEST(MontCtx, OneIsMontgomeryIdentity) {
  const MontCtx ctx(U384::from_u64(1000003));
  const U384 a = ctx.to_mont(U384::from_u64(777));
  EXPECT_EQ(ctx.from_mont(ctx.mul(a, ctx.one())).limbs[0], 777u);
}

TEST(EcP384, GeneratorOrderBoundary) {
  // (n-1)G + G == infinity on P-384 too.
  U384 n_minus_1;
  sub_with_borrow(n_minus_1, p384().params().n, U384::from_u64(1));
  const auto almost = p384().scalar_mult_base(n_minus_1);
  ASSERT_FALSE(almost.infinity);
  EXPECT_TRUE(p384().add(almost, p384().generator()).infinity);
}

TEST(Ecdsa, VerifyRejectsInfinityAndOffCurveKeys) {
  HmacDrbg drbg(to_bytes(std::string_view("edge")));
  const EcKeyPair kp = ec_generate(p256(), drbg);
  const auto hash = sha384(to_bytes(std::string_view("m")));
  const auto sig = ecdsa_sign(p256(), kp.d, hash.view());
  EXPECT_FALSE(
      ecdsa_verify(p256(), Curve::Point::at_infinity(), hash.view(), sig));
  Curve::Point off{U384::from_u64(5), U384::from_u64(7), false};
  EXPECT_FALSE(ecdsa_verify(p256(), off, hash.view(), sig));
}

// ---------------------------------------------------------------- Merkle

TEST(Merkle, SingleLeafIsTheRoot) {
  const Digest32 leaf = MerkleTree::hash_leaf(Bytes(16, 0xaa));
  const auto tree = MerkleTree::from_leaves({leaf});
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_EQ(tree.root(), leaf);
}

TEST(Merkle, DomainSeparationLeafVsInner) {
  // A 64-byte "block" equal to two concatenated digests must not hash to the
  // same value as the inner node over those digests.
  const Digest32 a = sha256(to_bytes(std::string_view("left")));
  const Digest32 b = sha256(to_bytes(std::string_view("right")));
  const Bytes concat_ab = concat(a.view(), b.view());
  EXPECT_FALSE(MerkleTree::hash_leaf(concat_ab) ==
               MerkleTree::hash_inner(a, b));
}

// Leaf i is SHA-256 of i as a big-endian u64.
std::vector<Digest32> fixed_leaves(std::size_t n) {
  std::vector<Digest32> leaves;
  for (std::size_t i = 0; i < n; ++i) {
    Bytes seed;
    append_u64be(seed, i);
    leaves.push_back(sha256(seed));
  }
  return leaves;
}

TEST(Merkle, RootChangesWithAnyLeaf) {
  const auto leaves = fixed_leaves(3);
  const auto base = MerkleTree::from_leaves(leaves);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    auto mutated = leaves;
    mutated[i][17] ^= 0x80;
    EXPECT_FALSE(MerkleTree::from_leaves(mutated).root() == base.root()) << i;
  }
}

// Roots pinned as hex (they agree with a Python hashlib model of the same
// tree). The leaf counts straddle runs of eight nodes and odd-node
// promotion, so a change to how leaves or inner nodes are hashed shows
// here.
TEST(Merkle, PinnedRootsFromLeaves) {
  const std::pair<std::size_t, const char*> cases[] = {
      {1, "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"},
      {2, "444b899027db090f36dae1800aa3dda7da9705621a01e46a0efb73d8a02f5f2d"},
      {3, "ef1d12e821efc794ccddeb9d6ed1594fb28ab324090dbebcb2028608d7e0ede2"},
      {7, "9a3f40310843a0ac32183839a31fb333c976538ff289cfb074f6571e2437727b"},
      {8, "931131ee0202be2ef44df17c0d41b33df3aace299d58264270d82e820c352984"},
      {9, "4caab168e0683930be1476e8b009014493ec67070937ca3aca14b21e9ad96627"},
      {16, "c04778e27821450fe6056cbde8ebbca5d275fa290e7804fb7cde6df2038626e3"},
      {17, "f70a647b69de11ac2a422ec7a6ae79a518fe39e60e543a52c573cc9a76f76b3c"},
      {1000, "01bd2d3acbd273d9d1f2e00d1ed43e48fc5a389696d996093276020b758b82b4"},
  };
  for (const auto& [n, hex] : cases) {
    const auto tree = MerkleTree::from_leaves(fixed_leaves(n));
    EXPECT_EQ(to_hex(tree.root().view()), hex) << n;
  }
}

}  // namespace
}  // namespace revelio::crypto
