// Property-based tests: invariants checked across swept parameter spaces
// (TEST_P / INSTANTIATE_TEST_SUITE_P) and randomized inputs with fixed
// seeds. These complement the per-module example-based suites.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "crypto/drbg.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/ecies.hpp"
#include "crypto/kdf.hpp"
#include "crypto/modes.hpp"
#include "ic/subnet.hpp"
#include "net/http.hpp"
#include "storage/dm_crypt.hpp"
#include "storage/dm_verity.hpp"
#include "storage/imagefs.hpp"
#include "sevsnp/amd_sp.hpp"
#include "storage/mem_disk.hpp"

namespace revelio {
namespace {

using crypto::HmacDrbg;

// =====================================================================
// Crypto properties
// =====================================================================

// --- Hash avalanche: flipping any single bit changes the digest. ------

class HashAvalanche : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HashAvalanche, SingleBitFlipChangesDigest) {
  Rng rng(GetParam());
  Bytes data = rng.next_bytes(GetParam());
  const auto base = crypto::sha256(data);
  // Sample up to 32 bit positions spread over the buffer.
  const std::size_t bits = data.size() * 8;
  for (std::size_t sample = 0; sample < std::min<std::size_t>(32, bits);
       ++sample) {
    const std::size_t bit = rng.next_below(bits);
    data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(crypto::sha256(data) == base) << "bit " << bit;
    data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  EXPECT_EQ(crypto::sha256(data), base) << "restoration must round-trip";
}

INSTANTIATE_TEST_SUITE_P(Sizes, HashAvalanche,
                         ::testing::Values(1, 55, 56, 64, 65, 127, 128, 1000));

// --- Streaming == one-shot for every chunking. -------------------------

class HashChunking : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HashChunking, AnyChunkSizeMatchesOneShot) {
  Rng rng(7);
  const Bytes data = rng.next_bytes(777);
  const auto expected = crypto::sha256(data);
  const std::size_t chunk = GetParam();
  crypto::Sha256 h;
  for (std::size_t off = 0; off < data.size(); off += chunk) {
    h.update(ByteView(data).subspan(off, std::min(chunk, data.size() - off)));
  }
  EXPECT_EQ(h.finish(), expected);
}

INSTANTIATE_TEST_SUITE_P(Chunks, HashChunking,
                         ::testing::Values(1, 3, 63, 64, 65, 100, 777));

// --- AES round trip across key sizes. ----------------------------------

class AesKeySizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AesKeySizes, EncryptDecryptIsIdentity) {
  HmacDrbg drbg(to_bytes(std::string_view("aes-prop")));
  const crypto::Aes aes(drbg.generate(GetParam()));
  for (int i = 0; i < 50; ++i) {
    const Bytes pt = drbg.generate(16);
    std::uint8_t ct[16];
    std::uint8_t back[16];
    aes.encrypt_block(pt.data(), ct);
    aes.decrypt_block(ct, back);
    EXPECT_TRUE(ct_equal(ByteView(back, 16), pt));
    EXPECT_FALSE(ct_equal(ByteView(ct, 16), pt)) << "ECB must not be identity";
  }
}

INSTANTIATE_TEST_SUITE_P(KeySizes, AesKeySizes, ::testing::Values(16, 24, 32));

// --- XTS round trip across sector sizes. --------------------------------

class XtsSectorSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(XtsSectorSizes, RoundTripAndTweakSeparation) {
  HmacDrbg drbg(to_bytes(std::string_view("xts-prop")));
  const crypto::AesXts xts(drbg.generate(64));
  const Bytes original = drbg.generate(GetParam());
  Bytes a = original;
  Bytes b = original;
  xts.encrypt_sector(1, a);
  xts.encrypt_sector(2, b);
  EXPECT_NE(a, b);
  xts.decrypt_sector(1, a);
  xts.decrypt_sector(2, b);
  EXPECT_EQ(a, original);
  EXPECT_EQ(b, original);
}

INSTANTIATE_TEST_SUITE_P(Sectors, XtsSectorSizes,
                         ::testing::Values(16, 512, 4096, 16384));

// --- AEAD round trip across payload sizes incl. empty. ------------------

class AeadPayloads : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AeadPayloads, SealOpenRoundTrip) {
  HmacDrbg drbg(to_bytes(std::string_view("aead-prop")));
  const crypto::AeadCtrHmac aead(drbg.generate(64));
  const Bytes pt = drbg.generate(GetParam());
  const Bytes aad = drbg.generate(GetParam() % 32);
  const Bytes sealed = aead.seal(drbg.generate(16), aad, pt);
  auto opened = aead.open(aad, sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, pt);
  // Any single-byte corruption is caught.
  if (!sealed.empty()) {
    Rng rng(GetParam() + 1);
    Bytes corrupted = sealed;
    corrupted[rng.next_below(corrupted.size())] ^= 0x20;
    EXPECT_FALSE(aead.open(aad, corrupted).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Payloads, AeadPayloads,
                         ::testing::Values(0, 1, 15, 16, 17, 255, 4096));

// --- KDF output length sweep. -------------------------------------------

class KdfLengths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KdfLengths, HkdfPrefixConsistencyAndLength) {
  const Bytes ikm = to_bytes(std::string_view("input key material"));
  const Bytes salt = to_bytes(std::string_view("salt"));
  const Bytes info = to_bytes(std::string_view("info"));
  const Bytes okm = crypto::hkdf_sha256(ikm, salt, info, GetParam());
  EXPECT_EQ(okm.size(), GetParam());
  // Prefix property: a longer output begins with the shorter one.
  const Bytes longer = crypto::hkdf_sha256(ikm, salt, info, GetParam() + 16);
  EXPECT_TRUE(std::equal(okm.begin(), okm.end(), longer.begin()));
}

INSTANTIATE_TEST_SUITE_P(Lengths, KdfLengths,
                         ::testing::Values(1, 16, 31, 32, 33, 64, 100));

// --- EC group laws on both curves with random scalars. ------------------

class EcGroupLaws : public ::testing::TestWithParam<const crypto::Curve*> {};

TEST_P(EcGroupLaws, AdditionIsCommutativeAndAssociative) {
  const crypto::Curve& curve = *GetParam();
  HmacDrbg drbg(to_bytes(std::string_view("ec-laws")),
                to_bytes(curve.params().name));
  const auto pt = [&](std::uint64_t k) {
    return curve.scalar_mult_base(crypto::U384::from_u64(k));
  };
  const auto a = pt(123456789), b = pt(987654321), c = pt(555555);
  const auto ab = curve.add(a, b);
  const auto ba = curve.add(b, a);
  EXPECT_EQ(ab.x.limbs, ba.x.limbs);
  const auto ab_c = curve.add(ab, c);
  const auto a_bc = curve.add(a, curve.add(b, c));
  EXPECT_EQ(ab_c.x.limbs, a_bc.x.limbs);
  EXPECT_EQ(ab_c.y.limbs, a_bc.y.limbs);
}

TEST_P(EcGroupLaws, ScalarDistributivityRandom) {
  const crypto::Curve& curve = *GetParam();
  HmacDrbg drbg(to_bytes(std::string_view("ec-dist")),
                to_bytes(curve.params().name));
  const auto& fn = curve.scalar_field();
  for (int i = 0; i < 3; ++i) {
    const crypto::U384 a =
        fn.reduce(crypto::U384::from_bytes_be(drbg.generate(48)));
    const crypto::U384 b =
        fn.reduce(crypto::U384::from_bytes_be(drbg.generate(48)));
    const crypto::U384 sum = fn.from_mont(
        fn.add(fn.to_mont(a), fn.to_mont(b)));  // (a+b) mod n
    const auto lhs = curve.scalar_mult_base(sum);
    const auto rhs =
        curve.add(curve.scalar_mult_base(a), curve.scalar_mult_base(b));
    if (lhs.infinity) {
      EXPECT_TRUE(rhs.infinity);
    } else {
      EXPECT_EQ(lhs.x.limbs, rhs.x.limbs);
      EXPECT_EQ(lhs.y.limbs, rhs.y.limbs);
    }
    EXPECT_TRUE(lhs.infinity || curve.on_curve(lhs));
  }
}

TEST_P(EcGroupLaws, NegationViaOrderMinusOne) {
  const crypto::Curve& curve = *GetParam();
  crypto::U384 n_minus_1;
  crypto::sub_with_borrow(n_minus_1, curve.params().n,
                          crypto::U384::from_u64(1));
  const auto minus_g = curve.scalar_mult_base(n_minus_1);
  const auto g = curve.generator();
  EXPECT_EQ(minus_g.x.limbs, g.x.limbs) << "-G has the same x";
  // G + (-G) == infinity.
  EXPECT_TRUE(curve.add(g, minus_g).infinity);
}

INSTANTIATE_TEST_SUITE_P(Curves, EcGroupLaws,
                         ::testing::Values(&crypto::p256(), &crypto::p384()),
                         [](const auto& info) {
                           return info.param->params().name == "P-256"
                                      ? std::string("P256")
                                      : std::string("P384");
                         });

// --- ECIES round trip across payload sizes. ------------------------------

class EciesPayloads : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EciesPayloads, SealOpenRoundTrip) {
  HmacDrbg drbg(to_bytes(std::string_view("ecies-prop")));
  const auto recipient = crypto::ec_generate(crypto::p256(), drbg);
  const Bytes pt = drbg.generate(GetParam());
  auto sealed = crypto::ecies_seal(
      crypto::p256(), recipient.public_encoded(crypto::p256()), pt, drbg);
  ASSERT_TRUE(sealed.ok());
  auto opened = crypto::ecies_open(crypto::p256(), recipient.d, *sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, pt);
  // The wrong recipient cannot open.
  const auto other = crypto::ec_generate(crypto::p256(), drbg);
  EXPECT_FALSE(crypto::ecies_open(crypto::p256(), other.d, *sealed).ok());
}

INSTANTIATE_TEST_SUITE_P(Payloads, EciesPayloads,
                         ::testing::Values(0, 32, 100, 1000));

// --- U384 ring laws with random values. -----------------------------------

TEST(U384Properties, AddSubRoundTripRandom) {
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    const crypto::U384 a = crypto::U384::from_bytes_be(rng.next_bytes(48));
    const crypto::U384 b = crypto::U384::from_bytes_be(rng.next_bytes(48));
    crypto::U384 sum, back;
    const std::uint64_t carry = crypto::add_with_carry(sum, a, b);
    const std::uint64_t borrow = crypto::sub_with_borrow(back, sum, b);
    // (a + b) - b == a modulo 2^384; carry and borrow must agree.
    EXPECT_EQ(back.limbs, a.limbs);
    EXPECT_EQ(carry, borrow);
  }
}

TEST(U384Properties, MontgomeryMatchesSchoolbookSmall) {
  // Cross-check Montgomery arithmetic against 128-bit native arithmetic
  // for random 32-bit operands under random 61-bit odd moduli.
  Rng rng(1234);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t m = (rng.next_u64() >> 3) | 1;
    if (m < 3) continue;
    const crypto::MontCtx ctx(crypto::U384::from_u64(m));
    const std::uint64_t a = rng.next_u64() % m;
    const std::uint64_t b = rng.next_u64() % m;
    const auto product = ctx.from_mont(
        ctx.mul(ctx.to_mont(crypto::U384::from_u64(a)),
                ctx.to_mont(crypto::U384::from_u64(b))));
    const auto expected = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(a) * b) % m);
    EXPECT_EQ(product.limbs[0], expected) << "m=" << m;
  }
}

// =====================================================================
// Storage properties
// =====================================================================

// --- dm-crypt behaves exactly like a plain device (shadow model). ---------

TEST(CryptShadowModel, RandomOpsMatchShadow) {
  auto disk = std::make_shared<storage::MemDisk>(512, 64);
  HmacDrbg drbg(to_bytes(std::string_view("shadow")));
  auto device = *storage::CryptVolume::format(disk, drbg.generate(32),
                                              drbg.generate(32));
  std::map<std::uint64_t, Bytes> shadow;
  Rng rng(42);
  for (int op = 0; op < 500; ++op) {
    const std::uint64_t block = rng.next_below(device->block_count());
    if (rng.next_below(2) == 0) {
      const Bytes data = rng.next_bytes(512);
      ASSERT_TRUE(device->write_block(block, data).ok());
      shadow[block] = data;
    } else {
      Bytes out(512);
      ASSERT_TRUE(device->read_block(block, out).ok());
      const auto it = shadow.find(block);
      if (it != shadow.end()) {
        EXPECT_EQ(out, it->second) << "block " << block;
      }
    }
  }
}

// --- verity detects corruption at every byte region. ----------------------

class VerityCorruptionOffsets : public ::testing::TestWithParam<double> {};

TEST_P(VerityCorruptionOffsets, CorruptionAnywhereIsDetected) {
  auto data_dev = std::make_shared<storage::MemDisk>(4096, 8);
  auto hash_dev = std::make_shared<storage::MemDisk>(4096, 16);
  Rng rng(5);
  for (std::uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(data_dev->write_block(i, rng.next_bytes(4096)).ok());
  }
  auto meta = storage::Verity::format(*data_dev, *hash_dev);
  ASSERT_TRUE(meta.ok());
  auto device = storage::Verity::open(data_dev, hash_dev, meta->root_hash);
  ASSERT_TRUE(device.ok());

  const auto offset = static_cast<std::uint64_t>(
      GetParam() * static_cast<double>(data_dev->size_bytes() - 1));
  data_dev->raw_tamper(offset, 0x01);
  EXPECT_FALSE((*device)->verify_all().ok())
      << "corruption at byte " << offset << " must be detected";
}

INSTANTIATE_TEST_SUITE_P(Offsets, VerityCorruptionOffsets,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75, 0.99));

// --- imagefs round trip with random file sets. ----------------------------

class ImageFsRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ImageFsRandom, SerializeParsePreservesEverything) {
  Rng rng(GetParam());
  storage::ImageFs fs;
  std::map<std::string, Bytes> model;
  const std::size_t file_count = 1 + rng.next_below(20);
  for (std::size_t i = 0; i < file_count; ++i) {
    const std::string path = "/f/" + std::to_string(rng.next_u64() % 1000);
    const Bytes content = rng.next_bytes(rng.next_below(10000));
    fs.add_file(path, content);
    model[path] = content;
  }
  auto parsed = storage::ImageFs::parse(fs.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->file_count(), model.size());
  for (const auto& [path, content] : model) {
    auto read = parsed->read_file(path);
    ASSERT_TRUE(read.ok()) << path;
    EXPECT_EQ(*read, content);
  }
  // Canonicity: the parsed filesystem reserializes to identical bytes.
  EXPECT_EQ(parsed->serialize(), fs.serialize());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImageFsRandom,
                         ::testing::Values(1, 2, 3, 4, 5));

// =====================================================================
// Protocol properties
// =====================================================================

// --- HTTP framing round trip with random contents. -------------------------

class HttpRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HttpRandom, RequestResponseRoundTrip) {
  Rng rng(GetParam());
  net::HttpRequest request;
  request.method = rng.next_below(2) ? "GET" : "POST";
  request.path = "/p" + std::to_string(rng.next_u64());
  request.host = "h" + std::to_string(rng.next_u64());
  const std::size_t header_count = rng.next_below(10);
  for (std::size_t i = 0; i < header_count; ++i) {
    request.headers["h" + std::to_string(i)] =
        std::string(rng.next_below(50), 'x');
  }
  request.body = rng.next_bytes(rng.next_below(5000));
  auto parsed = net::HttpRequest::parse(request.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->method, request.method);
  EXPECT_EQ(parsed->path, request.path);
  EXPECT_EQ(parsed->headers, request.headers);
  EXPECT_EQ(parsed->body, request.body);

  net::HttpResponse response;
  response.status = 100 + static_cast<int>(rng.next_below(500));
  response.body = rng.next_bytes(rng.next_below(5000));
  auto parsed_response = net::HttpResponse::parse(response.serialize());
  ASSERT_TRUE(parsed_response.ok());
  EXPECT_EQ(parsed_response->status, response.status);
  EXPECT_EQ(parsed_response->body, response.body);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HttpRandom, ::testing::Range<std::uint64_t>(0, 8));

// --- Subnet fault tolerance across f. ---------------------------------------

class SubnetFaults : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SubnetFaults, ExactlyFFaultsMaskedFPlusOneNot) {
  const std::uint32_t f = GetParam();
  HmacDrbg drbg(to_bytes(std::string_view("subnet-sweep")));
  ic::Subnet subnet(f, drbg);
  subnet.install_canister("kv", ic::KeyValueCanister{});
  ASSERT_EQ(subnet.replica_count(), 3 * f + 1);

  // f corrupt replicas: still certifies and verifies.
  for (std::uint32_t i = 0; i < f; ++i) {
    subnet.set_byzantine(i, ic::ByzantineMode::kCorruptExecution);
  }
  Bytes arg = to_bytes(std::string_view("k"));
  arg.push_back(0);
  append(arg, std::string_view("v"));
  auto ok = subnet.update("kv", "set", arg);
  ASSERT_TRUE(ok.ok()) << "f=" << f << " faults must be masked";
  EXPECT_TRUE(ic::verify_certificate(ok->certificate, ok->reply,
                                     subnet.public_keys(), subnet.threshold())
                  .ok());

  // f+1 faults: certification must fail (never a bogus certificate).
  subnet.set_byzantine(f, ic::ByzantineMode::kSilent);
  auto broken = subnet.update("kv", "set", arg);
  EXPECT_FALSE(broken.ok()) << "f+1 faults must not certify";
}

INSTANTIATE_TEST_SUITE_P(FaultBudgets, SubnetFaults, ::testing::Values(1, 2));

// --- Sealing keys: uniqueness across (platform, image) grid. ----------------

TEST(SealingKeyProperties, DistinctAcrossPlatformAndImage) {
  std::vector<Bytes> keys;
  for (const char* platform_seed : {"plat-1", "plat-2", "plat-3"}) {
    for (const char* image : {"image-a", "image-b"}) {
      sevsnp::AmdSp sp(to_bytes(std::string_view(platform_seed)),
                       sevsnp::TcbVersion{2, 0, 8, 115});
      EXPECT_TRUE(sp.launch_start(0).ok());
      EXPECT_TRUE(sp.launch_update(to_bytes(std::string_view(image))).ok());
      EXPECT_TRUE(sp.launch_finish().ok());
      sevsnp::KeyDerivationPolicy policy;
      policy.context = "disk";
      keys.push_back(*sp.derive_key(policy));
    }
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t j = i + 1; j < keys.size(); ++j) {
      EXPECT_NE(keys[i], keys[j]) << i << " vs " << j;
    }
  }
}

}  // namespace
}  // namespace revelio
