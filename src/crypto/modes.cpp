#include "crypto/modes.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

#include "crypto/hmac.hpp"

namespace revelio::crypto {

namespace {

/// Blocks per multi-block cipher call. A 4 KiB sector is 256 blocks, so
/// XTS makes 4 calls per sector; a fixed run keeps the tweak and keystream
/// buffers on the stack (1 KiB each) whatever the data-unit size.
constexpr std::size_t kRunBlocks = 64;

// Little-endian 64-bit words, as XTS orders the tweak's bytes.
inline std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, 8);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

inline void store_le64(std::uint8_t* p, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  std::memcpy(p, &v, 8);
}

/// block ^= mask over 16 bytes, a word at a time (XOR is byte-order
/// agnostic, so plain word copies are exact on any host).
inline void xor_block(std::uint8_t* block, const std::uint8_t* mask) {
  for (int w = 0; w < 2; ++w) {
    std::uint64_t a = 0, b = 0;
    std::memcpy(&a, block + 8 * w, 8);
    std::memcpy(&b, mask + 8 * w, 8);
    a ^= b;
    std::memcpy(block + 8 * w, &a, 8);
  }
}

}  // namespace

AesXts::AesXts(ByteView key)
    : data_cipher_(key.subspan(0, key.size() / 2)),
      tweak_cipher_(key.subspan(key.size() / 2)) {
  assert(key.size() == 32 || key.size() == 64);
}

void AesXts::process_sector(std::uint64_t sector,
                            std::span<std::uint8_t> data,
                            bool encrypt) const {
  assert(!data.empty() && data.size() % 16 == 0);
  // plain64 tweak: little-endian sector number in the first 8 bytes.
  std::uint8_t t[16] = {};
  store_le64(t, sector);
  tweak_cipher_.encrypt_block(t, t);
  std::uint64_t lo = load_le64(t);
  std::uint64_t hi = load_le64(t + 8);

  // Per run: whiten each block with its tweak, one multi-block cipher call
  // over the run, whiten again. The tweak for block j + 1 is tweak j times
  // alpha in GF(2^128): one word-wise shift with the x^128 = x^7+x^2+x+1
  // (0x87) fold.
  std::uint8_t tweaks[16 * kRunBlocks];
  const std::size_t blocks = data.size() / 16;
  for (std::size_t first = 0; first < blocks; first += kRunBlocks) {
    const std::size_t run = std::min(kRunBlocks, blocks - first);
    std::uint8_t* p = data.data() + 16 * first;
    for (std::size_t i = 0; i < run; ++i) {
      store_le64(tweaks + 16 * i, lo);
      store_le64(tweaks + 16 * i + 8, hi);
      xor_block(p + 16 * i, tweaks + 16 * i);
      const std::uint64_t carry = hi >> 63;
      hi = (hi << 1) | (lo >> 63);
      lo = (lo << 1) ^ (carry * 0x87);
    }
    if (encrypt) {
      data_cipher_.encrypt_blocks(p, p, run);
    } else {
      data_cipher_.decrypt_blocks(p, p, run);
    }
    for (std::size_t i = 0; i < run; ++i) {
      xor_block(p + 16 * i, tweaks + 16 * i);
    }
  }
}

void AesXts::encrypt_sector(std::uint64_t sector,
                            std::span<std::uint8_t> data) const {
  process_sector(sector, data, true);
}

void AesXts::decrypt_sector(std::uint64_t sector,
                            std::span<std::uint8_t> data) const {
  process_sector(sector, data, false);
}

void aes_ctr_xor(const Aes& cipher, const FixedBytes<16>& iv,
                 std::span<std::uint8_t> data) {
  std::uint8_t counter[16];
  std::memcpy(counter, iv.data.data(), 16);
  std::uint8_t keystream[16 * kRunBlocks];
  for (std::size_t off = 0; off < data.size();) {
    const std::size_t take = std::min(sizeof keystream, data.size() - off);
    const std::size_t run = (take + 15) / 16;
    for (std::size_t i = 0; i < run; ++i) {
      std::memcpy(keystream + 16 * i, counter, 16);
      // Increment the big-endian counter.
      for (int b = 15; b >= 0; --b) {
        if (++counter[b] != 0) break;
      }
    }
    cipher.encrypt_blocks(keystream, keystream, run);
    std::uint8_t* p = data.data() + off;
    std::size_t i = 0;
    for (; i + 16 <= take; i += 16) xor_block(p + i, keystream + i);
    for (; i < take; ++i) p[i] ^= keystream[i];
    off += take;
  }
}

AeadCtrHmac::AeadCtrHmac(ByteView key)
    : enc_cipher_(key.subspan(0, 32)),
      mac_key_(to_bytes(key.subspan(32, 32))) {
  assert(key.size() == kKeySize);
}

Bytes AeadCtrHmac::seal(ByteView nonce, ByteView aad,
                        ByteView plaintext) const {
  assert(nonce.size() == kNonceSize);
  Bytes ct = to_bytes(plaintext);
  aes_ctr_xor(enc_cipher_, FixedBytes<16>::from(nonce), ct);

  HmacSha256 mac(mac_key_);
  mac.update(nonce);
  Bytes aad_len;
  append_u64be(aad_len, aad.size());
  mac.update(aad_len);
  mac.update(aad);
  mac.update(ct);
  const Digest32 tag = mac.finish();

  Bytes out = concat(nonce, ct, tag.view());
  return out;
}

Result<Bytes> AeadCtrHmac::open(ByteView aad, ByteView sealed) const {
  if (sealed.size() < kOverhead) {
    return Error::make("aead.truncated", "sealed blob shorter than overhead");
  }
  const ByteView nonce = sealed.subspan(0, kNonceSize);
  const ByteView ct = sealed.subspan(kNonceSize, sealed.size() - kOverhead);
  const ByteView tag = sealed.subspan(sealed.size() - kTagSize);

  HmacSha256 mac(mac_key_);
  mac.update(nonce);
  Bytes aad_len;
  append_u64be(aad_len, aad.size());
  mac.update(aad_len);
  mac.update(aad);
  mac.update(ct);
  const Digest32 expect = mac.finish();
  if (!ct_equal(expect.view(), tag)) {
    return Error::make("aead.bad_tag", "authentication tag mismatch");
  }

  Bytes pt = to_bytes(ct);
  aes_ctr_xor(enc_cipher_, FixedBytes<16>::from(nonce), pt);
  return pt;
}

}  // namespace revelio::crypto
