// Block-cipher modes of operation.
//
//  - AES-XTS (IEEE 1619): sector-level encryption for the dm-crypt target
//    ("aes-xts-plain64" in the paper's cryptsetup configuration).
//  - AES-CTR: stream encryption substrate.
//  - AeadCtrHmac: encrypt-then-MAC AEAD (AES-256-CTR + HMAC-SHA256) used by
//    TLS-lite records and sealed-blob storage.
#pragma once

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "crypto/aes.hpp"

namespace revelio::crypto {

/// AES-XTS for fixed-size data units (sectors). The "plain64" tweak regime:
/// the tweak is the little-endian 64-bit sector number, as dm-crypt does.
class AesXts {
 public:
  /// `key` is the concatenation of the data key and the tweak key
  /// (32 or 64 bytes total).
  explicit AesXts(ByteView key);

  /// Encrypts one data unit in place. `data.size()` must be a non-zero
  /// multiple of 16: a shorter tail would be left as it is, which is why
  /// `CryptVolume` refuses any other block size.
  void encrypt_sector(std::uint64_t sector, std::span<std::uint8_t> data) const;
  void decrypt_sector(std::uint64_t sector, std::span<std::uint8_t> data) const;

 private:
  void process_sector(std::uint64_t sector, std::span<std::uint8_t> data,
                      bool encrypt) const;

  Aes data_cipher_;
  Aes tweak_cipher_;
};

/// AES-CTR keystream applied in place (encrypt == decrypt).
void aes_ctr_xor(const Aes& cipher, const FixedBytes<16>& iv,
                 std::span<std::uint8_t> data);

/// Authenticated encryption: AES-256-CTR then HMAC-SHA256 over
/// nonce || aad || ciphertext. Output layout: nonce(16) || ct || tag(32).
class AeadCtrHmac {
 public:
  /// `key` is 64 bytes: 32-byte encryption key || 32-byte MAC key.
  explicit AeadCtrHmac(ByteView key);

  /// Key size expected by the constructor.
  static constexpr std::size_t kKeySize = 64;
  static constexpr std::size_t kNonceSize = 16;
  static constexpr std::size_t kTagSize = 32;
  static constexpr std::size_t kOverhead = kNonceSize + kTagSize;

  Bytes seal(ByteView nonce, ByteView aad, ByteView plaintext) const;
  Result<Bytes> open(ByteView aad, ByteView sealed) const;

 private:
  Aes enc_cipher_;  // schedule expanded once, not per seal/open call
  Bytes mac_key_;
};

}  // namespace revelio::crypto
