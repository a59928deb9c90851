// AES block cipher (FIPS 197), key sizes 128/192/256.
//
// Two cores behind one runtime dispatch: a table-free scalar implementation
// (auditable, always compiled, the only path on non-x86 hosts or with
// REVELIO_NO_ISA=1) and an AES-NI path on CPUs that have it. The unit of
// work is a run of independent blocks (`encrypt_blocks`/`decrypt_blocks`):
// the CPU check runs once per call, and the AES-NI core keeps 8 blocks in
// flight, interleaved round by round, so the block modes hand it whole
// sectors (XTS) and counter runs (CTR) rather than one block at a time.
// The scalar core loops its single-block code. The key schedule —
// including the equivalent-inverse-cipher decryption keys the AES-NI path
// needs — is expanded exactly once, in the constructor, so per-block work
// is rounds only; DmCrypt holds one Aes per XTS half-key for the device's
// lifetime.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bytes.hpp"

namespace revelio::crypto {

class Aes {
 public:
  static constexpr std::size_t kBlockSize = 16;

  /// Key must be 16, 24 or 32 bytes. Expands both the encryption and the
  /// (equivalent inverse cipher) decryption schedules up front.
  explicit Aes(ByteView key);

  /// Runs `n` independent 16-byte blocks (ECB over `16 * n` bytes).
  /// `in == out` is allowed; other overlaps are not.
  void encrypt_blocks(const std::uint8_t* in, std::uint8_t* out,
                      std::size_t n) const;
  void decrypt_blocks(const std::uint8_t* in, std::uint8_t* out,
                      std::size_t n) const;

  void encrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const {
    encrypt_blocks(in, out, 1);
  }
  void decrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const {
    decrypt_blocks(in, out, 1);
  }

 private:
  std::uint32_t round_keys_[60];
  // Byte-serialized schedules consumed by the AES-NI kernel: the forward
  // keys verbatim, and the decryption keys already passed through
  // InvMixColumns (AESDEC's equivalent-inverse-cipher convention).
  alignas(16) std::uint8_t enc_rk_bytes_[16 * 15];
  alignas(16) std::uint8_t dec_rk_bytes_[16 * 15];
  int rounds_;
};

}  // namespace revelio::crypto
