// dm-crypt: transparent block encryption (aes-xts-plain64).
//
// Mirrors the paper's cryptsetup configuration (§6.3.1): AES-XTS with the
// plain64 sector tweak and PBKDF2 (1000 iterations) key-slot derivation.
// A LUKS-style header at the front of the device stores the salt, the
// iteration count and a key-check digest; the payload follows. The volume
// key itself is the SEV-SNP sealing key derived from the VM measurement,
// so only an identically-measured VM can open the volume (requirement F6).
#pragma once

#include <memory>

#include "common/bytes.hpp"
#include "crypto/modes.hpp"
#include "storage/block_device.hpp"

namespace revelio::storage {

struct CryptParams {
  std::uint32_t pbkdf2_iterations = 1000;  // paper's cryptsetup setting
};

/// Decrypted view of the payload area of a formatted crypt volume.
class DmCryptDevice final : public BlockDevice {
 public:
  DmCryptDevice(std::shared_ptr<BlockDevice> backing,
                std::uint64_t payload_first_block, ByteView xts_key);

  std::size_t block_size() const override { return backing_->block_size(); }
  std::uint64_t block_count() const override;
  Status read_block(std::uint64_t index, std::span<std::uint8_t> out) override;
  Status write_block(std::uint64_t index, ByteView data) override;

 private:
  std::shared_ptr<BlockDevice> backing_;
  std::uint64_t payload_first_block_;
  // Holding the AesXts by value caches both expanded AES key schedules
  // (data + tweak cipher) for the lifetime of the device: the per-sector
  // read/write path never re-runs key expansion. A 4 KiB sector is one
  // tweak encryption, then 256 data blocks whitened with word-wise doubled
  // tweaks and handed to the multi-block cipher (8 blocks in flight on
  // AES-NI) in runs of 64.
  crypto::AesXts xts_;
};

class CryptVolume {
 public:
  /// Formats `device`: writes the header and zero-encrypts nothing (lazy).
  /// `volume_key` is the high-entropy key (the sealing key); PBKDF2 stretches
  /// it with a fresh salt into the XTS key, exactly once at format time.
  /// Fails with `crypt.bad_block_size` unless the block size is a nonzero
  /// multiple of 16 and at least 72 bytes (the header); so does `open`.
  static Result<std::shared_ptr<DmCryptDevice>> format(
      std::shared_ptr<BlockDevice> device, ByteView volume_key,
      ByteView salt, const CryptParams& params = {});

  /// Opens a previously formatted volume; fails on a wrong key or a
  /// corrupted header.
  static Result<std::shared_ptr<DmCryptDevice>> open(
      std::shared_ptr<BlockDevice> device, ByteView volume_key);

  /// True if `device` carries a crypt header (used by first-boot detection).
  static bool is_formatted(BlockDevice& device);
};

}  // namespace revelio::storage
