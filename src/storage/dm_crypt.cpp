#include "storage/dm_crypt.hpp"

#include "crypto/kdf.hpp"
#include "crypto/sha2.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace revelio::storage {

namespace {

constexpr std::uint32_t kMagic = 0x4c554b53;  // "LUKS" homage
constexpr std::uint64_t kHeaderBlocks = 1;
constexpr std::size_t kSaltSize = 32;
constexpr std::size_t kXtsKeySize = 64;
// magic(4) || iterations(4) || salt(32) || key-check digest(32)
constexpr std::size_t kHeaderSize = 8 + kSaltSize + 32;

/// One device block is one XTS data unit, so it must be whole AES blocks (a
/// tail would be left as plaintext), and block 0 must hold the whole header.
bool block_size_fits(std::size_t block_size) {
  return block_size % crypto::Aes::kBlockSize == 0 &&
         block_size >= kHeaderSize;
}

Error bad_block_size() {
  return Error::make("crypt.bad_block_size",
                     "block size must be a multiple of 16 and >= 72 bytes");
}

Bytes derive_xts_key(ByteView volume_key, ByteView salt,
                     std::uint32_t iterations) {
  return crypto::pbkdf2_sha256(volume_key, salt, iterations, kXtsKeySize);
}

/// Digest stored in the header to detect wrong keys at open time without
/// revealing the key: SHA-256 over a fixed tag and the derived key.
crypto::Digest32 key_check_digest(ByteView xts_key) {
  crypto::Sha256 h;
  h.update(to_bytes(std::string_view("revelio-crypt-keycheck")));
  h.update(xts_key);
  return h.finish();
}

}  // namespace

DmCryptDevice::DmCryptDevice(std::shared_ptr<BlockDevice> backing,
                             std::uint64_t payload_first_block,
                             ByteView xts_key)
    : backing_(std::move(backing)),
      payload_first_block_(payload_first_block),
      xts_(xts_key) {}

std::uint64_t DmCryptDevice::block_count() const {
  return backing_->block_count() - payload_first_block_;
}

Status DmCryptDevice::read_block(std::uint64_t index,
                                 std::span<std::uint8_t> out) {
  if (index >= block_count()) {
    return Error::make("blockdev.out_of_range", "crypt read past end");
  }
  static obs::Counter& blocks =
      obs::metrics().counter("storage.crypt_read.block.count");
  blocks.inc();
  if (auto st = backing_->read_block(payload_first_block_ + index, out);
      !st.ok()) {
    return st;
  }
  // plain64 sector number: index within the payload.
  xts_.decrypt_sector(index, out);
  return Status::success();
}

Status DmCryptDevice::write_block(std::uint64_t index, ByteView data) {
  if (index >= block_count()) {
    return Error::make("blockdev.out_of_range", "crypt write past end");
  }
  if (data.size() != block_size()) {
    return Error::make("blockdev.bad_buffer", "block buffer size mismatch");
  }
  static obs::Counter& blocks =
      obs::metrics().counter("storage.crypt_write.block.count");
  blocks.inc();
  Bytes ct = to_bytes(data);
  xts_.encrypt_sector(index, ct);
  return backing_->write_block(payload_first_block_ + index, ct);
}

Result<std::shared_ptr<DmCryptDevice>> CryptVolume::format(
    std::shared_ptr<BlockDevice> device, ByteView volume_key, ByteView salt,
    const CryptParams& params) {
  if (!block_size_fits(device->block_size())) return bad_block_size();
  if (device->block_count() <= kHeaderBlocks) {
    return Error::make("crypt.device_too_small");
  }
  if (salt.size() != kSaltSize) {
    return Error::make("crypt.bad_salt", "salt must be 32 bytes");
  }
  const Bytes xts_key =
      derive_xts_key(volume_key, salt, params.pbkdf2_iterations);
  const crypto::Digest32 check = key_check_digest(xts_key);

  Bytes header;
  append_u32be(header, kMagic);
  append_u32be(header, params.pbkdf2_iterations);
  append(header, salt);
  append(header, check.view());
  header.resize(device->block_size(), 0);
  if (auto st = device->write_block(0, header); !st.ok()) return st.error();

  return std::make_shared<DmCryptDevice>(std::move(device), kHeaderBlocks,
                                         xts_key);
}

Result<std::shared_ptr<DmCryptDevice>> CryptVolume::open(
    std::shared_ptr<BlockDevice> device, ByteView volume_key) {
  obs::Span span("storage.crypt.open");
  auto fail = [&span](Error error) {
    span.attr("result", error.code);
    obs::metrics()
        .counter("storage.crypt_open.fail.count", {{"reason", error.code}})
        .inc();
    return error;
  };
  if (!block_size_fits(device->block_size())) return fail(bad_block_size());
  Bytes header(device->block_size());
  if (auto st = device->read_block(0, header); !st.ok()) {
    return fail(st.error());
  }
  if (read_u32be(header, 0) != kMagic) {
    return fail(Error::make("crypt.bad_header", "missing crypt magic"));
  }
  const std::uint32_t iterations = read_u32be(header, 4);
  const ByteView salt = ByteView(header).subspan(8, kSaltSize);
  const ByteView stored_check = ByteView(header).subspan(8 + kSaltSize, 32);

  const Bytes xts_key = derive_xts_key(volume_key, salt, iterations);
  const crypto::Digest32 check = key_check_digest(xts_key);
  if (!ct_equal(check.view(), stored_check)) {
    return fail(Error::make("crypt.wrong_key",
                            "key-check digest mismatch (wrong sealing key?)"));
  }
  span.attr("result", "ok");
  return std::make_shared<DmCryptDevice>(std::move(device), kHeaderBlocks,
                                         xts_key);
}

bool CryptVolume::is_formatted(BlockDevice& device) {
  Bytes header(device.block_size());
  if (auto st = device.read_block(0, header); !st.ok()) return false;
  return header.size() >= 4 && read_u32be(header, 0) == kMagic;
}

}  // namespace revelio::storage
