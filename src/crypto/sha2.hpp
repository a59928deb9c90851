// SHA-2 family (SHA-256, SHA-384, SHA-512), implemented from FIPS 180-4.
//
// SHA-256 is the workhorse: dm-verity block hashing, measurement extension,
// HMAC/KDF substrates. SHA-384 mirrors AMD's use of SHA-384 for SEV-SNP
// launch digests and VCEK signatures (ECDSA P-384/SHA-384).
#pragma once

#include <cstdint>

#include "common/bytes.hpp"

namespace revelio::crypto {

using Digest32 = FixedBytes<32>;
using Digest48 = FixedBytes<48>;
using Digest64 = FixedBytes<64>;

/// Streaming SHA-256.
class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;
  using Digest = Digest32;

  Sha256();
  void update(ByteView data);
  Digest32 finish();

  /// Two messages at once: out_a = the digest `ctx` would finish with after
  /// update(a), out_b likewise for `b`. `a` and `b` have equal length, and
  /// their whole 64-byte blocks go through the compression core two
  /// streams per pass (interleaved on SHA-NI, one after the other on the
  /// scalar core). This is the shape of Linux's `sha256_finup_2x` for
  /// dm-verity: `ctx` holds a common prefix, there the salt.
  static void finish_2x(const Sha256& ctx, ByteView a, ByteView b,
                        Digest32& out_a, Digest32& out_b);

 private:
  void compress(const std::uint8_t* block);

  std::uint32_t h_[8];
  std::uint8_t buf_[64];
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// Streaming SHA-512 core shared by SHA-512 and SHA-384.
class Sha512Core {
 public:
  static constexpr std::size_t kBlockSize = 128;

  explicit Sha512Core(bool is384);
  void update(ByteView data);
  /// Writes the full 64-byte state; callers truncate for SHA-384.
  Digest64 finish_raw();

 private:
  void compress(const std::uint8_t* block);

  std::uint64_t h_[8];
  std::uint8_t buf_[128];
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// Streaming SHA-384 (FIPS 180-4 §5.3.4 IV, truncated SHA-512).
class Sha384 {
 public:
  static constexpr std::size_t kDigestSize = 48;
  static constexpr std::size_t kBlockSize = 128;
  using Digest = Digest48;

  Sha384() : core_(true) {}
  void update(ByteView data) { core_.update(data); }
  Digest48 finish() {
    return Digest48::from(core_.finish_raw().view().subspan(0, 48));
  }

 private:
  Sha512Core core_;
};

/// Streaming SHA-512.
class Sha512 {
 public:
  static constexpr std::size_t kDigestSize = 64;
  static constexpr std::size_t kBlockSize = 128;
  using Digest = Digest64;

  Sha512() : core_(false) {}
  void update(ByteView data) { core_.update(data); }
  Digest64 finish() { return core_.finish_raw(); }

 private:
  Sha512Core core_;
};

/// One-shot helpers.
Digest32 sha256(ByteView data);
Digest48 sha384(ByteView data);
Digest64 sha512(ByteView data);

}  // namespace revelio::crypto
