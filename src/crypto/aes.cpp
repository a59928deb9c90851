#include "crypto/aes.hpp"

#include <array>
#include <cassert>
#include <cstring>

#include "crypto/cpu_features.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace revelio::crypto {

namespace {

constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

// Compile-time inverse S-box: the previous lazily-built table raced when
// two threads first used it at once (unsynchronized first-use init).
constexpr std::array<std::uint8_t, 256> build_inv_sbox() {
  std::array<std::uint8_t, 256> t{};
  for (int i = 0; i < 256; ++i) t[kSbox[i]] = static_cast<std::uint8_t>(i);
  return t;
}
constexpr std::array<std::uint8_t, 256> kInvSbox = build_inv_sbox();

const std::uint8_t* inv_sbox() { return kInvSbox.data(); }

inline std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

inline std::uint8_t gmul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    a = xtime(a);
    b >>= 1;
  }
  return p;
}

inline std::uint32_t sub_word(std::uint32_t w) {
  return (static_cast<std::uint32_t>(kSbox[(w >> 24) & 0xff]) << 24) |
         (static_cast<std::uint32_t>(kSbox[(w >> 16) & 0xff]) << 16) |
         (static_cast<std::uint32_t>(kSbox[(w >> 8) & 0xff]) << 8) |
         static_cast<std::uint32_t>(kSbox[w & 0xff]);
}

inline std::uint32_t rot_word(std::uint32_t w) { return (w << 8) | (w >> 24); }

/// InvMixColumns over one 16-byte round key (column-major, 4-byte columns).
void inv_mix_columns(std::uint8_t rk[16]) {
  for (int c = 0; c < 4; ++c) {
    std::uint8_t* col = rk + 4 * c;
    const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = static_cast<std::uint8_t>(gmul(a0, 14) ^ gmul(a1, 11) ^
                                       gmul(a2, 13) ^ gmul(a3, 9));
    col[1] = static_cast<std::uint8_t>(gmul(a0, 9) ^ gmul(a1, 14) ^
                                       gmul(a2, 11) ^ gmul(a3, 13));
    col[2] = static_cast<std::uint8_t>(gmul(a0, 13) ^ gmul(a1, 9) ^
                                       gmul(a2, 14) ^ gmul(a3, 11));
    col[3] = static_cast<std::uint8_t>(gmul(a0, 11) ^ gmul(a1, 13) ^
                                       gmul(a2, 9) ^ gmul(a3, 14));
  }
}

#if defined(__x86_64__)
constexpr std::size_t kLanes = 8;

/// The AES-NI core for both directions: `rk` is the byte-serialized
/// schedule of that direction (the decryption one already in
/// equivalent-inverse-cipher form). Round keys are loaded once per call;
/// blocks then go through the rounds 8 at a time, interleaved round by
/// round, so eight independent AESENC/AESDEC chains share the AES unit
/// instead of one block waiting out each round's latency. A tail of fewer
/// than 8 blocks runs as one narrower group. Each group is loaded before
/// it is stored, so `in == out` is fine.
template <bool kEncrypt>
__attribute__((target("aes,sse4.1"))) void aesni_blocks(
    const std::uint8_t* rk, int rounds, const std::uint8_t* in,
    std::uint8_t* out, std::size_t n) {
  __m128i k[15];
  for (int r = 0; r <= rounds; ++r) {
    k[r] = _mm_load_si128(reinterpret_cast<const __m128i*>(rk + 16 * r));
  }
  auto* src = reinterpret_cast<const __m128i*>(in);
  auto* dst = reinterpret_cast<__m128i*>(out);
  // Inlined at both calls: with the constant kLanes the eight states stay
  // in registers; the tail call takes the run-time width.
  auto group = [&](std::size_t w)
      __attribute__((always_inline, target("aes,sse4.1"))) {
    // Zeroed only so the tail's unrolled loops do not trip
    // -Wmaybe-uninitialized; the full-width path overwrites every lane.
    __m128i s[kLanes] = {};
#pragma GCC unroll 8
    for (std::size_t i = 0; i < w; ++i) {
      s[i] = _mm_xor_si128(_mm_loadu_si128(src + i), k[0]);
    }
    for (int r = 1; r < rounds; ++r) {
#pragma GCC unroll 8
      for (std::size_t i = 0; i < w; ++i) {
        s[i] = kEncrypt ? _mm_aesenc_si128(s[i], k[r])
                        : _mm_aesdec_si128(s[i], k[r]);
      }
    }
#pragma GCC unroll 8
    for (std::size_t i = 0; i < w; ++i) {
      s[i] = kEncrypt ? _mm_aesenclast_si128(s[i], k[rounds])
                      : _mm_aesdeclast_si128(s[i], k[rounds]);
      _mm_storeu_si128(dst + i, s[i]);
    }
  };
  for (; n >= kLanes; n -= kLanes, src += kLanes, dst += kLanes) group(kLanes);
  if (n > 0) group(n);
}
#endif  // __x86_64__

}  // namespace

Aes::Aes(ByteView key) {
  const std::size_t nk = key.size() / 4;
  assert(key.size() == 16 || key.size() == 24 || key.size() == 32);
  rounds_ = static_cast<int>(nk) + 6;
  const std::size_t total_words = 4 * (rounds_ + 1);
  for (std::size_t i = 0; i < nk; ++i) {
    round_keys_[i] = (static_cast<std::uint32_t>(key[4 * i]) << 24) |
                     (static_cast<std::uint32_t>(key[4 * i + 1]) << 16) |
                     (static_cast<std::uint32_t>(key[4 * i + 2]) << 8) |
                     static_cast<std::uint32_t>(key[4 * i + 3]);
  }
  std::uint32_t rcon = 0x01000000;
  for (std::size_t i = nk; i < total_words; ++i) {
    std::uint32_t temp = round_keys_[i - 1];
    if (i % nk == 0) {
      temp = sub_word(rot_word(temp)) ^ rcon;
      rcon = static_cast<std::uint32_t>(xtime(static_cast<std::uint8_t>(rcon >> 24))) << 24;
    } else if (nk > 6 && i % nk == 4) {
      temp = sub_word(temp);
    }
    round_keys_[i] = round_keys_[i - nk] ^ temp;
  }
  // Byte forms of both schedules, expanded once here so neither the AES-NI
  // kernel nor the XTS sector loop redo any schedule work per block.
  for (std::size_t i = 0; i < total_words; ++i) {
    const std::uint32_t w = round_keys_[i];
    enc_rk_bytes_[4 * i] = static_cast<std::uint8_t>(w >> 24);
    enc_rk_bytes_[4 * i + 1] = static_cast<std::uint8_t>(w >> 16);
    enc_rk_bytes_[4 * i + 2] = static_cast<std::uint8_t>(w >> 8);
    enc_rk_bytes_[4 * i + 3] = static_cast<std::uint8_t>(w);
  }
  // Equivalent inverse cipher: decryption keys are the encryption keys in
  // reverse order with InvMixColumns applied to all but the outermost two.
  for (int r = 0; r <= rounds_; ++r) {
    std::memcpy(dec_rk_bytes_ + 16 * r, enc_rk_bytes_ + 16 * (rounds_ - r), 16);
    if (r != 0 && r != rounds_) inv_mix_columns(dec_rk_bytes_ + 16 * r);
  }
}

namespace {

/// The table-free scalar core, one block at a time (`in == out` is fine:
/// the state is copied in before anything is written).
void scalar_encrypt_block(const std::uint32_t* rk, int rounds,
                          const std::uint8_t* in, std::uint8_t* out) {
  std::uint8_t s[16];
  std::memcpy(s, in, 16);
  auto add_round_key = [&](int round) {
    for (int c = 0; c < 4; ++c) {
      const std::uint32_t w = rk[4 * round + c];
      s[4 * c] ^= static_cast<std::uint8_t>(w >> 24);
      s[4 * c + 1] ^= static_cast<std::uint8_t>(w >> 16);
      s[4 * c + 2] ^= static_cast<std::uint8_t>(w >> 8);
      s[4 * c + 3] ^= static_cast<std::uint8_t>(w);
    }
  };
  add_round_key(0);
  for (int round = 1; round <= rounds; ++round) {
    // SubBytes
    for (auto& b : s) b = kSbox[b];
    // ShiftRows (state is column-major: s[4c + r])
    std::uint8_t t[16];
    for (int r = 0; r < 4; ++r) {
      for (int c = 0; c < 4; ++c) t[4 * c + r] = s[4 * ((c + r) % 4) + r];
    }
    std::memcpy(s, t, 16);
    // MixColumns (skipped in final round)
    if (round != rounds) {
      for (int c = 0; c < 4; ++c) {
        std::uint8_t* col = s + 4 * c;
        const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
        col[0] = static_cast<std::uint8_t>(xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
        col[1] = static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
        col[2] = static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
        col[3] = static_cast<std::uint8_t>((xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
      }
    }
    add_round_key(round);
  }
  std::memcpy(out, s, 16);
}

void scalar_decrypt_block(const std::uint32_t* rk, int rounds,
                          const std::uint8_t* in, std::uint8_t* out) {
  const std::uint8_t* isbox = inv_sbox();
  std::uint8_t s[16];
  std::memcpy(s, in, 16);
  auto add_round_key = [&](int round) {
    for (int c = 0; c < 4; ++c) {
      const std::uint32_t w = rk[4 * round + c];
      s[4 * c] ^= static_cast<std::uint8_t>(w >> 24);
      s[4 * c + 1] ^= static_cast<std::uint8_t>(w >> 16);
      s[4 * c + 2] ^= static_cast<std::uint8_t>(w >> 8);
      s[4 * c + 3] ^= static_cast<std::uint8_t>(w);
    }
  };
  add_round_key(rounds);
  for (int round = rounds - 1; round >= 0; --round) {
    // InvShiftRows
    std::uint8_t t[16];
    for (int r = 0; r < 4; ++r) {
      for (int c = 0; c < 4; ++c) t[4 * ((c + r) % 4) + r] = s[4 * c + r];
    }
    std::memcpy(s, t, 16);
    // InvSubBytes
    for (auto& b : s) b = isbox[b];
    add_round_key(round);
    // InvMixColumns (skipped after the last AddRoundKey)
    if (round != 0) {
      for (int c = 0; c < 4; ++c) {
        std::uint8_t* col = s + 4 * c;
        const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
        col[0] = static_cast<std::uint8_t>(gmul(a0, 14) ^ gmul(a1, 11) ^ gmul(a2, 13) ^ gmul(a3, 9));
        col[1] = static_cast<std::uint8_t>(gmul(a0, 9) ^ gmul(a1, 14) ^ gmul(a2, 11) ^ gmul(a3, 13));
        col[2] = static_cast<std::uint8_t>(gmul(a0, 13) ^ gmul(a1, 9) ^ gmul(a2, 14) ^ gmul(a3, 11));
        col[3] = static_cast<std::uint8_t>(gmul(a0, 11) ^ gmul(a1, 13) ^ gmul(a2, 9) ^ gmul(a3, 14));
      }
    }
  }
  std::memcpy(out, s, 16);
}

}  // namespace

void Aes::encrypt_blocks(const std::uint8_t* in, std::uint8_t* out,
                         std::size_t n) const {
#if defined(__x86_64__)
  if (cpu_has_aes_ni()) {
    aesni_blocks<true>(enc_rk_bytes_, rounds_, in, out, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    scalar_encrypt_block(round_keys_, rounds_, in + 16 * i, out + 16 * i);
  }
}

void Aes::decrypt_blocks(const std::uint8_t* in, std::uint8_t* out,
                         std::size_t n) const {
#if defined(__x86_64__)
  if (cpu_has_aes_ni()) {
    aesni_blocks<false>(dec_rk_bytes_, rounds_, in, out, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    scalar_decrypt_block(round_keys_, rounds_, in + 16 * i, out + 16 * i);
  }
}

}  // namespace revelio::crypto
