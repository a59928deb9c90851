#include "crypto/sha2.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "crypto/cpu_features.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace revelio::crypto {

namespace {

constexpr std::uint32_t kK256[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint64_t kK512[80] = {
    0x428a2f98d728ae22ULL, 0x7137449123ef65cdULL, 0xb5c0fbcfec4d3b2fULL,
    0xe9b5dba58189dbbcULL, 0x3956c25bf348b538ULL, 0x59f111f1b605d019ULL,
    0x923f82a4af194f9bULL, 0xab1c5ed5da6d8118ULL, 0xd807aa98a3030242ULL,
    0x12835b0145706fbeULL, 0x243185be4ee4b28cULL, 0x550c7dc3d5ffb4e2ULL,
    0x72be5d74f27b896fULL, 0x80deb1fe3b1696b1ULL, 0x9bdc06a725c71235ULL,
    0xc19bf174cf692694ULL, 0xe49b69c19ef14ad2ULL, 0xefbe4786384f25e3ULL,
    0x0fc19dc68b8cd5b5ULL, 0x240ca1cc77ac9c65ULL, 0x2de92c6f592b0275ULL,
    0x4a7484aa6ea6e483ULL, 0x5cb0a9dcbd41fbd4ULL, 0x76f988da831153b5ULL,
    0x983e5152ee66dfabULL, 0xa831c66d2db43210ULL, 0xb00327c898fb213fULL,
    0xbf597fc7beef0ee4ULL, 0xc6e00bf33da88fc2ULL, 0xd5a79147930aa725ULL,
    0x06ca6351e003826fULL, 0x142929670a0e6e70ULL, 0x27b70a8546d22ffcULL,
    0x2e1b21385c26c926ULL, 0x4d2c6dfc5ac42aedULL, 0x53380d139d95b3dfULL,
    0x650a73548baf63deULL, 0x766a0abb3c77b2a8ULL, 0x81c2c92e47edaee6ULL,
    0x92722c851482353bULL, 0xa2bfe8a14cf10364ULL, 0xa81a664bbc423001ULL,
    0xc24b8b70d0f89791ULL, 0xc76c51a30654be30ULL, 0xd192e819d6ef5218ULL,
    0xd69906245565a910ULL, 0xf40e35855771202aULL, 0x106aa07032bbd1b8ULL,
    0x19a4c116b8d2d0c8ULL, 0x1e376c085141ab53ULL, 0x2748774cdf8eeb99ULL,
    0x34b0bcb5e19b48a8ULL, 0x391c0cb3c5c95a63ULL, 0x4ed8aa4ae3418acbULL,
    0x5b9cca4f7763e373ULL, 0x682e6ff3d6b2b8a3ULL, 0x748f82ee5defb2fcULL,
    0x78a5636f43172f60ULL, 0x84c87814a1f0ab72ULL, 0x8cc702081a6439ecULL,
    0x90befffa23631e28ULL, 0xa4506cebde82bde9ULL, 0xbef9a3f7b2c67915ULL,
    0xc67178f2e372532bULL, 0xca273eceea26619cULL, 0xd186b8c721c0c207ULL,
    0xeada7dd6cde0eb1eULL, 0xf57d4f7fee6ed178ULL, 0x06f067aa72176fbaULL,
    0x0a637dc5a2c898a6ULL, 0x113f9804bef90daeULL, 0x1b710b35131c471bULL,
    0x28db77f523047d84ULL, 0x32caab7b40c72493ULL, 0x3c9ebe0a15c9bebcULL,
    0x431d67c49c100d4cULL, 0x4cc5d4becb3e42b6ULL, 0x597f299cfc657e2aULL,
    0x5fcb6fab3ad6faecULL, 0x6c44198c4a475817ULL};

inline std::uint32_t rotr32(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}
inline std::uint64_t rotr64(std::uint64_t x, int n) {
  return (x >> n) | (x << (64 - n));
}

// --- SHA-256 multi-block compression cores -------------------------------
//
// The streaming class below feeds whole runs of 64-byte blocks into one of
// two cores chosen once at first use: a portable scalar core with the
// message schedule kept in a rolling 16-word ring and the round function
// unrolled 8-wide (no 64-entry W spill), or a SHA-NI core on x86-64 CPUs
// that have it. Both produce identical digests; the FIPS 180-4 KATs in
// tests/test_crypto.cpp run against whichever core the host dispatches to,
// and REVELIO_NO_ISA=1 forces the scalar core for differential testing.
// sha256_many runs groups of 16 equal-length messages through a third,
// 16-lane AVX-512 core when cpu_has_avx512() says so, and everything else
// through the one-stream cores.

constexpr std::uint32_t kIv256[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                     0xa54ff53a, 0x510e527f, 0x9b05688c,
                                     0x1f83d9ab, 0x5be0cd19};

inline std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

#define REV_SIG0(x) (rotr32((x), 7) ^ rotr32((x), 18) ^ ((x) >> 3))
#define REV_SIG1(x) (rotr32((x), 17) ^ rotr32((x), 19) ^ ((x) >> 10))
#define REV_RND(a, b, c, d, e, f, g, h, kw)                                  \
  do {                                                                       \
    const std::uint32_t t1 =                                                 \
        (h) + (rotr32((e), 6) ^ rotr32((e), 11) ^ rotr32((e), 25)) +         \
        (((e) & (f)) ^ (~(e) & (g))) + (kw);                                 \
    const std::uint32_t t2 =                                                 \
        (rotr32((a), 2) ^ rotr32((a), 13) ^ rotr32((a), 22)) +               \
        (((a) & (b)) ^ ((a) & (c)) ^ ((b) & (c)));                           \
    (d) += t1;                                                               \
    (h) = t1 + t2;                                                           \
  } while (0)
#define REV_W(i) w[(i) & 15]
#define REV_SCHED(i)                                                         \
  (REV_W(i) += REV_SIG1(REV_W((i) + 14)) + REV_W((i) + 9) +                  \
               REV_SIG0(REV_W((i) + 1)))
// Eight rounds with the working variables rotated through the argument
// list instead of shuffled through a temp, starting at round `i`.
#define REV_RND8(i, KW)                                                      \
  do {                                                                       \
    REV_RND(a, b, c, d, e, f, g, h, kK256[(i) + 0] + KW((i) + 0));           \
    REV_RND(h, a, b, c, d, e, f, g, kK256[(i) + 1] + KW((i) + 1));           \
    REV_RND(g, h, a, b, c, d, e, f, kK256[(i) + 2] + KW((i) + 2));           \
    REV_RND(f, g, h, a, b, c, d, e, kK256[(i) + 3] + KW((i) + 3));           \
    REV_RND(e, f, g, h, a, b, c, d, kK256[(i) + 4] + KW((i) + 4));           \
    REV_RND(d, e, f, g, h, a, b, c, kK256[(i) + 5] + KW((i) + 5));           \
    REV_RND(c, d, e, f, g, h, a, b, kK256[(i) + 6] + KW((i) + 6));           \
    REV_RND(b, c, d, e, f, g, h, a, kK256[(i) + 7] + KW((i) + 7));           \
  } while (0)

void compress256_scalar(std::uint32_t* state, const std::uint8_t* p,
                        std::size_t blocks) {
  while (blocks-- > 0) {
    std::uint32_t w[16];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(p + 4 * i);
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    REV_RND8(0, REV_W);
    REV_RND8(8, REV_W);
    REV_RND8(16, REV_SCHED);
    REV_RND8(24, REV_SCHED);
    REV_RND8(32, REV_SCHED);
    REV_RND8(40, REV_SCHED);
    REV_RND8(48, REV_SCHED);
    REV_RND8(56, REV_SCHED);
    state[0] += a; state[1] += b; state[2] += c; state[3] += d;
    state[4] += e; state[5] += f; state[6] += g; state[7] += h;
    p += 64;
  }
}

#undef REV_RND8
#undef REV_SCHED
#undef REV_W
#undef REV_RND
#undef REV_SIG1
#undef REV_SIG0

#if defined(__x86_64__)
// SHA-NI cores. SHA256RNDS2 runs two rounds on the state held as an
// ABEF/CDGH register pair and consumes packed K+W words; the layout
// transforms at entry/exit follow the canonical Intel sequence. A message
// schedule is four 16-byte vectors, each quad round replacing the oldest.

#define REV_SHANI __attribute__((target("sha,sse4.1")))

REV_SHANI inline void shani_load(const std::uint32_t* state, __m128i& abef,
                                 __m128i& cdgh) {
  const __m128i cdab = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  abef = _mm_alignr_epi8(cdab, efgh, 8);
  cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
}

REV_SHANI inline void shani_store(std::uint32_t* state, __m128i abef,
                                  __m128i cdgh) {
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));  // DCBA
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));  // HGFE
}

REV_SHANI inline __m128i shani_msg(const std::uint8_t* p, int j) {
  const __m128i kShuffle =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  return _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16 * j)), kShuffle);
}

REV_SHANI void compress256_shani(std::uint32_t* state, const std::uint8_t* p,
                                 std::size_t blocks) {
  __m128i state0, state1;
  shani_load(state, state0, state1);
  while (blocks-- > 0) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;

    __m128i msgs[4];
    for (int j = 0; j < 4; ++j) msgs[j] = shani_msg(p, j);
    for (int j = 0; j < 16; ++j) {
      if (j >= 4) {
        // W[j] = msg2(msg1(W[j-4], W[j-3]) + alignr(W[j-1], W[j-2]), W[j-1])
        __m128i x = _mm_sha256msg1_epu32(msgs[j & 3], msgs[(j + 1) & 3]);
        x = _mm_add_epi32(
            x, _mm_alignr_epi8(msgs[(j + 3) & 3], msgs[(j + 2) & 3], 4));
        msgs[j & 3] = _mm_sha256msg2_epu32(x, msgs[(j + 3) & 3]);
      }
      __m128i kw = _mm_add_epi32(
          msgs[j & 3],
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK256[4 * j])));
      state1 = _mm_sha256rnds2_epu32(state1, state0, kw);
      kw = _mm_shuffle_epi32(kw, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, kw);
    }
    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
    p += 64;
  }
  shani_store(state, state0, state1);
}

#undef REV_SHANI

// 16-lane AVX-512 core: lane l of every zmm holds message l's word, so one
// pass runs the FIPS 180-4 rounds for 16 messages at once. `vprord` is a
// rotate in one instruction and `vpternlogd` a three-input XOR, Ch or Maj
// in one, so a round is 16 vector instructions for 16 blocks. The schedule
// is the scalar core's rolling 16-word ring, one zmm per word.

#define REV_AVX512 __attribute__((target("avx512f,avx512bw")))

// GCC 12's unmasked AVX-512 intrinsics pass a self-initialized
// _mm512_undefined_epi32() as the ignored merge source, which
// -Wuninitialized reports once they are inlined here (a false positive
// that later GCC releases no longer emit).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif

#define REV_X_XOR3(a, b, c) _mm512_ternarylogic_epi32((a), (b), (c), 0x96)
#define REV_X_SIG0(x)                                                       \
  REV_X_XOR3(_mm512_ror_epi32((x), 7), _mm512_ror_epi32((x), 18),           \
             _mm512_srli_epi32((x), 3))
#define REV_X_SIG1(x)                                                       \
  REV_X_XOR3(_mm512_ror_epi32((x), 17), _mm512_ror_epi32((x), 19),          \
             _mm512_srli_epi32((x), 10))
// t1 = h + K+W + Σ1(e) + Ch(e, f, g) and t2 = Σ0(a) + Maj(a, b, c), with
// Ch and Maj as ternary-logic truth tables (0xCA: e ? f : g; 0xE8: the
// majority of a, b, c).
#define REV_X_RND(a, b, c, d, e, f, g, h, kw)                               \
  do {                                                                      \
    const __m512i t1 = _mm512_add_epi32(                                    \
        _mm512_add_epi32((h), (kw)),                                        \
        _mm512_add_epi32(                                                   \
            REV_X_XOR3(_mm512_ror_epi32((e), 6), _mm512_ror_epi32((e), 11), \
                       _mm512_ror_epi32((e), 25)),                          \
            _mm512_ternarylogic_epi32((e), (f), (g), 0xCA)));               \
    const __m512i t2 = _mm512_add_epi32(                                    \
        REV_X_XOR3(_mm512_ror_epi32((a), 2), _mm512_ror_epi32((a), 13),     \
                   _mm512_ror_epi32((a), 22)),                              \
        _mm512_ternarylogic_epi32((a), (b), (c), 0xE8));                    \
    (d) = _mm512_add_epi32((d), t1);                                        \
    (h) = _mm512_add_epi32(t1, t2);                                         \
  } while (0)
#define REV_X_W(i) w[(i) & 15]
#define REV_X_KW(i) _mm512_add_epi32(REV_X_W(i), _mm512_set1_epi32(kK256[i]))
#define REV_X_SCHED_KW(i)                                                   \
  (REV_X_W(i) = _mm512_add_epi32(                                           \
       _mm512_add_epi32(REV_X_W(i), REV_X_SIG1(REV_X_W((i) + 14))),         \
       _mm512_add_epi32(REV_X_W((i) + 9), REV_X_SIG0(REV_X_W((i) + 1)))),   \
   REV_X_KW(i))
#define REV_X_RND8(i, KW)                                                   \
  do {                                                                      \
    REV_X_RND(a, b, c, d, e, f, g, h, KW((i) + 0));                         \
    REV_X_RND(h, a, b, c, d, e, f, g, KW((i) + 1));                         \
    REV_X_RND(g, h, a, b, c, d, e, f, KW((i) + 2));                         \
    REV_X_RND(f, g, h, a, b, c, d, e, KW((i) + 3));                         \
    REV_X_RND(e, f, g, h, a, b, c, d, KW((i) + 4));                         \
    REV_X_RND(d, e, f, g, h, a, b, c, KW((i) + 5));                         \
    REV_X_RND(c, d, e, f, g, h, a, b, KW((i) + 6));                         \
    REV_X_RND(b, c, d, e, f, g, h, a, KW((i) + 7));                         \
  } while (0)

// Each 32-bit word's bytes reversed: big-endian words to native and back.
REV_AVX512 inline __m512i x16_bswap(__m512i v) {
  return _mm512_shuffle_epi8(
      v, _mm512_broadcast_i32x4(_mm_set_epi8(12, 13, 14, 15, 8, 9, 10, 11, 4,
                                             5, 6, 7, 0, 1, 2, 3)));
}

// One 64-byte block of each lane, lane l's at p + l * stride (stride 0
// gives every lane the same block), into the 16 lanes' states. The blocks
// load as 16 rows and a 16x16 transpose of 32-bit words makes w[j] word j
// of every lane: 32-bit unpacks pair rows, 64-bit unpacks make quads, and
// two rounds of 128-bit lane shuffles put each column's four quads in
// order. It measured faster than 16 gathers with 32-bit offsets
// (EXPERIMENTS, "Sixteen dm-verity blocks per SHA-256 pass") and takes
// any stride.
REV_AVX512 inline void x16_block(__m512i* st, const std::uint8_t* p,
                                 std::size_t stride) {
  __m512i r[16];
  for (int l = 0; l < 16; ++l) r[l] = _mm512_loadu_si512(p + l * stride);
  __m512i s[16];
  for (int i = 0; i < 16; i += 2) {
    s[i] = _mm512_unpacklo_epi32(r[i], r[i + 1]);
    s[i + 1] = _mm512_unpackhi_epi32(r[i], r[i + 1]);
  }
  // u[4 i + c]'s 128-bit lane q: word 4 q + c of rows 4 i .. 4 i + 3.
  __m512i u[16];
  for (int i = 0; i < 16; i += 4) {
    u[i] = _mm512_unpacklo_epi64(s[i], s[i + 2]);
    u[i + 1] = _mm512_unpackhi_epi64(s[i], s[i + 2]);
    u[i + 2] = _mm512_unpacklo_epi64(s[i + 1], s[i + 3]);
    u[i + 3] = _mm512_unpackhi_epi64(s[i + 1], s[i + 3]);
  }
  __m512i w[16];
  for (int c = 0; c < 4; ++c) {
    const __m512i v0 = _mm512_shuffle_i32x4(u[c], u[4 + c], 0x44);
    const __m512i v1 = _mm512_shuffle_i32x4(u[c], u[4 + c], 0xEE);
    const __m512i v2 = _mm512_shuffle_i32x4(u[8 + c], u[12 + c], 0x44);
    const __m512i v3 = _mm512_shuffle_i32x4(u[8 + c], u[12 + c], 0xEE);
    w[c] = x16_bswap(_mm512_shuffle_i32x4(v0, v2, 0x88));
    w[4 + c] = x16_bswap(_mm512_shuffle_i32x4(v0, v2, 0xDD));
    w[8 + c] = x16_bswap(_mm512_shuffle_i32x4(v1, v3, 0x88));
    w[12 + c] = x16_bswap(_mm512_shuffle_i32x4(v1, v3, 0xDD));
  }
  __m512i a = st[0], b = st[1], c = st[2], d = st[3];
  __m512i e = st[4], f = st[5], g = st[6], h = st[7];
  REV_X_RND8(0, REV_X_KW);
  REV_X_RND8(8, REV_X_KW);
  REV_X_RND8(16, REV_X_SCHED_KW);
  REV_X_RND8(24, REV_X_SCHED_KW);
  REV_X_RND8(32, REV_X_SCHED_KW);
  REV_X_RND8(40, REV_X_SCHED_KW);
  REV_X_RND8(48, REV_X_SCHED_KW);
  REV_X_RND8(56, REV_X_SCHED_KW);
  st[0] = _mm512_add_epi32(st[0], a);
  st[1] = _mm512_add_epi32(st[1], b);
  st[2] = _mm512_add_epi32(st[2], c);
  st[3] = _mm512_add_epi32(st[3], d);
  st[4] = _mm512_add_epi32(st[4], e);
  st[5] = _mm512_add_epi32(st[5], f);
  st[6] = _mm512_add_epi32(st[6], g);
  st[7] = _mm512_add_epi32(st[7], h);
}

// out[l] = SHA-256 of the `len` bytes at p + l * len, for l < 16, where
// len is a multiple of 64: the whole blocks, then the one padding block
// every lane shares (0x80, zeros, the bit length). Stack only.
REV_AVX512 void sha256_x16(const std::uint8_t* p, std::size_t len,
                           Digest32* out) {
  __m512i st[8];
  for (int i = 0; i < 8; ++i) {
    st[i] = _mm512_set1_epi32(static_cast<int>(kIv256[i]));
  }
  for (std::size_t off = 0; off < len; off += 64) {
    x16_block(st, p + off, len);
  }
  std::uint8_t pad[64] = {0x80};
  const std::uint64_t bit_len = static_cast<std::uint64_t>(len) * 8;
  for (int i = 0; i < 8; ++i) {
    pad[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  x16_block(st, pad, 0);
  // Big-endian words, then lane l's eight words are digest l.
  alignas(64) std::uint32_t words[8][16];
  for (int i = 0; i < 8; ++i) _mm512_store_si512(words[i], x16_bswap(st[i]));
  for (int l = 0; l < 16; ++l) {
    for (int i = 0; i < 8; ++i) std::memcpy(&out[l][4 * i], &words[i][l], 4);
  }
}

#undef REV_X_RND8
#undef REV_X_SCHED_KW
#undef REV_X_KW
#undef REV_X_W
#undef REV_X_RND
#undef REV_X_SIG1
#undef REV_X_SIG0
#undef REV_X_XOR3
#undef REV_AVX512
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif  // __x86_64__

using Compress256Fn = void (*)(std::uint32_t*, const std::uint8_t*,
                               std::size_t);
Compress256Fn resolve_compress256() {
#if defined(__x86_64__)
  if (cpu_has_sha_ni()) return compress256_shani;
#endif
  return compress256_scalar;
}

void compress256(std::uint32_t* state, const std::uint8_t* p,
                 std::size_t blocks) {
  static const Compress256Fn fn = resolve_compress256();
  fn(state, p, blocks);
}

}  // namespace

Sha256::Sha256() { std::memcpy(h_, kIv256, sizeof(h_)); }

void Sha256::compress(const std::uint8_t* block) {
  compress256(h_, block, 1);
}

void Sha256::update(ByteView data) {
  if (data.empty()) return;  // empty views may carry a null data()
  total_len_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buf_len_);
    std::memcpy(buf_ + buf_len_, data.data(), take);
    buf_len_ += take;
    off = take;
    if (buf_len_ == 64) {
      compress(buf_);
      buf_len_ = 0;
    }
  }
  // Whole blocks go to the dispatched core in one call so the SHA-NI loop
  // keeps its state in registers across the entire run.
  const std::size_t whole = (data.size() - off) / 64;
  if (whole > 0) {
    compress256(h_, data.data() + off, whole);
    off += whole * 64;
  }
  if (off < data.size()) {
    std::memcpy(buf_, data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
}

Digest32 Sha256::finish() {
  // One tail: 0x80, zeros up to the length field, then the bit length big
  // endian. When the 0x80 leaves no room for the length, the zeros fill
  // this block and the length goes in one more.
  const std::uint64_t bit_len = total_len_ * 8;
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > 56) {
    std::memset(buf_ + buf_len_, 0, 64 - buf_len_);
    compress(buf_);
    buf_len_ = 0;
  }
  std::memset(buf_ + buf_len_, 0, 56 - buf_len_);
  for (int i = 0; i < 8; ++i) {
    buf_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  compress(buf_);
  Digest32 out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(h_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(h_[i]);
  }
  return out;
}

Sha512Core::Sha512Core(bool is384) {
  static constexpr std::uint64_t kIv512[8] = {
      0x6a09e667f3bcc908ULL, 0xbb67ae8584caa73bULL, 0x3c6ef372fe94f82bULL,
      0xa54ff53a5f1d36f1ULL, 0x510e527fade682d1ULL, 0x9b05688c2b3e6c1fULL,
      0x1f83d9abfb41bd6bULL, 0x5be0cd19137e2179ULL};
  static constexpr std::uint64_t kIv384[8] = {
      0xcbbb9d5dc1059ed8ULL, 0x629a292a367cd507ULL, 0x9159015a3070dd17ULL,
      0x152fecd8f70e5939ULL, 0x67332667ffc00b31ULL, 0x8eb44a8768581511ULL,
      0xdb0c2e0d64f98fa7ULL, 0x47b5481dbefa4fa4ULL};
  std::memcpy(h_, is384 ? kIv384 : kIv512, sizeof(h_));
}

void Sha512Core::compress(const std::uint8_t* block) {
  std::uint64_t w[80];
  for (int i = 0; i < 16; ++i) {
    std::uint64_t v = 0;
    for (int b = 0; b < 8; ++b) v = (v << 8) | block[8 * i + b];
    w[i] = v;
  }
  for (int i = 16; i < 80; ++i) {
    const std::uint64_t s0 =
        rotr64(w[i - 15], 1) ^ rotr64(w[i - 15], 8) ^ (w[i - 15] >> 7);
    const std::uint64_t s1 =
        rotr64(w[i - 2], 19) ^ rotr64(w[i - 2], 61) ^ (w[i - 2] >> 6);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint64_t a = h_[0], b = h_[1], c = h_[2], d = h_[3];
  std::uint64_t e = h_[4], f = h_[5], g = h_[6], h = h_[7];
  for (int i = 0; i < 80; ++i) {
    const std::uint64_t s1 = rotr64(e, 14) ^ rotr64(e, 18) ^ rotr64(e, 41);
    const std::uint64_t ch = (e & f) ^ (~e & g);
    const std::uint64_t t1 = h + s1 + ch + kK512[i] + w[i];
    const std::uint64_t s0 = rotr64(a, 28) ^ rotr64(a, 34) ^ rotr64(a, 39);
    const std::uint64_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint64_t t2 = s0 + maj;
    h = g; g = f; f = e; e = d + t1;
    d = c; c = b; b = a; a = t1 + t2;
  }
  h_[0] += a; h_[1] += b; h_[2] += c; h_[3] += d;
  h_[4] += e; h_[5] += f; h_[6] += g; h_[7] += h;
}

void Sha512Core::update(ByteView data) {
  if (data.empty()) return;  // empty views may carry a null data()
  total_len_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0) {
    const std::size_t take = std::min(data.size(), 128 - buf_len_);
    std::memcpy(buf_ + buf_len_, data.data(), take);
    buf_len_ += take;
    off = take;
    if (buf_len_ == 128) {
      compress(buf_);
      buf_len_ = 0;
    }
  }
  while (off + 128 <= data.size()) {
    compress(data.data() + off);
    off += 128;
  }
  if (off < data.size()) {
    std::memcpy(buf_, data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
}

Digest64 Sha512Core::finish_raw() {
  // As Sha256::finish, with a 128-bit length field whose high half is 0.
  const std::uint64_t bit_len = total_len_ * 8;
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > 112) {
    std::memset(buf_ + buf_len_, 0, 128 - buf_len_);
    compress(buf_);
    buf_len_ = 0;
  }
  std::memset(buf_ + buf_len_, 0, 120 - buf_len_);
  for (int i = 0; i < 8; ++i) {
    buf_[120 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  compress(buf_);
  Digest64 out;
  for (int i = 0; i < 8; ++i) {
    for (int b = 0; b < 8; ++b) {
      out[8 * i + b] = static_cast<std::uint8_t>(h_[i] >> (56 - 8 * b));
    }
  }
  return out;
}

Digest32 sha256(ByteView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

void sha256_many(ByteView msgs, std::size_t len, std::span<Digest32> out) {
  assert(msgs.size() == len * out.size());
  std::size_t i = 0;
#if defined(__x86_64__)
  if (len % 64 == 0 && cpu_has_avx512()) {
    for (; i + 16 <= out.size(); i += 16) {
      sha256_x16(msgs.data() + i * len, len, &out[i]);
    }
  }
#endif
  for (; i < out.size(); ++i) out[i] = sha256(msgs.subspan(i * len, len));
}

Digest48 sha384(ByteView data) {
  Sha384 h;
  h.update(data);
  return h.finish();
}

Digest64 sha512(ByteView data) {
  Sha512 h;
  h.update(data);
  return h.finish();
}

}  // namespace revelio::crypto
