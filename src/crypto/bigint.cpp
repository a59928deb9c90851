#include "crypto/bigint.hpp"

#include <bit>
#include <cassert>

#include "common/hex.hpp"

namespace revelio::crypto {

using uint128 = unsigned __int128;

U384 U384::from_bytes_be(ByteView bytes) {
  assert(bytes.size() <= 48);
  U384 r;
  std::size_t limb = 0;
  std::size_t shift = 0;
  for (std::size_t i = bytes.size(); i-- > 0;) {
    r.limbs[limb] |= static_cast<std::uint64_t>(bytes[i]) << shift;
    shift += 8;
    if (shift == 64) {
      shift = 0;
      ++limb;
    }
  }
  return r;
}

U384 U384::from_hex(std::string_view hex) {
  auto bytes = revelio::from_hex(hex);
  assert(bytes.has_value());
  return from_bytes_be(*bytes);
}

Bytes U384::to_bytes_be(std::size_t length) const {
  Bytes out(length, 0);
  for (std::size_t i = 0; i < length && i < 48; ++i) {  // from the little end
    out[length - 1 - i] =
        static_cast<std::uint8_t>(limbs[i / 8] >> (8 * (i % 8)));
  }
  return out;
}

std::size_t U384::bit_length() const {
  for (std::size_t i = kLimbs; i-- > 0;) {
    if (limbs[i] != 0) return 64 * i + std::bit_width(limbs[i]);
  }
  return 0;
}

int U384::cmp(const U384& other) const {
  for (std::size_t i = kLimbs; i-- > 0;) {
    if (limbs[i] != other.limbs[i]) {
      return limbs[i] < other.limbs[i] ? -1 : 1;
    }
  }
  return 0;
}

namespace {

// K-limb kernels over the low K limbs of U384 values. Limbs at and above K
// are neither read nor written, so they stay zero in a fresh result. The
// modular ones are forced inline so MontCtx's per-width dispatch costs a
// branch, not a second call.

template <std::size_t K>
std::uint64_t add_k(U384& r, const U384& a, const U384& b) {
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < K; ++i) {
    const uint128 sum = static_cast<uint128>(a.limbs[i]) + b.limbs[i] + carry;
    r.limbs[i] = static_cast<std::uint64_t>(sum);
    carry = static_cast<std::uint64_t>(sum >> 64);
  }
  return carry;
}

template <std::size_t K>
std::uint64_t sub_k(U384& r, const U384& a, const U384& b) {
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < K; ++i) {
    const uint128 diff = static_cast<uint128>(a.limbs[i]) -
                         static_cast<uint128>(b.limbs[i]) - borrow;
    r.limbs[i] = static_cast<std::uint64_t>(diff);
    borrow = static_cast<std::uint64_t>((diff >> 64) & 1);
  }
  return borrow;
}

template <std::size_t K>
bool less_k(const U384& a, const U384& b) {
  for (std::size_t i = K; i-- > 0;) {
    if (a.limbs[i] != b.limbs[i]) return a.limbs[i] < b.limbs[i];
  }
  return false;
}

template <std::size_t K>
[[gnu::always_inline]] inline U384 mod_add(const U384& a, const U384& b,
                                           const U384& m) {
  U384 r;
  // A carry out of limb K-1 means r >= 2^(64K) > m; the K-limb subtraction
  // then wraps back exactly once, dropping the carry with its borrow.
  if (add_k<K>(r, a, b) || !less_k<K>(r, m)) sub_k<K>(r, r, m);
  return r;
}

template <std::size_t K>
[[gnu::always_inline]] inline U384 mod_sub(const U384& a, const U384& b,
                                           const U384& m) {
  U384 r;
  if (sub_k<K>(r, a, b)) add_k<K>(r, r, m);
  return r;
}

/// CIOS Montgomery multiplication a*b*2^(-64K) mod m, with one extra limb of
/// headroom. Requires a, b < 2^(64K) and one of them < m, so the result
/// before the final subtraction is below 2m.
template <std::size_t K>
[[gnu::always_inline]] inline U384 mont_mul(const U384& a, const U384& b,
                                            const U384& m, std::uint64_t n0) {
  std::uint64_t t[K + 2] = {};

  // Fully unrolled (K <= 6), so t[] lives in registers.
#pragma GCC unroll 6
  for (std::size_t i = 0; i < K; ++i) {
    // t += a * b[i]
    std::uint64_t carry = 0;
#pragma GCC unroll 6
    for (std::size_t j = 0; j < K; ++j) {
      const uint128 cur =
          static_cast<uint128>(a.limbs[j]) * b.limbs[i] + t[j] + carry;
      t[j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    uint128 cur = static_cast<uint128>(t[K]) + carry;
    t[K] = static_cast<std::uint64_t>(cur);
    t[K + 1] = static_cast<std::uint64_t>(cur >> 64);

    // Reduce: add mu * m and shift one limb.
    const std::uint64_t mu = t[0] * n0;
    cur = static_cast<uint128>(mu) * m.limbs[0] + t[0];
    carry = static_cast<std::uint64_t>(cur >> 64);
#pragma GCC unroll 6
    for (std::size_t j = 1; j < K; ++j) {
      cur = static_cast<uint128>(mu) * m.limbs[j] + t[j] + carry;
      t[j - 1] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    cur = static_cast<uint128>(t[K]) + carry;
    t[K - 1] = static_cast<std::uint64_t>(cur);
    t[K] = t[K + 1] + static_cast<std::uint64_t>(cur >> 64);
  }

  // The value is t[K] * 2^(64K) + r < 2m: subtract m once when the carry
  // limb is set or r >= m (the K-limb borrow cancels the carry).
  U384 r;
  for (std::size_t i = 0; i < K; ++i) r.limbs[i] = t[i];
  if (t[K] != 0 || !less_k<K>(r, m)) sub_k<K>(r, r, m);
  return r;
}

}  // namespace

std::uint64_t add_with_carry(U384& r, const U384& a, const U384& b) {
  return add_k<U384::kLimbs>(r, a, b);
}

std::uint64_t sub_with_borrow(U384& r, const U384& a, const U384& b) {
  return sub_k<U384::kLimbs>(r, a, b);
}

MontCtx::MontCtx(const U384& modulus)
    : m_(modulus), k_(modulus.bit_length() <= 256 ? 4 : U384::kLimbs) {
  assert((m_.limbs[0] & 1) == 1 && "Montgomery modulus must be odd");

  // n0 = -m^-1 mod 2^64 via Newton iteration: x_{k+1} = x_k (2 - m x_k).
  std::uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) {
    inv *= 2 - m_.limbs[0] * inv;
  }
  n0_ = ~inv + 1;  // negate mod 2^64

  // one_ = R mod m, r2_ = R^2 mod m and wide_ = 2^384 R mod m, by modular
  // doublings starting from 1. No division needed.
  const std::size_t r_bits = 64 * k_;
  U384 t = U384::from_u64(1);
  for (std::size_t i = 1; i <= 384 + r_bits; ++i) {
    t = mod_add<6>(t, t, m_);
    if (i == r_bits) one_ = t;
    if (i == 2 * r_bits) r2_ = t;
  }
  wide_ = t;
}

U384 MontCtx::to_mont(const U384& a) const {
  // An input wider than K limbs takes one 6-limb multiplication by
  // 2^384 R: a * 2^384 R / 2^384 = a R mod m.
  if (a.bit_length() > 64 * k_) return mont_mul<6>(a, wide_, m_, n0_);
  return mul(a, r2_);
}

U384 MontCtx::mul(const U384& a, const U384& b) const {
  return k_ == 4 ? mont_mul<4>(a, b, m_, n0_) : mont_mul<6>(a, b, m_, n0_);
}

U384 MontCtx::add(const U384& a, const U384& b) const {
  return k_ == 4 ? mod_add<4>(a, b, m_) : mod_add<6>(a, b, m_);
}

U384 MontCtx::sub(const U384& a, const U384& b) const {
  return k_ == 4 ? mod_sub<4>(a, b, m_) : mod_sub<6>(a, b, m_);
}

U384 MontCtx::pow(const U384& a, const U384& e) const {
  std::array<U384, 16> table{one_, a};  // a^0..a^15
  for (std::size_t i = 2; i < table.size(); ++i) {
    table[i] = mul(table[i - 1], a);
  }
  // Exponent nibbles, most significant first (none straddles a limb). The
  // leading nibble is nonzero and needs no squarings.
  const std::size_t windows = (e.bit_length() + 3) / 4;
  U384 result = one_;
  for (std::size_t w = windows; w-- > 0;) {
    const std::uint64_t digit = (e.limbs[w / 16] >> (4 * (w % 16))) & 15;
    if (w + 1 == windows) {
      result = table[digit];
      continue;
    }
    for (int i = 0; i < 4; ++i) result = mul(result, result);
    if (digit != 0) result = mul(result, table[digit]);
  }
  return result;
}

U384 MontCtx::inv(const U384& a) const {
  // Fermat: a^(m-2) mod m for prime m.
  U384 exponent;
  sub_with_borrow(exponent, m_, U384::from_u64(2));
  return pow(a, exponent);
}

std::vector<U384> MontCtx::batch_inv(const std::vector<U384>& xs) const {
  // out[i] first holds the product of xs[0..i); one inversion of the whole
  // product, peeled back one factor per element, then turns it into xs[i]^-1.
  std::vector<U384> out(xs.size());
  if (xs.empty()) return out;
  U384 acc = one_;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    out[i] = acc;
    acc = mul(acc, xs[i]);
  }
  U384 inv_acc = inv(acc);
  for (std::size_t i = xs.size(); i-- > 0;) {
    out[i] = mul(out[i], inv_acc);
    inv_acc = mul(inv_acc, xs[i]);
  }
  return out;
}

}  // namespace revelio::crypto
