// Fixed-width 384-bit unsigned integers and Montgomery modular arithmetic.
//
// U384 is sized for NIST P-384 (the curve AMD uses for VCEK signatures);
// MontCtx runs on only the limbs its modulus needs. A Montgomery
// multiplication is one product step (a full 2K-limb product) followed by
// one reduction step (word-by-word, or P-256's special-form reduction);
// inversion is Bernstein–Yang safegcd.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"

namespace revelio::crypto {

/// 384-bit unsigned integer; little-endian limb order.
struct U384 {
  static constexpr std::size_t kLimbs = 6;
  std::array<std::uint64_t, kLimbs> limbs{};

  static U384 zero() { return U384{}; }
  static U384 from_u64(std::uint64_t v) {
    U384 r;
    r.limbs[0] = v;
    return r;
  }

  /// Big-endian byte decoding; accepts up to 48 bytes.
  static U384 from_bytes_be(ByteView bytes);

  /// Parses a hex string (no 0x prefix); must describe <= 48 bytes.
  static U384 from_hex(std::string_view hex);

  /// Big-endian byte encoding, fixed output length (zero-padded).
  Bytes to_bytes_be(std::size_t length = 48) const;

  bool is_zero() const {
    for (auto l : limbs) {
      if (l != 0) return false;
    }
    return true;
  }

  bool bit(std::size_t i) const {
    return (limbs[i / 64] >> (i % 64)) & 1;
  }

  std::size_t bit_length() const;

  /// -1 / 0 / +1 three-way comparison.
  int cmp(const U384& other) const;

  friend bool operator==(const U384& a, const U384& b) {
    return a.limbs == b.limbs;
  }
  friend bool operator<(const U384& a, const U384& b) {
    return a.cmp(b) < 0;
  }
};

/// r = a + b; returns the carry out.
std::uint64_t add_with_carry(U384& r, const U384& a, const U384& b);
/// r = a - b; returns the borrow out.
std::uint64_t sub_with_borrow(U384& r, const U384& a, const U384& b);

/// Montgomery arithmetic context for an odd modulus m < 2^384.
/// Values passed to mul/pow/inv must be in the Montgomery domain. The
/// context works on K = 4 limbs when m < 2^256 and on K = 6 otherwise, with
/// R = 2^(64K); a Montgomery form is therefore only meaningful to the
/// context that made it and never leaves the computations built on it.
/// Every result has zero limbs above K. The reduction is picked from the
/// modulus value: P-256's p gets its special-form reduction, every other
/// modulus the generic one; both give the same result bit for bit.
class MontCtx {
 public:
  explicit MontCtx(const U384& modulus);

  const U384& modulus() const { return m_; }

  /// Maps a (plain, possibly >= m, any 384-bit value) into the Montgomery
  /// domain, reducing mod m on the way.
  U384 to_mont(const U384& a) const;

  /// Maps back to the plain domain.
  U384 from_mont(const U384& a) const { return mul(a, U384::from_u64(1)); }

  /// Reduces a plain value mod m.
  U384 reduce(const U384& a) const { return from_mont(to_mont(a)); }

  /// Montgomery multiplication: a*b*R^-1 mod m.
  U384 mul(const U384& a, const U384& b) const;
  /// Montgomery squaring: mul(a, a). A dedicated squaring product
  /// measured no faster on either width.
  U384 sqr(const U384& a) const { return mul(a, a); }

  /// Modular addition (either domain, operands < m).
  U384 add(const U384& a, const U384& b) const;
  /// Modular subtraction (either domain, operands < m).
  U384 sub(const U384& a, const U384& b) const;

  /// a^e mod m; a in Montgomery domain, e plain; result Montgomery domain.
  /// Fixed 4-bit window: per exponent nibble, four squarings and at most
  /// one multiplication by a precomputed a^1..a^15. Curve code needs it only
  /// for the lift_x_even square root.
  U384 pow(const U384& a, const U384& e) const;

  /// Modular inverse by Bernstein–Yang safegcd; Montgomery domain. Valid
  /// for any odd modulus with gcd(a, m) = 1; inv(0) is 0. Variable time in
  /// a: its running time depends on the value inverted.
  U384 inv(const U384& a) const;

  /// inv() of every (nonzero) element for the price of one inversion and
  /// three multiplications each (Montgomery's trick); Montgomery domain.
  std::vector<U384> batch_inv(const std::vector<U384>& xs) const;

  /// R mod m — the Montgomery representation of 1.
  U384 one() const { return one_; }

 private:
  friend U384 mont_mul_generic(const MontCtx& ctx, const U384& a,
                               const U384& b);

  U384 m_;
  U384 r2_;    // R^2 mod m
  U384 r3_;    // R^3 mod m: lifts safegcd's (aR)^-1 back to a^-1 R
  U384 one_;   // R mod m
  U384 wide_;  // 2^384 * R mod m: folds inputs wider than K limbs
  std::array<std::int64_t, 7> m62_{};  // m in signed-62 limbs (5 or 7 used)
  std::uint64_t n0_;      // -m^-1 mod 2^64
  std::uint64_t minv62_;  // m^-1 mod 2^62
  std::size_t k_;         // limbs the arithmetic runs on: 4 or 6
  bool p256_;             // m is P-256's p: special-form reduction
};

/// The generic word-by-word Montgomery product at ctx's width, never the
/// special-form reduction: the reference the property tests hold P-256's
/// reduction to. Same contract as MontCtx::mul.
U384 mont_mul_generic(const MontCtx& ctx, const U384& a, const U384& b);

}  // namespace revelio::crypto
