// Fixed-width 384-bit unsigned integers and Montgomery modular arithmetic.
//
// U384 is sized for NIST P-384 (the curve AMD uses for VCEK signatures);
// MontCtx runs on only the limbs its modulus needs. Montgomery
// multiplication (CIOS) keeps scalar multiplication fast enough that the
// test suite's thousands of ECDSA operations stay cheap.
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
/// Every result has zero limbs above K.
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

  /// Modular addition (either domain, operands < m).
  U384 add(const U384& a, const U384& b) const;
  /// Modular subtraction (either domain, operands < m).
  U384 sub(const U384& a, const U384& b) const;

  /// a^e mod m; a in Montgomery domain, e plain; result Montgomery domain.
  /// Fixed 4-bit window: per exponent nibble, four squarings and at most
  /// one multiplication by a precomputed a^1..a^15.
  U384 pow(const U384& a, const U384& e) const;

  /// Modular inverse via Fermat (modulus must be prime); Montgomery domain.
  U384 inv(const U384& a) const;

  /// inv() of every (nonzero) element for the price of one inversion and
  /// three multiplications each (Montgomery's trick); Montgomery domain.
  std::vector<U384> batch_inv(const std::vector<U384>& xs) const;

  /// R mod m — the Montgomery representation of 1.
  U384 one() const { return one_; }

 private:
  U384 m_;
  U384 r2_;    // R^2 mod m
  U384 one_;   // R mod m
  U384 wide_;  // 2^384 * R mod m: folds inputs wider than K limbs
  std::uint64_t n0_;  // -m^-1 mod 2^64
  std::size_t k_;     // limbs the arithmetic runs on: 4 or 6
};

}  // namespace revelio::crypto
