// Short Weierstrass elliptic curves: NIST P-256 and P-384.
//
// Both curves have a = -3, which the Jacobian doubling formula exploits.
// P-384 signs SEV-SNP attestation reports and the VCEK/ASK/ARK chain
// (matching AMD's real deployment); P-256 serves VM TLS identities where
// smaller keys keep handshakes cheap.
//
// Scalar multiplication runs on three fast paths (see ec_precomp.hpp and
// DESIGN.md "Crypto fast paths"): wNAF for arbitrary points, a fixed-base
// window table for the generator, and Strauss–Shamir interleaving with a
// per-public-key LRU table cache for the u1*G + u2*Q form ECDSA
// verification needs. The naive double-and-add ladder is kept as
// `scalar_mult_naive` — the reference the property tests compare against.
//
// Field arithmetic runs on MontCtx, which sizes itself to the modulus: 4
// limbs for P-256's fields, 6 for P-384's, each with its own R = 2^(64K).
// P-256's base field takes its special-form reduction, and the Jacobian
// formulas call MontCtx::sqr wherever they square. Every to_affine pays one
// safegcd inversion, which is variable time in its input (DESIGN.md
// "Constant-time status"). Montgomery forms never leave the computations
// built on a context (the ecp layer, ECDSA's scalar algebra); every Point,
// scalar and encoding this interface exchanges is in the plain domain.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "crypto/bigint.hpp"
#include "crypto/ec_precomp.hpp"

namespace revelio::crypto {

struct CurveParams {
  std::string name;
  U384 p;   // field prime
  U384 b;   // curve coefficient (a is fixed to -3)
  U384 gx;  // base point
  U384 gy;
  U384 n;   // base point order
  std::size_t byte_length;  // field element encoding size
};

const CurveParams& p256_params();
const CurveParams& p384_params();

/// A curve with precomputed Montgomery contexts for its two prime fields
/// plus the fixed-base table for its generator.
class Curve {
 public:
  explicit Curve(const CurveParams& params);

  /// Affine point in the plain (non-Montgomery) domain.
  struct Point {
    U384 x;
    U384 y;
    bool infinity = false;

    static Point at_infinity() { return Point{{}, {}, true}; }

    /// Uncompressed SEC1 encoding: 0x04 || X || Y.
    Bytes encode(std::size_t coord_len) const;
  };

  const CurveParams& params() const { return params_; }
  const MontCtx& field() const { return fp_; }
  const MontCtx& scalar_field() const { return fn_; }

  Point generator() const { return Point{params_.gx, params_.gy, false}; }

  /// Checks y^2 == x^3 - 3x + b (mod p).
  bool on_curve(const Point& pt) const;

  Point add(const Point& a, const Point& b) const;

  /// k * pt via width-5 wNAF with an on-the-fly odd-multiples table.
  /// Both curves have cofactor 1, so k is reduced mod n first.
  Point scalar_mult(const U384& k, const Point& pt) const;

  /// k * G via the fixed-base window table: one mixed addition per nonzero
  /// signed 7-bit digit of k (about 36 on P-256, 54 on P-384), no doublings.
  Point scalar_mult_base(const U384& k) const;

  /// u1 * G + u2 * Q in one pass: fixed-base table for the G term,
  /// Strauss–Shamir over a half-length shared doubling chain for the Q term
  /// (u2 split at half the order bits against cached tables for Q and
  /// 2^half * Q). This is the ECDSA verification hot path, and the
  /// one-term case of multi_scalar_mult_base.
  Point double_scalar_mult_base(const U384& u1, const U384& u2,
                                const Point& q) const;

  /// One term of a multi-scalar sum (see multi_scalar_mult_base).
  struct MsmTerm {
    U384 scalar;
    Point point;
  };

  /// base_scalar * G + sum(full_terms) + sum(small_terms), computed over ONE
  /// interleaved Strauss–Shamir doubling ladder shared by every term — the
  /// batch-verification workhorse. Full terms expect full-width scalars and
  /// use the per-key verification tables (pinned registry, then LRU), split
  /// at half the order bits like double_scalar_mult_base. Small terms expect
  /// short scalars (batch coefficients, ~128 bits) against one-shot points;
  /// their width-4 tables are built on the fly and normalized with a single
  /// shared inversion. The G term uses the fixed-base table and costs no
  /// doublings at all.
  Point multi_scalar_mult_base(const U384& base_scalar,
                               const std::vector<MsmTerm>& full_terms,
                               const std::vector<MsmTerm>& small_terms) const;

  /// The curve point (x, y) with EVEN y for the given x coordinate, if one
  /// exists (p = 3 mod 4 on both curves, so the sqrt is one exponentiation).
  /// Batch ECDSA verification uses this to reconstruct the signer's nonce
  /// point R from r; the signer normalizes to even y so the choice of root
  /// is never ambiguous.
  std::optional<Point> lift_x_even(const U384& x) const;

  /// Builds Q's verification tables and pins them in the process-wide
  /// read-only registry (ecp::PinnedTableRegistry), so every thread from
  /// here on skips both the table build and the LRU lock for Q. Meant for
  /// the well-known long-lived bases (ARK / ASK / VCEK); a full registry
  /// degrades silently to the LRU.
  void pin_verify_tables(const Point& q) const;

  /// Reference MSB-first double-and-add ladder. Slow; exists so tests and
  /// benchmarks can compare the optimized paths against it.
  Point scalar_mult_naive(const U384& k, const Point& pt) const;

  /// Decodes an uncompressed SEC1 point and validates it. Distinct error
  /// codes let callers tell a parse failure ("ec.bad_point_encoding"),
  /// a non-canonical coordinate ("ec.coordinate_out_of_range"), and an
  /// off-curve point ("ec.point_not_on_curve") apart; a decoded point is
  /// never the point at infinity.
  Result<Point> decode_point(ByteView encoded) const;

  /// Encodes with this curve's coordinate size.
  Bytes encode_point(const Point& pt) const {
    return pt.encode(params_.byte_length);
  }

  /// Stats of the per-public-key verification table cache.
  ecp::VerifyTableCache::Stats verify_cache_stats() const {
    return verify_cache_->stats();
  }

 private:
  U384 reduce_scalar(const U384& k) const;
  Point to_affine(const ecp::Jac& p) const;
  std::shared_ptr<const ecp::VerifyTables> tables_for(const Point& q) const;
  std::shared_ptr<ecp::VerifyTables> build_verify_tables(const Point& q) const;

  CurveParams params_;
  MontCtx fp_;
  MontCtx fn_;
  U384 a_mont_;  // -3 mod p, Montgomery domain
  U384 b_mont_;
  U384 sqrt_exp_;  // (p + 1) / 4 — both primes are 3 mod 4
  unsigned half_bits_;  // Strauss–Shamir split point (multiple of 64)
  std::unique_ptr<ecp::FixedBaseTable> fixed_base_;
  std::unique_ptr<ecp::VerifyTableCache> verify_cache_;
};

/// Process-wide singletons (curve construction precomputes Montgomery
/// constants and the generator's fixed-base table; reuse them).
const Curve& p256();
const Curve& p384();

}  // namespace revelio::crypto
