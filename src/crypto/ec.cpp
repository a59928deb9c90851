#include "crypto/ec.hpp"

#include <array>
#include <cassert>

namespace revelio::crypto {

namespace {

/// wNAF window width for variable-point multiplication (16-entry tables).
constexpr unsigned kWnafWidth = 5;

/// Per-curve bound on cached per-public-key verification tables. Each entry
/// holds 32 affine points (~3 KiB); 64 entries cover a fleet's worth of
/// ARK/ASK/VCEK and TLS leaf keys while bounding memory at ~200 KiB.
constexpr std::size_t kVerifyCacheCapacity = 64;

}  // namespace

const CurveParams& p256_params() {
  static const CurveParams params{
      "P-256",
      U384::from_hex("ffffffff00000001000000000000000000000000ffffffffffffff"
                     "ffffffffff"),
      U384::from_hex("5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c"
                     "3e27d2604b"),
      U384::from_hex("6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a139"
                     "45d898c296"),
      U384::from_hex("4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb640"
                     "6837bf51f5"),
      U384::from_hex("ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9ca"
                     "c2fc632551"),
      32};
  return params;
}

const CurveParams& p384_params() {
  static const CurveParams params{
      "P-384",
      U384::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffff"
                     "ffffffffffeffffffff0000000000000000ffffffff"),
      U384::from_hex("b3312fa7e23ee7e4988e056be3f82d19181d9c6efe8141120314"
                     "088f5013875ac656398d8a2ed19d2a85c8edd3ec2aef"),
      U384::from_hex("aa87ca22be8b05378eb1c71ef320ad746e1d3b628ba79b9859f7"
                     "41e082542a385502f25dbf55296c3a545e3872760ab7"),
      U384::from_hex("3617de4a96262c6f5d9e98bf9292dc29f8f41dbd289a147ce9da"
                     "3113b5f0b8c00a60b1ce1d7e819d7a431d7c90ea0e5f"),
      U384::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffc763"
                     "4d81f4372ddf581a0db248b0a77aecec196accc52973"),
      48};
  return params;
}

Bytes Curve::Point::encode(std::size_t coord_len) const {
  Bytes out;
  out.push_back(0x04);
  append(out, x.to_bytes_be(coord_len));
  append(out, y.to_bytes_be(coord_len));
  return out;
}

Curve::Curve(const CurveParams& params)
    : params_(params), fp_(params.p), fn_(params.n) {
  // a = -3 mod p.
  U384 a;
  sub_with_borrow(a, params_.p, U384::from_u64(3));
  a_mont_ = fp_.to_mont(a);
  b_mont_ = fp_.to_mont(params_.b);

  // (p + 1) / 4: the sqrt exponent for p = 3 mod 4. p + 1 never carries out
  // of 384 bits (neither prime is 2^384 - 1).
  U384 p_plus_1;
  add_with_carry(p_plus_1, params_.p, U384::from_u64(1));
  for (std::size_t i = 0; i + 1 < U384::kLimbs; ++i) {
    sqrt_exp_.limbs[i] =
        (p_plus_1.limbs[i] >> 2) | (p_plus_1.limbs[i + 1] << 62);
  }
  sqrt_exp_.limbs[U384::kLimbs - 1] = p_plus_1.limbs[U384::kLimbs - 1] >> 2;

  const auto order_bits = static_cast<unsigned>(params_.byte_length * 8);
  half_bits_ = order_bits / 2;  // 128 (P-256) / 192 (P-384): whole limbs
  const ecp::Aff g{fp_.to_mont(params_.gx), fp_.to_mont(params_.gy), false};
  fixed_base_ = std::make_unique<ecp::FixedBaseTable>(fp_, g, order_bits);
  verify_cache_ =
      std::make_unique<ecp::VerifyTableCache>(kVerifyCacheCapacity);
}

bool Curve::on_curve(const Point& pt) const {
  if (pt.infinity) return false;
  if (pt.x.cmp(params_.p) >= 0 || pt.y.cmp(params_.p) >= 0) return false;
  const U384 x = fp_.to_mont(pt.x);
  const U384 y = fp_.to_mont(pt.y);
  const U384 y2 = fp_.sqr(y);
  const U384 x3 = fp_.mul(fp_.sqr(x), x);
  const U384 ax = fp_.mul(a_mont_, x);
  const U384 rhs = fp_.add(fp_.add(x3, ax), b_mont_);
  return y2 == rhs;
}

U384 Curve::reduce_scalar(const U384& k) const {
  // Cofactor is 1 on both curves, so k * P == (k mod n) * P for every
  // curve point; reducing keeps wNAF headroom assumptions valid too.
  if (k.cmp(params_.n) < 0) return k;
  return fn_.reduce(k);
}

Curve::Point Curve::to_affine(const ecp::Jac& p) const {
  if (p.is_inf()) return Point::at_infinity();
  const U384 zinv = fp_.inv(p.z);
  const U384 zinv2 = fp_.sqr(zinv);
  const U384 zinv3 = fp_.mul(zinv2, zinv);
  return Point{fp_.from_mont(fp_.mul(p.x, zinv2)),
               fp_.from_mont(fp_.mul(p.y, zinv3)), false};
}

Curve::Point Curve::add(const Point& a, const Point& b) const {
  if (a.infinity) return b;
  if (b.infinity) return a;
  const ecp::Jac ja{fp_.to_mont(a.x), fp_.to_mont(a.y), fp_.one()};
  const ecp::Jac jb{fp_.to_mont(b.x), fp_.to_mont(b.y), fp_.one()};
  return to_affine(ecp::jac_add(fp_, ja, jb));
}

namespace {

/// Applies one signed wNAF digit against a Jacobian odd-multiples table.
ecp::Jac apply_digit_jac(const MontCtx& fp, const ecp::Jac& acc, int digit,
                         const std::array<ecp::Jac, 16>& table) {
  if (digit > 0) return ecp::jac_add(fp, acc, table[digit >> 1]);
  ecp::Jac neg = table[(-digit) >> 1];
  neg.y = fp.sub(U384::zero(), neg.y);
  return ecp::jac_add(fp, acc, neg);
}

/// Applies one signed wNAF digit against an affine odd-multiples table.
ecp::Jac apply_digit_aff(const MontCtx& fp, const ecp::Jac& acc, int digit,
                         const std::vector<ecp::Aff>& table) {
  if (digit > 0) return ecp::jac_add_affine(fp, acc, table[digit >> 1]);
  ecp::Aff neg = table[(-digit) >> 1];
  neg.y = fp.sub(U384::zero(), neg.y);
  return ecp::jac_add_affine(fp, acc, neg);
}

}  // namespace

Curve::Point Curve::scalar_mult(const U384& k, const Point& pt) const {
  if (pt.infinity) return Point::at_infinity();
  const U384 kr = reduce_scalar(k);
  if (kr.is_zero()) return Point::at_infinity();

  // Odd multiples 1P, 3P, ..., 31P, kept Jacobian. An affine table,
  // batch-normalized with one inversion so every addition is a mixed one,
  // measured slower: repobench attest_warm 1692 against 1722 sessions per
  // CPU-second (median of 5 alternating pairs, 4 lost, shared 4-vCPU Xeon
  // VM). On a table used once, the inversion and the normalization cost
  // what the mixed additions save.
  const ecp::Jac base{fp_.to_mont(pt.x), fp_.to_mont(pt.y), fp_.one()};
  std::array<ecp::Jac, 16> table;
  table[0] = base;
  const ecp::Jac twice = ecp::jac_double(fp_, base);
  for (std::size_t i = 1; i < table.size(); ++i) {
    table[i] = ecp::jac_add(fp_, table[i - 1], twice);
  }

  const auto digits = ecp::wnaf_recode(kr, kWnafWidth);
  ecp::Jac acc = ecp::Jac::inf();
  for (std::size_t i = digits.size(); i-- > 0;) {
    acc = ecp::jac_double(fp_, acc);
    if (digits[i] != 0) acc = apply_digit_jac(fp_, acc, digits[i], table);
  }
  return to_affine(acc);
}

Curve::Point Curve::scalar_mult_base(const U384& k) const {
  const U384 kr = reduce_scalar(k);
  if (kr.is_zero()) return Point::at_infinity();
  return to_affine(fixed_base_->mul(fp_, kr));
}

std::shared_ptr<ecp::VerifyTables> Curve::build_verify_tables(
    const Point& q) const {
  auto tables = std::make_shared<ecp::VerifyTables>();
  const ecp::Jac base{fp_.to_mont(q.x), fp_.to_mont(q.y), fp_.one()};
  ecp::Jac shifted = base;
  for (unsigned i = 0; i < half_bits_; ++i) {
    shifted = ecp::jac_double(fp_, shifted);
  }
  // Both tables share one inversion.
  auto both = ecp::odd_multiples_many(fp_, {base, shifted}, kWnafWidth);
  tables->low = std::move(both[0]);
  tables->high = std::move(both[1]);
  return tables;
}

std::shared_ptr<const ecp::VerifyTables> Curve::tables_for(
    const Point& q) const {
  const Bytes key = encode_point(q);
  // Pinned well-known bases first: shared-lock read, no LRU splice, no
  // contention with other verification threads.
  if (auto pinned = ecp::PinnedTableRegistry::instance().get(key)) {
    return pinned;
  }
  if (auto cached = verify_cache_->get(key)) return *cached;

  auto tables = build_verify_tables(q);
  verify_cache_->put(key, tables);
  return tables;
}

void Curve::pin_verify_tables(const Point& q) const {
  if (q.infinity) return;
  ecp::PinnedTableRegistry::instance().pin(
      encode_point(q), [&] { return build_verify_tables(q); });
}

Curve::Point Curve::double_scalar_mult_base(const U384& u1, const U384& u2,
                                            const Point& q) const {
  return multi_scalar_mult_base(u1, {MsmTerm{u2, q}}, {});
}

Curve::Point Curve::multi_scalar_mult_base(
    const U384& base_scalar, const std::vector<MsmTerm>& full_terms,
    const std::vector<MsmTerm>& small_terms) const {
  const U384 a = reduce_scalar(base_scalar);

  // Full-width terms are split at half_bits: two half-length wNAF digit
  // strings against the per-key low/high tables.
  struct FullPlan {
    std::shared_ptr<const ecp::VerifyTables> tables;
    std::vector<std::int8_t> lo;
    std::vector<std::int8_t> hi;
  };
  std::vector<FullPlan> fulls;
  fulls.reserve(full_terms.size());
  const std::size_t split_limb = half_bits_ / 64;
  for (const MsmTerm& term : full_terms) {
    if (term.point.infinity) continue;
    const U384 k = reduce_scalar(term.scalar);
    if (k.is_zero()) continue;
    FullPlan plan;
    plan.tables = tables_for(term.point);
    U384 lo = k;
    U384 hi;
    for (std::size_t i = split_limb; i < U384::kLimbs; ++i) {
      hi.limbs[i - split_limb] = k.limbs[i];
      lo.limbs[i] = 0;
    }
    plan.lo = ecp::wnaf_recode(lo, kWnafWidth);
    plan.hi = ecp::wnaf_recode(hi, kWnafWidth);
    fulls.push_back(std::move(plan));
  }

  // Small terms (batch coefficients): one-shot width-4 tables, ALL
  // normalized with a single shared inversion.
  constexpr unsigned kSmallWidth = 4;
  std::vector<ecp::Jac> small_bases;
  std::vector<std::vector<std::int8_t>> small_digits;
  for (const MsmTerm& term : small_terms) {
    if (term.point.infinity) continue;
    const U384 k = reduce_scalar(term.scalar);
    if (k.is_zero()) continue;
    small_bases.push_back(ecp::Jac{fp_.to_mont(term.point.x),
                                   fp_.to_mont(term.point.y), fp_.one()});
    small_digits.push_back(ecp::wnaf_recode(k, kSmallWidth));
  }
  const std::vector<std::vector<ecp::Aff>> small_tables =
      ecp::odd_multiples_many(fp_, small_bases, kSmallWidth);

  std::size_t steps = 0;
  for (const FullPlan& plan : fulls) {
    steps = std::max({steps, plan.lo.size(), plan.hi.size()});
  }
  for (const auto& digits : small_digits) {
    steps = std::max(steps, digits.size());
  }

  // One doubling chain covers every term; each term contributes only its
  // nonzero digits as mixed additions.
  ecp::Jac acc = ecp::Jac::inf();
  for (std::size_t i = steps; i-- > 0;) {
    acc = ecp::jac_double(fp_, acc);
    for (const FullPlan& plan : fulls) {
      if (i < plan.lo.size() && plan.lo[i] != 0) {
        acc = apply_digit_aff(fp_, acc, plan.lo[i], plan.tables->low);
      }
      if (i < plan.hi.size() && plan.hi[i] != 0) {
        acc = apply_digit_aff(fp_, acc, plan.hi[i], plan.tables->high);
      }
    }
    for (std::size_t t = 0; t < small_digits.size(); ++t) {
      if (i < small_digits[t].size() && small_digits[t][i] != 0) {
        acc = apply_digit_aff(fp_, acc, small_digits[t][i], small_tables[t]);
      }
    }
  }
  if (!a.is_zero()) {
    acc = ecp::jac_add(fp_, acc, fixed_base_->mul(fp_, a));
  }
  return to_affine(acc);
}

std::optional<Curve::Point> Curve::lift_x_even(const U384& x) const {
  if (x.cmp(params_.p) >= 0) return std::nullopt;
  const U384 xm = fp_.to_mont(x);
  const U384 x3 = fp_.mul(fp_.sqr(xm), xm);
  const U384 rhs = fp_.add(fp_.add(x3, fp_.mul(a_mont_, xm)), b_mont_);
  const U384 y = fp_.pow(rhs, sqrt_exp_);
  // p = 3 mod 4: the pow is a square root iff rhs is a quadratic residue.
  if (fp_.sqr(y) != rhs) return std::nullopt;
  U384 y_plain = fp_.from_mont(y);
  if (y_plain.bit(0)) {
    sub_with_borrow(y_plain, params_.p, y_plain);
  }
  return Point{x, y_plain, false};
}

Curve::Point Curve::scalar_mult_naive(const U384& k, const Point& pt) const {
  if (pt.infinity || k.is_zero()) return Point::at_infinity();
  const ecp::Jac base{fp_.to_mont(pt.x), fp_.to_mont(pt.y), fp_.one()};
  ecp::Jac acc = ecp::Jac::inf();
  for (std::size_t i = k.bit_length(); i-- > 0;) {
    acc = ecp::jac_double(fp_, acc);
    if (k.bit(i)) acc = ecp::jac_add(fp_, acc, base);
  }
  return to_affine(acc);
}

Result<Curve::Point> Curve::decode_point(ByteView encoded) const {
  const std::size_t len = params_.byte_length;
  if (encoded.size() != 1 + 2 * len || encoded[0] != 0x04) {
    return Error::make("ec.bad_point_encoding",
                       "expected 0x04 || X || Y of " +
                           std::to_string(1 + 2 * len) + " bytes");
  }
  const Point pt{U384::from_bytes_be(encoded.subspan(1, len)),
                 U384::from_bytes_be(encoded.subspan(1 + len, len)), false};
  if (pt.x.cmp(params_.p) >= 0 || pt.y.cmp(params_.p) >= 0) {
    return Error::make("ec.coordinate_out_of_range", params_.name);
  }
  if (!on_curve(pt)) {
    return Error::make("ec.point_not_on_curve", params_.name);
  }
  return pt;
}

const Curve& p256() {
  static const Curve curve(p256_params());
  return curve;
}

const Curve& p384() {
  static const Curve curve(p384_params());
  return curve;
}

}  // namespace revelio::crypto
