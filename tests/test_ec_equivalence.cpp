// Tier-2 property tests: the optimized scalar-multiplication paths (wNAF,
// fixed-base window table, Strauss–Shamir double-scalar) must agree with
// the naive double-and-add reference ladder on random scalars, on the
// boundary scalars 0, n, n+1 and on the fixed-base recoding edges
// (window_edge_scalars.hpp: 1, n-1, ...); and on each of the four curve
// moduli, safegcd inversion must agree with Fermat's pow(a, m - 2) and the
// P-256 special-form reduction and squarings with the generic reduction,
// over 10^5 seeded random inputs. Slow by design (the naive ladder is the
// baseline the fast paths are benchmarked against); labelled `tier2` in
// ctest so the tier-1 loop stays quick.
#include <vector>

#include <gtest/gtest.h>

#include "crypto/drbg.hpp"
#include "crypto/ec.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/sha2.hpp"
#include "window_edge_scalars.hpp"

namespace revelio::crypto {
namespace {

Bytes seed_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

U384 random_scalar(HmacDrbg& drbg) {
  return U384::from_bytes_be(drbg.generate(48));
}

bool same_point(const Curve::Point& a, const Curve::Point& b) {
  if (a.infinity || b.infinity) return a.infinity == b.infinity;
  return a.x == b.x && a.y == b.y;
}

std::vector<U384> edge_scalars(const Curve& curve) {
  const U384& n = curve.params().n;
  U384 n_plus_1;
  add_with_carry(n_plus_1, n, U384::from_u64(1));
  std::vector<U384> out = window_edge_scalars(curve);
  out.insert(out.end(), {U384::zero(), n, n_plus_1});
  return out;
}

class EcEquivalence : public ::testing::TestWithParam<const Curve*> {
 protected:
  const Curve& curve() const { return *GetParam(); }
};

TEST_P(EcEquivalence, WnafMatchesNaiveOnRandomScalars) {
  HmacDrbg drbg(seed_bytes("wnaf-vs-naive"));
  const Curve::Point g = curve().generator();
  // Use a non-generator base point so the wNAF path cannot be confused
  // with the fixed-base path.
  const Curve::Point q = curve().scalar_mult_naive(U384::from_u64(7), g);
  for (int i = 0; i < 24; ++i) {
    const U384 k = random_scalar(drbg);
    EXPECT_TRUE(same_point(curve().scalar_mult(k, q),
                           curve().scalar_mult_naive(k, q)))
        << "iteration " << i;
  }
}

TEST_P(EcEquivalence, FixedBaseMatchesNaiveOnRandomScalars) {
  HmacDrbg drbg(seed_bytes("fixed-base-vs-naive"));
  const Curve::Point g = curve().generator();
  for (int i = 0; i < 24; ++i) {
    const U384 k = random_scalar(drbg);
    EXPECT_TRUE(same_point(curve().scalar_mult_base(k),
                           curve().scalar_mult_naive(k, g)))
        << "iteration " << i;
  }
}

TEST_P(EcEquivalence, DoubleScalarMatchesNaiveOnRandomScalars) {
  HmacDrbg drbg(seed_bytes("strauss-shamir-vs-naive"));
  const Curve::Point g = curve().generator();
  const Curve::Point q = curve().scalar_mult_naive(U384::from_u64(11), g);
  for (int i = 0; i < 24; ++i) {
    const U384 u1 = random_scalar(drbg);
    const U384 u2 = random_scalar(drbg);
    const Curve::Point expected = curve().add(
        curve().scalar_mult_naive(u1, g), curve().scalar_mult_naive(u2, q));
    EXPECT_TRUE(
        same_point(curve().double_scalar_mult_base(u1, u2, q), expected))
        << "iteration " << i;
  }
}

TEST_P(EcEquivalence, AllPathsAgreeOnEdgeScalars) {
  const Curve::Point g = curve().generator();
  const Curve::Point q = curve().scalar_mult_naive(U384::from_u64(5), g);
  for (const U384& k : edge_scalars(curve())) {
    const Curve::Point via_naive_g = curve().scalar_mult_naive(k, g);
    EXPECT_TRUE(same_point(curve().scalar_mult_base(k), via_naive_g));
    EXPECT_TRUE(same_point(curve().scalar_mult(k, g), via_naive_g));
    const Curve::Point via_naive_q = curve().scalar_mult_naive(k, q);
    EXPECT_TRUE(same_point(curve().scalar_mult(k, q), via_naive_q));
  }
}

TEST_P(EcEquivalence, DoubleScalarHandlesEdgeCombinations) {
  const Curve::Point g = curve().generator();
  const Curve::Point q = curve().scalar_mult_naive(U384::from_u64(5), g);
  const auto edges = edge_scalars(curve());
  std::vector<Curve::Point> naive_g, naive_q;
  for (const U384& k : edges) {
    naive_g.push_back(curve().scalar_mult_naive(k, g));
    naive_q.push_back(curve().scalar_mult_naive(k, q));
  }
  for (std::size_t i = 0; i < edges.size(); ++i) {
    for (std::size_t j = 0; j < edges.size(); ++j) {
      const Curve::Point expected = curve().add(naive_g[i], naive_q[j]);
      EXPECT_TRUE(same_point(
          curve().double_scalar_mult_base(edges[i], edges[j], q), expected))
          << "edges " << i << ", " << j;
    }
  }
}

TEST_P(EcEquivalence, ScalarReductionIsSound) {
  // k and k + n must land on the same point (cofactor-1 curves).
  HmacDrbg drbg(seed_bytes("reduction-soundness"));
  const Curve::Point g = curve().generator();
  for (int i = 0; i < 8; ++i) {
    // Keep k below n so the sum stays representable in 384 bits for P-384.
    const U384 k = curve().scalar_field().reduce(random_scalar(drbg));
    U384 k_plus_n;
    if (add_with_carry(k_plus_n, k, curve().params().n) != 0) continue;
    EXPECT_TRUE(same_point(curve().scalar_mult_base(k),
                           curve().scalar_mult_base(k_plus_n)));
    EXPECT_TRUE(same_point(curve().scalar_mult(k, g),
                           curve().scalar_mult(k_plus_n, g)));
  }
}

TEST_P(EcEquivalence, MultiScalarMatchesNaiveSum) {
  // base*G + sum(full_i * Q_i) + sum(small_j * P_j) over the interleaved
  // ladder must equal the naive term-by-term sum. Mix repeated keys (the
  // gateway shape) with distinct ones, and ~128-bit small scalars.
  HmacDrbg drbg(seed_bytes("msm-vs-naive"));
  const Curve::Point g = curve().generator();
  for (int round = 0; round < 4; ++round) {
    const U384 base = random_scalar(drbg);
    std::vector<Curve::MsmTerm> full, small;
    const Curve::Point shared =
        curve().scalar_mult_naive(random_scalar(drbg), g);
    for (int i = 0; i < 5; ++i) {
      const Curve::Point q =
          i < 2 ? shared : curve().scalar_mult_naive(random_scalar(drbg), g);
      full.push_back({random_scalar(drbg), q});
    }
    for (int i = 0; i < 6; ++i) {
      U384 coeff = U384::from_bytes_be(drbg.generate(16));  // ~128 bits
      small.push_back(
          {coeff, curve().scalar_mult_naive(random_scalar(drbg), g)});
    }
    Curve::Point expected = curve().scalar_mult_naive(base, g);
    for (const auto& t : full) {
      expected =
          curve().add(expected, curve().scalar_mult_naive(t.scalar, t.point));
    }
    for (const auto& t : small) {
      expected =
          curve().add(expected, curve().scalar_mult_naive(t.scalar, t.point));
    }
    EXPECT_TRUE(same_point(curve().multi_scalar_mult_base(base, full, small),
                           expected))
        << "round " << round;
  }
}

TEST_P(EcEquivalence, MultiScalarHandlesEdgeScalars) {
  const Curve::Point g = curve().generator();
  const Curve::Point q = curve().scalar_mult_naive(U384::from_u64(9), g);
  for (const U384& k : edge_scalars(curve())) {
    const Curve::Point expected =
        curve().add(curve().scalar_mult_naive(k, g),
                    curve().scalar_mult_naive(k, q));
    EXPECT_TRUE(same_point(
        curve().multi_scalar_mult_base(k, {{k, q}}, {}), expected));
    // Small-term slot must cope with full-width scalars too (reduction).
    EXPECT_TRUE(same_point(
        curve().multi_scalar_mult_base(k, {}, {{k, q}}), expected));
  }
}

TEST_P(EcEquivalence, LiftXEvenRoundTripsEvenPointsOnly) {
  HmacDrbg drbg(seed_bytes("lift-x-even"));
  const Curve::Point g = curve().generator();
  for (int i = 0; i < 16; ++i) {
    const Curve::Point p =
        curve().scalar_mult_naive(random_scalar(drbg), g);
    ASSERT_FALSE(p.infinity);
    const auto lifted = curve().lift_x_even(p.x);
    ASSERT_TRUE(lifted.has_value());
    // Same x; y is either p.y or its field negation, and always even.
    U384 neg_y;
    sub_with_borrow(neg_y, curve().params().p, p.y);
    EXPECT_TRUE(lifted->x == p.x);
    EXPECT_TRUE(lifted->y == p.y || lifted->y == neg_y);
    EXPECT_FALSE(lifted->y.bit(0));
    EXPECT_TRUE(curve().on_curve(*lifted));
  }
}

TEST_P(EcEquivalence, BatchVerifyMatchesSinglesBitForBit) {
  // The batch verifier sits on the MSM path above; random valid batches
  // plus a corrupted item must reproduce N independent ecdsa_verify calls
  // exactly.
  HmacDrbg drbg(seed_bytes("batch-vs-single"));
  std::vector<EcKeyPair> keys;
  for (int i = 0; i < 3; ++i) keys.push_back(ec_generate(curve(), drbg));
  std::vector<EcdsaBatchItem> items(24);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto& kp = keys[i % keys.size()];
    const Bytes msg = drbg.generate(80);
    const auto hash = sha384(msg);
    items[i].pub = kp.q;
    append(items[i].msg_hash, hash.view());
    items[i].sig = ecdsa_sign(curve(), kp.d, hash.view());
  }
  items[11].msg_hash[5] ^= 0x80;
  std::vector<bool> singles;
  for (const auto& item : items) {
    singles.push_back(
        ecdsa_verify(curve(), item.pub, item.msg_hash, item.sig));
  }
  EXPECT_EQ(ecdsa_verify_batch(curve(), items), singles);
}

INSTANTIATE_TEST_SUITE_P(Curves, EcEquivalence,
                         ::testing::Values(&p256(), &p384()),
                         [](const auto& info) {
                           return info.param->params().name == "P-256"
                                      ? "P256"
                                      : "P384";
                         });

// ------------------------------------------------------- field arithmetic

constexpr int kFieldInputs = 100000;

struct FieldCase {
  const char* name;
  const MontCtx& (*ctx)();
};

const FieldCase kFieldCases[] = {
    {"P256p", []() -> const MontCtx& { return p256().field(); }},
    {"P256n", []() -> const MontCtx& { return p256().scalar_field(); }},
    {"P384p", []() -> const MontCtx& { return p384().field(); }},
    {"P384n", []() -> const MontCtx& { return p384().scalar_field(); }},
};

/// splitmix64: a cheap seeded stream, so 10^5 inputs cost next to nothing
/// beside the arithmetic under test.
struct SplitMix {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

/// A value of up to `limbs` random limbs; every eighth one keeps only its
/// low limbs, so short inputs get their share too.
U384 random_limbs(SplitMix& rng, std::size_t limbs, int i) {
  U384 v;
  const std::size_t used = i % 8 == 0 ? 1 + rng.next() % limbs : limbs;
  for (std::size_t l = 0; l < used; ++l) v.limbs[l] = rng.next();
  return v;
}

/// A uniform-ish value below m (each modulus is above half its limb width,
/// so one subtraction suffices).
U384 random_below(SplitMix& rng, const MontCtx& ctx, int i) {
  const std::size_t limbs = ctx.modulus().bit_length() > 256 ? 6 : 4;
  U384 v = random_limbs(rng, limbs, i);
  if (!(v < ctx.modulus())) sub_with_borrow(v, v, ctx.modulus());
  return v;
}

class FieldEquivalence : public ::testing::TestWithParam<FieldCase> {
 protected:
  const MontCtx& ctx() const { return GetParam().ctx(); }
};

TEST_P(FieldEquivalence, SafegcdInverseMatchesFermat) {
  SplitMix rng{0x5afe6cdULL};
  U384 m_minus_2;
  sub_with_borrow(m_minus_2, ctx().modulus(), U384::from_u64(2));
  for (int i = 0; i < kFieldInputs; ++i) {
    const U384 a = random_below(rng, ctx(), i);
    ASSERT_EQ(ctx().inv(a), ctx().pow(a, m_minus_2)) << "input " << i;
  }
}

TEST_P(FieldEquivalence, MulAndSqrMatchTheGenericReduction) {
  SplitMix rng{0x9256ULL};
  const std::size_t limbs = ctx().modulus().bit_length() > 256 ? 6 : 4;
  for (int i = 0; i < kFieldInputs; ++i) {
    const U384 a = random_below(rng, ctx(), i);
    const U384 b = random_below(rng, ctx(), i + 3);
    // mul's contract lets one operand reach 2^(64K).
    const U384 wide = random_limbs(rng, limbs, i + 5);
    ASSERT_EQ(ctx().mul(a, b), mont_mul_generic(ctx(), a, b)) << i;
    ASSERT_EQ(ctx().mul(wide, b), mont_mul_generic(ctx(), wide, b)) << i;
    ASSERT_EQ(ctx().sqr(a), mont_mul_generic(ctx(), a, a)) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Moduli, FieldEquivalence,
                         ::testing::ValuesIn(kFieldCases),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace revelio::crypto
