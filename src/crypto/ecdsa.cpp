#include "crypto/ecdsa.hpp"

#include <cassert>
#include <map>

#include "crypto/sha2.hpp"
#include "obs/metrics.hpp"

namespace revelio::crypto {

Bytes EcdsaSignature::encode(const Curve& curve) const {
  const std::size_t len = curve.params().byte_length;
  return concat(r.to_bytes_be(len), s.to_bytes_be(len));
}

Result<EcdsaSignature> EcdsaSignature::decode(const Curve& curve,
                                              ByteView bytes) {
  const std::size_t len = curve.params().byte_length;
  if (bytes.size() != 2 * len) {
    return Error::make("ecdsa.bad_signature_length");
  }
  EcdsaSignature sig;
  sig.r = U384::from_bytes_be(bytes.subspan(0, len));
  sig.s = U384::from_bytes_be(bytes.subspan(len, len));
  return sig;
}

namespace {

/// Draws a uniform scalar in [1, n-1] by rejection sampling.
U384 sample_scalar(const Curve& curve, HmacDrbg& drbg) {
  const std::size_t len = curve.params().byte_length;
  while (true) {
    const Bytes candidate_bytes = drbg.generate(len);
    const U384 candidate = U384::from_bytes_be(candidate_bytes);
    if (!candidate.is_zero() && candidate.cmp(curve.params().n) < 0) {
      return candidate;
    }
  }
}

}  // namespace

EcKeyPair ec_generate(const Curve& curve, HmacDrbg& drbg) {
  EcKeyPair kp;
  kp.d = sample_scalar(curve, drbg);
  kp.q = curve.scalar_mult_base(kp.d);
  return kp;
}

U384 hash_to_scalar(const Curve& curve, ByteView msg_hash) {
  // Leftmost min(hash bits, curve bits) bits, as in FIPS 186-4 §6.4.
  const std::size_t n_bytes = curve.params().byte_length;
  const std::size_t take = std::min(msg_hash.size(), n_bytes);
  U384 z = U384::from_bytes_be(msg_hash.subspan(0, take));
  // The curve order's bit length is a multiple of 8 for P-256/P-384, so no
  // sub-byte shift is needed.
  return curve.scalar_field().reduce(z);
}

EcdsaSignature ecdsa_sign(const Curve& curve, const U384& priv,
                          ByteView msg_hash) {
  static obs::Counter& signs =
      obs::metrics().counter("crypto.ecdsa_sign.count");
  signs.inc();
  const MontCtx& fn = curve.scalar_field();
  const U384 z = hash_to_scalar(curve, msg_hash);

  // Deterministic nonce source bound to the key and message.
  const Bytes seed =
      concat(priv.to_bytes_be(curve.params().byte_length), msg_hash);
  HmacDrbg nonce_drbg(seed, to_bytes(std::string_view("ecdsa-nonce")));

  while (true) {
    const U384 k = sample_scalar(curve, nonce_drbg);
    const Curve::Point kg = curve.scalar_mult_base(k);
    const U384 r = fn.reduce(kg.x);
    if (r.is_zero()) continue;

    // s = k^-1 (z + r d) mod n, computed in the Montgomery domain.
    const U384 k_mont = fn.to_mont(k);
    const U384 r_mont = fn.to_mont(r);
    const U384 d_mont = fn.to_mont(priv);
    const U384 z_mont = fn.to_mont(z);
    const U384 rd = fn.mul(r_mont, d_mont);
    const U384 sum = fn.add(z_mont, rd);
    const U384 k_inv = fn.inv(k_mont);
    U384 s = fn.from_mont(fn.mul(k_inv, sum));
    if (s.is_zero()) continue;

    // Normalize to an EVEN-y nonce point: when y(kG) is odd, emit the
    // malleability twin (r, n - s), whose implied nonce point is -kG. Both
    // forms are standard-valid signatures; fixing the parity lets batch
    // verification reconstruct R from r alone (lift_x_even) with no sign
    // ambiguity.
    if (kg.y.bit(0)) {
      sub_with_borrow(s, curve.params().n, s);
    }

    return EcdsaSignature{r, s};
  }
}

bool ecdsa_verify(const Curve& curve, const Curve::Point& pub,
                  ByteView msg_hash, const EcdsaSignature& sig) {
  static obs::Counter& verifies =
      obs::metrics().counter("crypto.ecdsa_verify.count");
  verifies.inc();
  if (pub.infinity || !curve.on_curve(pub)) return false;
  const U384& n = curve.params().n;
  if (sig.r.is_zero() || sig.r.cmp(n) >= 0) return false;
  if (sig.s.is_zero() || sig.s.cmp(n) >= 0) return false;

  const MontCtx& fn = curve.scalar_field();
  const U384 z = hash_to_scalar(curve, msg_hash);

  const U384 s_mont = fn.to_mont(sig.s);
  const U384 s_inv = fn.inv(s_mont);
  const U384 u1 = fn.from_mont(fn.mul(fn.to_mont(z), s_inv));
  const U384 u2 = fn.from_mont(fn.mul(fn.to_mont(sig.r), s_inv));

  // u1*G + u2*Q over one shared (half-length) doubling chain, with the
  // generator's fixed-base table and cached per-key tables for Q.
  const Curve::Point sum = curve.double_scalar_mult_base(u1, u2, pub);
  if (sum.infinity) return false;

  const U384 v = fn.reduce(sum.x);
  return v == sig.r;
}

namespace {

/// Batch coefficients a_i bound to the whole batch transcript: a forger
/// cannot pick signatures whose per-item errors cancel in the combined
/// equation without predicting the coefficients, which depend on every
/// byte of every item. a_0 is fixed to 1 (scaling the whole equation by
/// a_0^-1 shows the first coefficient carries no soundness).
std::vector<U384> batch_coefficients(const Curve& curve,
                                     const std::vector<EcdsaBatchItem>& items,
                                     const std::vector<U384>& zs) {
  Sha256 seed_hash;
  seed_hash.update(to_bytes(std::string_view("revelio-ecdsa-batch-v1")));
  for (std::size_t i = 0; i < items.size(); ++i) {
    seed_hash.update(curve.encode_point(items[i].pub));
    seed_hash.update(items[i].sig.r.to_bytes_be());
    seed_hash.update(items[i].sig.s.to_bytes_be());
    seed_hash.update(zs[i].to_bytes_be());
  }
  const Digest32 seed = seed_hash.finish();

  std::vector<U384> coeffs(items.size());
  coeffs[0] = U384::from_u64(1);
  for (std::size_t i = 1; i < items.size(); ++i) {
    Sha256 h;
    h.update(seed.view());
    std::uint8_t idx[8];
    for (int b = 0; b < 8; ++b) {
      idx[b] = static_cast<std::uint8_t>(i >> (8 * b));
    }
    h.update(ByteView(idx, sizeof(idx)));
    // 128-bit coefficients: soundness error 2^-128, and the per-signature
    // ladder term stays a third of a full-width scalar multiplication.
    coeffs[i] = U384::from_bytes_be(h.finish().view().subspan(0, 16));
    if (coeffs[i].is_zero()) coeffs[i] = U384::from_u64(1);
  }
  return coeffs;
}

}  // namespace

std::vector<bool> ecdsa_verify_batch(const Curve& curve,
                                     const std::vector<EcdsaBatchItem>& items) {
  std::vector<bool> verdicts(items.size(), false);
  if (items.empty()) return verdicts;
  if (items.size() == 1) {
    verdicts[0] = ecdsa_verify(curve, items[0].pub, items[0].msg_hash,
                               items[0].sig);
    return verdicts;
  }

  static obs::Counter& batches =
      obs::metrics().counter("crypto.ecdsa_verify_batch.count");
  static obs::Counter& batch_sigs =
      obs::metrics().counter("crypto.ecdsa_verify_batch.sigs");
  batches.inc();
  batch_sigs.inc(items.size());
  const MontCtx& fn = curve.scalar_field();
  const U384& n = curve.params().n;
  const U384& p = curve.params().p;

  // Pass 1: the same structural prechecks as ecdsa_verify. Items failing
  // them are invalid outright; items whose nonce point cannot be
  // reconstructed (r is not an x-coordinate — possible for the rare valid
  // signature with x in [n, p)) cannot join the combined equation and go
  // to the individual path instead.
  std::vector<std::size_t> batched;   // indices in the combined equation
  std::vector<std::size_t> singles;   // indices verified individually
  std::vector<U384> zs(items.size());
  std::vector<Curve::Point> nonce_pts(items.size());
  batched.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const EcdsaBatchItem& it = items[i];
    if (it.pub.infinity || !curve.on_curve(it.pub)) continue;
    if (it.sig.r.is_zero() || it.sig.r.cmp(n) >= 0) continue;
    if (it.sig.s.is_zero() || it.sig.s.cmp(n) >= 0) continue;
    zs[i] = hash_to_scalar(curve, it.msg_hash);
    const auto r_pt = curve.lift_x_even(it.sig.r);
    if (!r_pt.has_value()) {
      singles.push_back(i);
      continue;
    }
    nonce_pts[i] = *r_pt;
    batched.push_back(i);
  }

  if (!batched.empty()) {
    const std::vector<U384> coeffs = batch_coefficients(curve, items, zs);

    // All s_i^-1 with ONE field inversion.
    std::vector<U384> s_mont;
    s_mont.reserve(batched.size());
    for (const std::size_t i : batched) {
      s_mont.push_back(fn.to_mont(items[i].sig.s));
    }
    const std::vector<U384> s_inv = fn.batch_inv(s_mont);

    // Fold the G terms into one scalar and group equal public keys into one
    // full-width term each (the gateway verifies one VCEK across sessions).
    U384 u_g = U384::zero();  // Montgomery domain accumulator
    std::map<Bytes, std::size_t> q_index;
    std::vector<Curve::MsmTerm> full_terms;
    std::vector<Curve::MsmTerm> small_terms;
    small_terms.reserve(batched.size());
    for (std::size_t j = 0; j < batched.size(); ++j) {
      const std::size_t i = batched[j];
      const U384 a_mont = fn.to_mont(coeffs[i]);
      const U384 u1 = fn.mul(fn.to_mont(zs[i]), s_inv[j]);
      const U384 u2 = fn.mul(fn.to_mont(items[i].sig.r), s_inv[j]);
      u_g = fn.add(u_g, fn.mul(a_mont, u1));

      const Bytes q_key = curve.encode_point(items[i].pub);
      const auto [it, fresh] = q_index.emplace(q_key, full_terms.size());
      if (fresh) {
        full_terms.push_back(
            Curve::MsmTerm{U384::zero(), items[i].pub});
      }
      full_terms[it->second].scalar =
          fn.add(full_terms[it->second].scalar, fn.mul(a_mont, u2));

      // -R_i with the small coefficient a_i: the subtraction side of the
      // combined equation.
      Curve::Point neg_r = nonce_pts[i];
      if (!neg_r.y.is_zero()) sub_with_borrow(neg_r.y, p, neg_r.y);
      small_terms.push_back(Curve::MsmTerm{coeffs[i], neg_r});
    }
    for (auto& term : full_terms) term.scalar = fn.from_mont(term.scalar);

    const Curve::Point sum = curve.multi_scalar_mult_base(
        fn.from_mont(u_g), full_terms, small_terms);
    if (sum.infinity) {
      for (const std::size_t i : batched) verdicts[i] = true;
    } else {
      // Fail closed: something in the batch is wrong (or merely
      // non-normalized). Re-verify each batched item individually to hand
      // back exact per-signature verdicts.
      static obs::Counter& fallbacks =
          obs::metrics().counter("crypto.ecdsa_verify_batch.fallback.count");
      fallbacks.inc();
      singles.insert(singles.end(), batched.begin(), batched.end());
    }
  }

  for (const std::size_t i : singles) {
    verdicts[i] =
        ecdsa_verify(curve, items[i].pub, items[i].msg_hash,
                     items[i].sig);
  }
  return verdicts;
}

Result<Bytes> ecdh_shared_secret(const Curve& curve, const U384& priv,
                                 const Curve::Point& peer) {
  if (peer.infinity || !curve.on_curve(peer)) {
    return Error::make("ecdh.invalid_peer_point");
  }
  const Curve::Point shared = curve.scalar_mult(priv, peer);
  if (shared.infinity) {
    return Error::make("ecdh.degenerate_result");
  }
  return shared.x.to_bytes_be(curve.params().byte_length);
}

}  // namespace revelio::crypto
