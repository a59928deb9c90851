// Precomputation machinery for fast elliptic-curve scalar multiplication.
//
// Three layers, all operating on Montgomery-domain coordinates:
//
//  * Jacobian/affine point formulas (a = -3 short Weierstrass) shared by the
//    naive ladder in ec.cpp and every fast path here. Mixed addition against
//    an affine table entry saves ~5 field mults over the general formula.
//  * wNAF recoding plus odd-multiple tables: a width-w signed-digit window
//    cuts the additions in a k*P ladder from ~bits/2 to ~bits/(w+1), and the
//    signed digits get point negation for free (negate y).
//  * Fixed-base window tables for each curve generator and a bounded LRU of
//    per-public-key tables, so the attestation hot path (the same ARK / ASK /
//    VCEK keys verified every session) skips both the doubling chain and the
//    table build.
//
// None of this is constant-time: lookups index tables by scalar digits. See
// DESIGN.md ("Crypto fast paths") for why that is acceptable for the verify
// side (public data only) and what the sign side would need instead.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "common/bytes.hpp"
#include "common/lru_cache.hpp"
#include "crypto/bigint.hpp"

namespace revelio::crypto::ecp {

/// Jacobian coordinates (X, Y, Z) with x = X/Z^2, y = Y/Z^3; all coordinates
/// in the Montgomery domain. Z == 0 encodes the point at infinity.
struct Jac {
  U384 x;
  U384 y;
  U384 z;

  bool is_inf() const { return z.is_zero(); }
  static Jac inf() { return Jac{}; }
};

/// Affine Montgomery-domain point (implicit Z = 1); table entry format.
struct Aff {
  U384 x;
  U384 y;
  bool inf = true;
};

/// Doubling with a = -3: dbl-2001-b's sums, with Z3 = 2YZ, 4 beta = X (4
/// gamma) and 8 gamma^2 = 2 (2 gamma)^2, so 4M + 4S and 12 modular
/// additions or subtractions.
Jac jac_double(const MontCtx& fp, const Jac& p);

/// General Jacobian addition (add-2007-bl without Z caching).
Jac jac_add(const MontCtx& fp, const Jac& a, const Jac& b);

/// Mixed addition: Jacobian + affine (madd-2007-bl shape, 8M + 3S).
Jac jac_add_affine(const MontCtx& fp, const Jac& a, const Aff& b);

/// Lifts an affine table entry to Jacobian.
Jac jac_from_affine(const MontCtx& fp, const Aff& a);

/// Normalizes many Jacobian points to affine with a single field inversion
/// (Montgomery's simultaneous-inversion trick). Infinity maps to inf entries.
std::vector<Aff> batch_normalize(const MontCtx& fp, const std::vector<Jac>& pts);

/// Width-w non-adjacent form of k, least-significant digit first. Digits are
/// zero or odd with |d| < 2^w. Requires k < 2^384 - 2^w (callers reduce mod
/// the curve order first, which guarantees it).
std::vector<std::int8_t> wnaf_recode(const U384& k, unsigned width);

/// Odd-multiple tables for MANY points at once, normalized together:
/// out[j][i] holds (2i+1) * pts[j] in Montgomery affine, sized for wNAF
/// width `width`, and the whole batch shares a single field inversion
/// instead of one per point.
/// This is what makes per-signature R tables affordable in batch ECDSA
/// verification — at N=64 the per-table inversions would otherwise rival
/// the ladder itself.
std::vector<std::vector<Aff>> odd_multiples_many(const MontCtx& fp,
                                                 const std::vector<Jac>& pts,
                                                 unsigned width);

/// Fixed-base precomputation for one curve generator: signed 7-bit windows,
/// the layout of Gueron & Krasnov's P-256 code. Window i holds
/// d * 2^(7i) * G for d = 1..64 in affine form. mul recodes k on the fly
/// into digits in [-63, 64] (a window value above 64 becomes value - 128
/// and carries 1 into the next window) and takes a negative digit as the
/// entry with y negated. A k*G then costs one mixed addition per nonzero
/// digit, about 36 on P-256 and 54 on P-384, and no doublings at all.
/// There are ceil((scalar_bits + 1) / 7) windows; the extra bit absorbs the
/// top carry. The tables hold 37 x 64 entries (240 KiB) for P-256 and
/// 55 x 64 (358 KiB) for P-384, built once per process.
class FixedBaseTable {
 public:
  /// `g` is the generator in Montgomery affine; `scalar_bits` bounds the
  /// scalars that will be passed to mul (the curve order's bit length).
  FixedBaseTable(const MontCtx& fp, const Aff& g, unsigned scalar_bits);

  /// k * G for k < 2^scalar_bits. Montgomery-domain Jacobian result.
  Jac mul(const MontCtx& fp, const U384& k) const;

 private:
  /// One width for both curves.
  static constexpr unsigned kWindowBits = 7;
  /// Entries per window: the digit magnitudes 1..2^(w-1).
  static constexpr unsigned kEntries = 1u << (kWindowBits - 1);

  unsigned windows_;
  std::vector<Aff> table_;  // windows_ x kEntries; [i * kEntries + d - 1]
};

/// Per-public-key precomputation used by Strauss–Shamir verification: odd
/// multiples of Q and of 2^half * Q, so u2 * Q runs as two half-length
/// scalars over one shared doubling chain.
struct VerifyTables {
  std::vector<Aff> low;    // odd multiples of Q
  std::vector<Aff> high;   // odd multiples of 2^half * Q
};

/// Bounded LRU of VerifyTables keyed by the SEC1 point encoding. Values
/// are shared_ptr so an eviction cannot invalidate a table mid-verification.
using VerifyTableCache =
    common::LruCache<Bytes, std::shared_ptr<const VerifyTables>>;

/// Process-wide registry of PINNED verification tables for well-known bases
/// (the AMD ARK/ASK and the fleet's VCEKs — the same handful of keys every
/// session verifies against). Unlike the LRU above, entries are immutable
/// once pinned and are never evicted, so readers take only a shared lock and
/// never mutate list structure; thousands of concurrent session threads can
/// hit the same table without serializing on a splice. Bounded at kCapacity
/// pins; beyond that, pin() refuses and callers fall back to the LRU.
class PinnedTableRegistry {
 public:
  /// Pins for every curve live in one registry: keys are SEC1 encodings,
  /// whose length differs per curve, so entries cannot collide.
  static PinnedTableRegistry& instance();

  std::shared_ptr<const VerifyTables> get(const Bytes& key) const;

  /// Pins the tables `build` returns under `key`. `build` runs only when
  /// the key is new and the registry has room, so a full registry costs
  /// no table build. Returns false (and pins nothing) when the registry is
  /// full; returns true when pinned now or already present. The presence
  /// probe counts as neither a hit nor a miss.
  bool pin(const Bytes& key,
           const std::function<std::shared_ptr<const VerifyTables>()>& build);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::size_t pinned = 0;
  };
  Stats stats() const;

  /// A pinned table is ~3 KiB; 16 pins cover ARK + ASK + a fleet's VCEKs
  /// while bounding the never-freed footprint at ~48 KiB.
  static constexpr std::size_t kCapacity = 16;

 private:
  PinnedTableRegistry() = default;

  mutable std::shared_mutex mutex_;
  std::map<Bytes, std::shared_ptr<const VerifyTables>> entries_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
};

}  // namespace revelio::crypto::ecp
