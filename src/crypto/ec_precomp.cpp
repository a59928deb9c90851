#include "crypto/ec_precomp.hpp"

#include <cassert>
#include <cstdlib>

namespace revelio::crypto::ecp {

Jac jac_double(const MontCtx& fp, const Jac& p) {
  if (p.is_inf()) return p;
  if (p.y.is_zero()) return Jac::inf();

  const U384 delta = fp.sqr(p.z);
  const U384 gamma = fp.sqr(p.y);
  // alpha = 3 (x - delta)(x + delta)
  U384 alpha = fp.mul(fp.sub(p.x, delta), fp.add(p.x, delta));
  alpha = fp.add(fp.add(alpha, alpha), alpha);

  Jac r;
  // Z3 = 2 y z
  const U384 yz = fp.mul(p.y, p.z);
  r.z = fp.add(yz, yz);
  // X3 = alpha^2 - 8 beta, with 4 beta = x (4 gamma)
  const U384 gamma2 = fp.add(gamma, gamma);
  const U384 beta4 = fp.mul(p.x, fp.add(gamma2, gamma2));
  r.x = fp.sub(fp.sqr(alpha), fp.add(beta4, beta4));
  // Y3 = alpha (4 beta - X3) - 8 gamma^2, with 8 gamma^2 = 2 (2 gamma)^2
  const U384 gamma2_sq = fp.sqr(gamma2);
  r.y = fp.sub(fp.mul(alpha, fp.sub(beta4, r.x)),
               fp.add(gamma2_sq, gamma2_sq));
  return r;
}

Jac jac_add(const MontCtx& fp, const Jac& a, const Jac& b) {
  if (a.is_inf()) return b;
  if (b.is_inf()) return a;

  const U384 z1z1 = fp.sqr(a.z);
  const U384 z2z2 = fp.sqr(b.z);
  const U384 u1 = fp.mul(a.x, z2z2);
  const U384 u2 = fp.mul(b.x, z1z1);
  const U384 s1 = fp.mul(fp.mul(a.y, b.z), z2z2);
  const U384 s2 = fp.mul(fp.mul(b.y, a.z), z1z1);

  const U384 h = fp.sub(u2, u1);
  const U384 r = fp.sub(s2, s1);
  if (h.is_zero()) {
    if (r.is_zero()) return jac_double(fp, a);
    return Jac::inf();
  }

  const U384 hh = fp.sqr(h);
  const U384 hhh = fp.mul(h, hh);
  const U384 v = fp.mul(u1, hh);

  Jac out;
  // X3 = r^2 - HHH - 2V
  out.x = fp.sub(fp.sub(fp.sqr(r), hhh), fp.add(v, v));
  // Y3 = r (V - X3) - S1 * HHH
  out.y = fp.sub(fp.mul(r, fp.sub(v, out.x)), fp.mul(s1, hhh));
  // Z3 = Z1 Z2 H
  out.z = fp.mul(fp.mul(a.z, b.z), h);
  return out;
}

Jac jac_add_affine(const MontCtx& fp, const Jac& a, const Aff& b) {
  if (b.inf) return a;
  if (a.is_inf()) return jac_from_affine(fp, b);

  // Z2 = 1, so U1 = X1, S1 = Y1.
  const U384 z1z1 = fp.sqr(a.z);
  const U384 u2 = fp.mul(b.x, z1z1);
  const U384 s2 = fp.mul(fp.mul(b.y, a.z), z1z1);

  const U384 h = fp.sub(u2, a.x);
  const U384 r = fp.sub(s2, a.y);
  if (h.is_zero()) {
    if (r.is_zero()) return jac_double(fp, a);
    return Jac::inf();
  }

  const U384 hh = fp.sqr(h);
  const U384 hhh = fp.mul(h, hh);
  const U384 v = fp.mul(a.x, hh);

  Jac out;
  out.x = fp.sub(fp.sub(fp.sqr(r), hhh), fp.add(v, v));
  out.y = fp.sub(fp.mul(r, fp.sub(v, out.x)), fp.mul(a.y, hhh));
  out.z = fp.mul(a.z, h);
  return out;
}

Jac jac_from_affine(const MontCtx& fp, const Aff& a) {
  if (a.inf) return Jac::inf();
  return Jac{a.x, a.y, fp.one()};
}

std::vector<Aff> batch_normalize(const MontCtx& fp,
                                 const std::vector<Jac>& pts) {
  std::vector<U384> zs;
  zs.reserve(pts.size());
  for (const Jac& p : pts) {
    if (!p.is_inf()) zs.push_back(p.z);
  }
  const std::vector<U384> zinvs = fp.batch_inv(zs);
  std::vector<Aff> out(pts.size());
  auto zinv = zinvs.begin();
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (pts[i].is_inf()) continue;
    const U384 zinv2 = fp.sqr(*zinv);
    out[i] = Aff{fp.mul(pts[i].x, zinv2),
                 fp.mul(pts[i].y, fp.mul(zinv2, *zinv)), false};
    ++zinv;
  }
  return out;
}

std::vector<std::int8_t> wnaf_recode(const U384& k, unsigned width) {
  assert(width >= 2 && width <= 7);
  // Word-window recoding (libsecp256k1's ecmult_wnaf shape): scan k's bits
  // with a carry instead of subtracting each digit from a 384-bit copy.
  // A digit consumes width + 1 bits, and bits above k's top read as zero.
  constexpr unsigned kBits = U384::kLimbs * 64;
  const unsigned window = width + 1;
  auto bits = [&k](unsigned pos, unsigned count) -> std::uint32_t {
    const unsigned limb = pos / 64;
    const unsigned shift = pos % 64;
    if (limb >= U384::kLimbs) return 0;
    std::uint64_t v = k.limbs[limb] >> shift;
    if (shift + count > 64 && limb + 1 < U384::kLimbs) {
      v |= k.limbs[limb + 1] << (64 - shift);
    }
    return static_cast<std::uint32_t>(v & ((std::uint64_t{1} << count) - 1));
  };

  // The digit a final carry leaves lies at most `window` bits past the top.
  std::vector<std::int8_t> digits(kBits + window + 1, 0);
  std::size_t length = 0;  // one past the last nonzero digit
  std::uint32_t carry = 0;
  for (unsigned bit = 0; bit < kBits || carry != 0;) {
    if (bits(bit, 1) == carry) {
      ++bit;
      continue;
    }
    std::int32_t word = static_cast<std::int32_t>(bits(bit, window) + carry);
    carry = static_cast<std::uint32_t>(word >> width) & 1;
    word -= static_cast<std::int32_t>(carry << window);
    digits[bit] = static_cast<std::int8_t>(word);
    length = bit + 1;
    bit += window;
  }
  digits.resize(length);
  return digits;
}

std::vector<std::vector<Aff>> odd_multiples_many(const MontCtx& fp,
                                                 const std::vector<Jac>& pts,
                                                 unsigned width) {
  const std::size_t count = std::size_t{1} << (width - 1);  // 1,3,...,2^w-1
  std::vector<Jac> all;
  all.reserve(pts.size() * count);
  for (const Jac& p : pts) {
    all.push_back(p);
    const Jac twice = jac_double(fp, p);
    for (std::size_t i = 1; i < count; ++i) {
      all.push_back(jac_add(fp, all.back(), twice));
    }
  }
  const std::vector<Aff> flat = batch_normalize(fp, all);
  std::vector<std::vector<Aff>> out(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    out[i].assign(flat.begin() + static_cast<std::ptrdiff_t>(i * count),
                  flat.begin() + static_cast<std::ptrdiff_t>((i + 1) * count));
  }
  return out;
}

FixedBaseTable::FixedBaseTable(const MontCtx& fp, const Aff& g,
                               unsigned scalar_bits) {
  windows_ = (scalar_bits + kWindowBits) / kWindowBits;  // ceil((bits+1)/w)
  table_.reserve(std::size_t{windows_} * kEntries);

  // One window at a time, each normalized with its own inversion together
  // with the next window's base: the base stays affine, so odd multiples
  // are mixed additions (11 field ops; even ones double, 8), and only one
  // window of Jacobian scratch is ever live beside the table.
  Aff base = g;  // 2^(7i) * G for the current window
  std::vector<Jac> m(kEntries + 1);  // m[d - 1] = d * base, then 2^7 * base
  for (unsigned w = 0; w < windows_; ++w) {
    m[0] = jac_from_affine(fp, base);
    for (unsigned d = 2; d <= kEntries; ++d) {
      m[d - 1] = d % 2 == 0 ? jac_double(fp, m[d / 2 - 1])
                            : jac_add_affine(fp, m[d - 2], base);
    }
    m[kEntries] = jac_double(fp, m[kEntries - 1]);
    const std::vector<Aff> aff = batch_normalize(fp, m);
    table_.insert(table_.end(), aff.begin(), aff.end() - 1);
    base = aff.back();
  }
}

Jac FixedBaseTable::mul(const MontCtx& fp, const U384& k) const {
  constexpr std::uint64_t kMask = (std::uint64_t{1} << kWindowBits) - 1;
  constexpr int kTop = static_cast<int>(kEntries);  // the largest digit
  Jac acc = Jac::inf();
  int carry = 0;
  for (unsigned w = 0; w < windows_; ++w) {
    // 7 does not divide 64: a window that straddles two limbs ORs in the
    // next one, and no read goes past the top limb.
    const unsigned bit = w * kWindowBits;
    const unsigned limb = bit / 64;
    const unsigned shift = bit % 64;
    std::uint64_t raw = 0;
    if (limb < U384::kLimbs) {
      raw = k.limbs[limb] >> shift;
      if (shift + kWindowBits > 64 && limb + 1 < U384::kLimbs) {
        raw |= k.limbs[limb + 1] << (64 - shift);
      }
    }
    // Digits run over [-63, 64]: a value above 64 becomes value - 128 and
    // carries 1 into the next window.
    const int value = static_cast<int>(raw & kMask) + carry;
    carry = value > kTop ? 1 : 0;
    const int digit = value - carry * 2 * kTop;
    if (digit == 0) continue;
    Aff entry = table_[std::size_t{w} * kEntries +
                       static_cast<std::size_t>(std::abs(digit)) - 1];
    if (digit < 0) entry.y = fp.sub(U384::zero(), entry.y);
    acc = jac_add_affine(fp, acc, entry);
  }
  return acc;
}

PinnedTableRegistry& PinnedTableRegistry::instance() {
  static PinnedTableRegistry registry;
  return registry;
}

std::shared_ptr<const VerifyTables> PinnedTableRegistry::get(
    const Bytes& key) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

bool PinnedTableRegistry::pin(
    const Bytes& key,
    const std::function<std::shared_ptr<const VerifyTables>()>& build) {
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    if (entries_.count(key) > 0) return true;
    if (entries_.size() >= kCapacity) return false;
  }
  // Build outside the lock: readers keep verifying meanwhile. A racing pin
  // of the same key wastes one build; the first insert wins.
  auto tables = build();
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (entries_.count(key) > 0) return true;
  if (entries_.size() >= kCapacity) return false;
  entries_.emplace(key, std::move(tables));
  return true;
}

PinnedTableRegistry::Stats PinnedTableRegistry::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  std::shared_lock<std::shared_mutex> lock(mutex_);
  s.pinned = entries_.size();
  return s;
}

}  // namespace revelio::crypto::ecp
