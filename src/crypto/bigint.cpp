#include "crypto/bigint.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

#include "common/hex.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

/// One limb of a carry chain: returns a + b + carry and leaves the carry
/// out (0 or 1) in carry. On x86-64 the intrinsic makes a K-limb chain one
/// add and K - 1 adcs with the carry kept in the flags; GCC 12 turns
/// neither the __int128 spelling nor __builtin_add_overflow into that.
[[gnu::always_inline]] inline std::uint64_t addc(std::uint64_t a,
                                                 std::uint64_t b,
                                                 unsigned char& carry) {
#if defined(__x86_64__)
  unsigned long long sum;
  carry = _addcarry_u64(carry, a, b, &sum);
  return sum;
#else
  const uint128 sum = static_cast<uint128>(a) + b + carry;
  carry = static_cast<unsigned char>(sum >> 64);
  return static_cast<std::uint64_t>(sum);
#endif
}

/// One limb of a borrow chain: returns a - b - borrow and leaves the
/// borrow out (0 or 1) in borrow; one sbb on x86-64.
[[gnu::always_inline]] inline std::uint64_t subb(std::uint64_t a,
                                                 std::uint64_t b,
                                                 unsigned char& borrow) {
#if defined(__x86_64__)
  unsigned long long diff;
  borrow = _subborrow_u64(borrow, a, b, &diff);
  return diff;
#else
  const uint128 diff = static_cast<uint128>(a) - b - borrow;
  borrow = static_cast<unsigned char>((diff >> 64) & 1);
  return static_cast<std::uint64_t>(diff);
#endif
}

template <std::size_t K>
unsigned char add_k(U384& r, const U384& a, const U384& b) {
  unsigned char carry = 0;
  for (std::size_t i = 0; i < K; ++i) {
    r.limbs[i] = addc(a.limbs[i], b.limbs[i], carry);
  }
  return carry;
}

template <std::size_t K>
unsigned char sub_k(U384& r, const U384& a, const U384& b) {
  unsigned char borrow = 0;
  for (std::size_t i = 0; i < K; ++i) {
    r.limbs[i] = subb(a.limbs[i], b.limbs[i], borrow);
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

// Montgomery multiplication is one product step and one reduction step:
// mul_wide writes the 2K-limb t = a*b, then redc (or
// p256_redc) returns t * 2^(-64K) mod m. The product and the generic
// reduction scan column by column into a three-word accumulator, which
// keeps the carry chains short; every loop is fully unrolled (K <= 6), so
// t[] can stay in registers.

/// The three-word column sum hi:acc of product scanning. A column adds at
/// most 2K + 1 double-word terms, so hi only counts a few carries.
struct Column {
  uint128 acc = 0;
  std::uint64_t hi = 0;

  void add(uint128 x) {
    acc += x;
    hi += acc < x;
  }

  /// Returns the low word and shifts the sum down by one word.
  std::uint64_t shift() {
    const auto low = static_cast<std::uint64_t>(acc);
    acc = (acc >> 64) | (static_cast<uint128>(hi) << 64);
    hi = 0;
    return low;
  }
};

/// t = a * b, column by column (Comba): K^2 word products.
template <std::size_t K>
[[gnu::always_inline]] inline void mul_wide(std::uint64_t (&t)[2 * K],
                                            const U384& a, const U384& b) {
  Column col;
#pragma GCC unroll 12
  for (std::size_t k = 0; k + 1 < 2 * K; ++k) {
#pragma GCC unroll 6
    for (std::size_t i = k < K ? 0 : k - K + 1; i <= k && i < K; ++i) {
      col.add(static_cast<uint128>(a.limbs[i]) * b.limbs[k - i]);
    }
    t[k] = col.shift();
  }
  t[2 * K - 1] = col.shift();
}

/// The reduced value is top * 2^(64K) + t[K..2K) < 2m: subtract m once when
/// the top carry is set or the low K limbs reach m (the K-limb borrow then
/// cancels the carry).
template <std::size_t K>
[[gnu::always_inline]] inline U384 final_sub(const std::uint64_t (&t)[2 * K],
                                             std::uint64_t top,
                                             const U384& m) {
  U384 r;
  for (std::size_t i = 0; i < K; ++i) r.limbs[i] = t[K + i];
  if (top != 0 || !less_k<K>(r, m)) sub_k<K>(r, r, m);
  return r;
}

/// Word-by-word Montgomery reduction t * 2^(-64K) mod m for any odd m,
/// column by column. Requires t < m * 2^(64K), so the result before the
/// final subtraction is below 2m. Column k < K picks mu[k] so that adding
/// mu[k] * m zeroes it; columns K..2K-1 are the result, and what is left
/// in the sum after them is the top carry.
template <std::size_t K>
[[gnu::always_inline]] inline U384 redc(std::uint64_t (&t)[2 * K],
                                        const U384& m, std::uint64_t n0) {
  std::uint64_t mu[K] = {};
  Column col;
#pragma GCC unroll 12
  for (std::size_t k = 0; k < 2 * K; ++k) {
#pragma GCC unroll 6
    for (std::size_t j = k < K ? 0 : k - K + 1; j < K && j < k; ++j) {
      col.add(static_cast<uint128>(mu[j]) * m.limbs[k - j]);
    }
    col.add(t[k]);
    if (k < K) {
      mu[k] = static_cast<std::uint64_t>(col.acc) * n0;
      col.add(static_cast<uint128>(mu[k]) * m.limbs[0]);
      col.shift();
    } else {
      t[k] = col.shift();
    }
  }
  return final_sub<K>(t, col.shift(), m);
}

/// P-256's p = 2^256 - 2^224 + 2^192 + 2^96 - 1, as U384 limbs.
constexpr std::array<std::uint64_t, U384::kLimbs> kP256Prime = {
    ~std::uint64_t{0}, 0x00000000ffffffffULL, 0, 0xffffffff00000001ULL, 0, 0};

/// redc<4> specialised to P-256's p (Gueron & Krasnov, JCEN 2015). Its
/// limbs are {2^64 - 1, 2^32 - 1, 0, 2^64 - 2^32 + 1} and
/// -p^-1 mod 2^64 = 1, so mu = t[i], and mu * (low two limbs) =
/// mu * 2^96 - mu cancels limb i and adds mu * 2^32 at limb i+1: two
/// shifts. Only the top limb needs a multiply. Same sums as redc<4> with
/// n0 = 1, so the same result bit for bit.
[[gnu::always_inline]] inline U384 p256_redc(std::uint64_t (&t)[8],
                                             const U384& m) {
  constexpr std::uint64_t kTopLimb = 0xffffffff00000001ULL;
  std::uint64_t top = 0;
#pragma GCC unroll 4
  for (std::size_t i = 0; i < 4; ++i) {
    const std::uint64_t mu = t[i];
    const uint128 hi = static_cast<uint128>(mu) * kTopLimb;
    unsigned char carry = 0;
    t[i + 1] = addc(t[i + 1], mu << 32, carry);
    t[i + 2] = addc(t[i + 2], mu >> 32, carry);
    t[i + 3] = addc(t[i + 3], static_cast<std::uint64_t>(hi), carry);
    // The high word of mu * kTopLimb is at most 2^64 - 2^32, so adding the
    // previous step's carry to it cannot wrap.
    t[i + 4] = addc(t[i + 4], static_cast<std::uint64_t>(hi >> 64) + top,
                    carry);
    top = carry;
  }
  return final_sub<4>(t, top, m);
}

/// The generic product-then-reduce multiplication on K limbs.
template <std::size_t K>
[[gnu::always_inline]] inline U384 generic_mul(const U384& a, const U384& b,
                                               const U384& m,
                                               std::uint64_t n0) {
  std::uint64_t t[2 * K] = {};
  mul_wide<K>(t, a, b);
  return redc<K>(t, m, n0);
}

// --- Bernstein–Yang safegcd (TCHES 2019), variable time ----------------
//
// Values are N signed 62-bit limbs (N = 5 for K = 4, 7 for K = 6): limbs
// below the top one lie in [0, 2^62); the top one carries the sign and the
// remaining high bits. The structure follows libsecp256k1's modinv64_var.

constexpr std::uint64_t kM62 = ~std::uint64_t{0} >> 2;
constexpr std::int64_t k2Pow62 = std::int64_t{1} << 62;
using int128 = __int128;

template <std::size_t N>
using S62 = std::array<std::int64_t, N>;

/// 2^62 times the transition matrix of 62 divsteps.
struct Trans {
  std::int64_t u, v, q, r;
};

int128 prod(std::int64_t a, std::int64_t b) {
  return static_cast<int128>(a) * b;
}

/// The low 62 bits of x, as a limb.
std::int64_t low62(int128 x) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(x) & kM62);
}

template <std::size_t K, std::size_t N>
S62<N> to_s62(const U384& a) {
  S62<N> out{};
  for (std::size_t i = 0; i < N; ++i) {
    const std::size_t bit = 62 * i;
    const std::size_t limb = bit / 64;
    const std::size_t shift = bit % 64;
    std::uint64_t w = a.limbs[limb] >> shift;
    if (shift > 2 && limb + 1 < K) w |= a.limbs[limb + 1] << (64 - shift);
    out[i] = static_cast<std::int64_t>(i + 1 < N ? w & kM62 : w);
  }
  return out;
}

/// Inverse of to_s62 for a value in [0, 2^(64K)) with limbs in range.
template <std::size_t K, std::size_t N>
U384 from_s62(const S62<N>& d) {
  U384 r;
  for (std::size_t i = 0; i < N; ++i) {
    const auto w = static_cast<std::uint64_t>(d[i]);
    const std::size_t bit = 62 * i;
    const std::size_t limb = bit / 64;
    const std::size_t shift = bit % 64;
    r.limbs[limb] |= w << shift;
    if (shift > 2 && limb + 1 < K) r.limbs[limb + 1] |= w >> (64 - shift);
  }
  return r;
}

/// Runs 62 divsteps on the low limbs f0 (odd) and g0, updating eta
/// (= -delta) and returning the scaled transition matrix. A run of zero
/// bits in g costs one shift; otherwise one step cancels up to six low
/// bits of g.
Trans divsteps_62(std::int64_t& eta, std::uint64_t f0, std::uint64_t g0) {
  std::uint64_t u = 1, v = 0, q = 0, r = 1;
  std::uint64_t f = f0, g = g0;
  int i = 62;
  for (;;) {
    // The sentinel bit stops the count at the i divsteps left.
    const int zeros = std::countr_zero(g | (~std::uint64_t{0} << i));
    g >>= zeros;
    u <<= zeros;
    v <<= zeros;
    eta -= zeros;
    i -= zeros;
    if (i == 0) break;
    if (eta < 0) {
      // (f, g) becomes (g, -f), and the matrix rows with them.
      eta = -eta;
      g = 0 - std::exchange(f, g);
      q = 0 - std::exchange(u, q);
      r = 0 - std::exchange(v, r);
    }
    // w = -g/f mod 2^bits cancels the low bits of g; no more than eta + 1
    // before delta changes sign again, and no more than the i steps left.
    const int bits = std::min({static_cast<int>(eta) + 1, i, 6});
    const std::uint64_t w =
        (f * g * (f * f - 2)) & (~std::uint64_t{0} >> (64 - bits));
    g += f * w;
    q += u * w;
    r += v * w;
  }
  return {static_cast<std::int64_t>(u), static_cast<std::int64_t>(v),
          static_cast<std::int64_t>(q), static_cast<std::int64_t>(r)};
}

/// [d, e] <- (t * [d, e] + m * [md, me]) / 2^62, with md and me chosen to
/// make the low 62 bits vanish and keep d and e within (-2m, m).
template <std::size_t N>
void update_de(S62<N>& d, S62<N>& e, const Trans& t, const std::int64_t* m,
               std::uint64_t minv62) {
  const std::int64_t sd = d[N - 1] >> 63;
  const std::int64_t se = e[N - 1] >> 63;
  std::int64_t md = (t.u & sd) + (t.v & se);
  std::int64_t me = (t.q & sd) + (t.r & se);
  int128 cd = prod(t.u, d[0]) + prod(t.v, e[0]);
  int128 ce = prod(t.q, d[0]) + prod(t.r, e[0]);
  md -= low62(minv62 * static_cast<std::uint64_t>(cd) +
              static_cast<std::uint64_t>(md));
  me -= low62(minv62 * static_cast<std::uint64_t>(ce) +
              static_cast<std::uint64_t>(me));
  cd = (cd + prod(m[0], md)) >> 62;
  ce = (ce + prod(m[0], me)) >> 62;
  for (std::size_t i = 1; i < N; ++i) {
    cd += prod(t.u, d[i]) + prod(t.v, e[i]) + prod(m[i], md);
    ce += prod(t.q, d[i]) + prod(t.r, e[i]) + prod(m[i], me);
    d[i - 1] = low62(cd);
    e[i - 1] = low62(ce);
    cd >>= 62;
    ce >>= 62;
  }
  d[N - 1] = static_cast<std::int64_t>(cd);
  e[N - 1] = static_cast<std::int64_t>(ce);
}

/// [f, g] <- t * [f, g] / 2^62 over the low len limbs (exact division).
template <std::size_t N>
void update_fg(std::size_t len, S62<N>& f, S62<N>& g, const Trans& t) {
  int128 cf = (prod(t.u, f[0]) + prod(t.v, g[0])) >> 62;
  int128 cg = (prod(t.q, f[0]) + prod(t.r, g[0])) >> 62;
  for (std::size_t i = 1; i < len; ++i) {
    cf += prod(t.u, f[i]) + prod(t.v, g[i]);
    cg += prod(t.q, f[i]) + prod(t.r, g[i]);
    f[i - 1] = low62(cf);
    g[i - 1] = low62(cg);
    cf >>= 62;
    cg >>= 62;
  }
  f[len - 1] = static_cast<std::int64_t>(cf);
  g[len - 1] = static_cast<std::int64_t>(cg);
}

/// Brings every limb below the top one back into [0, 2^62).
template <std::size_t N>
void carry_s62(S62<N>& d) {
  for (std::size_t i = 0; i + 1 < N; ++i) {
    d[i + 1] += d[i] >> 62;
    d[i] = low62(d[i]);
  }
}

/// a^-1 mod m for odd m and gcd(a, m) = 1, a < 2^(64K); 0 for a = 0.
template <std::size_t K, std::size_t N>
U384 safegcd_inv(const U384& a, const std::int64_t* m, std::uint64_t minv62) {
  S62<N> d{};
  S62<N> e{};
  e[0] = 1;
  S62<N> f{};
  std::copy_n(m, N, f.begin());
  S62<N> g = to_s62<K, N>(a);
  std::size_t len = N;
  std::int64_t eta = -1;
  for (;;) {
    const Trans t = divsteps_62(eta, static_cast<std::uint64_t>(f[0]),
                                static_cast<std::uint64_t>(g[0]));
    update_de<N>(d, e, t, m, minv62);
    update_fg<N>(len, f, g, t);
    if (g[0] == 0) {
      std::int64_t rest = 0;
      for (std::size_t j = 1; j < len; ++j) rest |= g[j];
      if (rest == 0) break;
    }
    // Drop the top limb once it is 0 or -1 in both f and g, folding its
    // sign into the limb below.
    const std::int64_t fn = f[len - 1];
    const std::int64_t gn = g[len - 1];
    if (len > 1 && (fn == 0 || fn == -1) && (gn == 0 || gn == -1)) {
      f[len - 2] += fn * k2Pow62;
      g[len - 2] += gn * k2Pow62;
      --len;
    }
  }
  // g = 0 and f = +-gcd = +-1: d = +-a^-1, within (-2m, m). Fold into
  // [0, m): add m if negative, negate if f is, add m again if negative.
  if (d[N - 1] < 0) {
    for (std::size_t i = 0; i < N; ++i) d[i] += m[i];
  }
  if (f[len - 1] < 0) {
    for (std::size_t i = 0; i < N; ++i) d[i] = -d[i];
  }
  carry_s62<N>(d);
  if (d[N - 1] < 0) {
    for (std::size_t i = 0; i < N; ++i) d[i] += m[i];
    carry_s62<N>(d);
  }
  return from_s62<K, N>(d);
}

}  // namespace

std::uint64_t add_with_carry(U384& r, const U384& a, const U384& b) {
  return add_k<U384::kLimbs>(r, a, b);
}

std::uint64_t sub_with_borrow(U384& r, const U384& a, const U384& b) {
  return sub_k<U384::kLimbs>(r, a, b);
}

MontCtx::MontCtx(const U384& modulus)
    : m_(modulus),
      k_(modulus.bit_length() <= 256 ? 4 : U384::kLimbs),
      p256_(modulus.limbs == kP256Prime) {
  assert((m_.limbs[0] & 1) == 1 && "Montgomery modulus must be odd");

  // m^-1 mod 2^64 via Newton iteration: x_{k+1} = x_k (2 - m x_k).
  std::uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) {
    inv *= 2 - m_.limbs[0] * inv;
  }
  n0_ = ~inv + 1;  // -m^-1 mod 2^64
  minv62_ = inv & kM62;
  if (k_ == 4) {
    const S62<5> m62 = to_s62<4, 5>(m_);
    std::copy(m62.begin(), m62.end(), m62_.begin());
  } else {
    m62_ = to_s62<6, 7>(m_);
  }

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
  r3_ = mul(r2_, r2_);  // R^4 / R
}

U384 MontCtx::to_mont(const U384& a) const {
  // An input wider than K limbs takes one 6-limb multiplication by
  // 2^384 R: a * 2^384 R / 2^384 = a R mod m.
  if (a.bit_length() > 64 * k_) return generic_mul<6>(a, wide_, m_, n0_);
  return mul(a, r2_);
}

U384 MontCtx::mul(const U384& a, const U384& b) const {
  if (p256_) {
    std::uint64_t t[8] = {};
    mul_wide<4>(t, a, b);
    return p256_redc(t, m_);
  }
  return k_ == 4 ? generic_mul<4>(a, b, m_, n0_)
                 : generic_mul<6>(a, b, m_, n0_);
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
    for (int i = 0; i < 4; ++i) result = sqr(result);
    if (digit != 0) result = mul(result, table[digit]);
  }
  return result;
}

U384 MontCtx::inv(const U384& a) const {
  // safegcd on the Montgomery form aR gives (aR)^-1 = a^-1 R^-1; one
  // multiplication by R^3 lifts it back to a^-1 R.
  const U384 plain_inv =
      k_ == 4 ? safegcd_inv<4, 5>(a, m62_.data(), minv62_)
              : safegcd_inv<6, 7>(a, m62_.data(), minv62_);
  return mul(plain_inv, r3_);
}

U384 mont_mul_generic(const MontCtx& ctx, const U384& a, const U384& b) {
  return ctx.k_ == 4 ? generic_mul<4>(a, b, ctx.m_, ctx.n0_)
                     : generic_mul<6>(a, b, ctx.m_, ctx.n0_);
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
