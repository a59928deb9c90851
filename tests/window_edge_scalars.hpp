// Scalars at the edges of the fixed-base table's signed 7-bit recoding
// (ecp::FixedBaseTable), shared by the tier-1 and tier-2 crypto suites.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/ec.hpp"

namespace revelio::crypto {

/// Small digits, the largest digit 64 (no carry), 65 and 127 in every
/// window (a carry through every window), n - 2 and n - 1, P-384's top
/// window (bits 378-383) all set and receiving a carry, and a 48-byte value
/// that is reduced mod n first.
inline std::vector<U384> window_edge_scalars(const Curve& curve) {
  const U384& n = curve.params().n;
  const std::size_t bits = curve.params().byte_length * 8;
  const auto set_bits = [](U384& k, std::size_t from, std::size_t to) {
    for (std::size_t b = from; b < to; ++b) {
      k.limbs[b / 64] |= std::uint64_t{1} << (b % 64);
    }
  };
  // `value` in every whole window below bit bits - 1, which keeps k < n.
  const auto every_window = [&](std::uint64_t value) {
    U384 k;
    for (std::size_t lo = 0; lo + 7 < bits; lo += 7) {
      for (std::size_t j = 0; j < 7; ++j) {
        if ((value >> j) & 1) set_bits(k, lo + j, lo + j + 1);
      }
    }
    return k;
  };

  std::vector<U384> out;
  for (std::uint64_t k : {1, 2, 63, 64, 65, 127, 128}) {
    out.push_back(U384::from_u64(k));
  }
  for (std::uint64_t below : {2, 1}) {
    U384 k;
    sub_with_borrow(k, n, U384::from_u64(below));
    out.push_back(k);
  }
  for (std::uint64_t value : {64, 65, 127}) out.push_back(every_window(value));
  if (bits == 384) {
    U384 k;  // window 53 is 127, so its carry lifts window 54 to 64
    set_bits(k, 371, 384);
    out.push_back(k);
  }
  U384 wide;  // 2^384 - 1
  set_bits(wide, 0, 384);
  out.push_back(wide);
  return out;
}

}  // namespace revelio::crypto
