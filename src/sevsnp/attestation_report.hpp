// SEV-SNP attestation report (ATTESTATION_REPORT structure).
//
// Field-for-field model of the report the AMD-SP returns to a guest via
// MSG_REPORT_REQ: launch measurement (SHA-384), 64 bytes of guest-chosen
// REPORT_DATA, the platform's CHIP_ID, the reported TCB version, the guest
// policy, and an ECDSA P-384 signature by the VCEK over everything above.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "crypto/sha2.hpp"

namespace revelio::sevsnp {

/// SEV-SNP TCB version: per-component security patch levels packed the way
/// the firmware reports them.
struct TcbVersion {
  std::uint8_t bootloader = 0;
  std::uint8_t tee = 0;
  std::uint8_t snp = 0;
  std::uint8_t microcode = 0;

  std::uint64_t encode() const {
    return (static_cast<std::uint64_t>(microcode) << 56) |
           (static_cast<std::uint64_t>(snp) << 48) |
           (static_cast<std::uint64_t>(tee) << 8) |
           static_cast<std::uint64_t>(bootloader);
  }
  static TcbVersion decode(std::uint64_t v) {
    return TcbVersion{static_cast<std::uint8_t>(v),
                      static_cast<std::uint8_t>(v >> 8),
                      static_cast<std::uint8_t>(v >> 48),
                      static_cast<std::uint8_t>(v >> 56)};
  }
  friend bool operator==(const TcbVersion&, const TcbVersion&) = default;
  /// a >= b componentwise — the anti-rollback comparison verifiers apply.
  bool at_least(const TcbVersion& other) const {
    return bootloader >= other.bootloader && tee >= other.tee &&
           snp >= other.snp && microcode >= other.microcode;
  }
};

using ChipId = FixedBytes<64>;
using ReportData = FixedBytes<64>;
using Measurement = crypto::Digest48;  // SHA-384 launch digest

struct AttestationReport {
  std::uint32_t version = 2;
  std::uint64_t guest_policy = 0;
  Measurement measurement;
  ReportData report_data;
  ChipId chip_id;
  TcbVersion reported_tcb;
  std::uint32_t vmpl = 0;
  Bytes signature;  // ECDSA P-384 (r||s) by the VCEK

  /// Canonical serialization of the signed portion.
  Bytes signed_body() const;

  Bytes serialize() const;
  static Result<AttestationReport> parse(ByteView data);
};

}  // namespace revelio::sevsnp
