// AMD Secure Processor (AMD-SP) model.
//
// The hardware root of trust of the whole architecture. Each AmdSp instance
// is one physical platform: it holds a chip-unique secret (the analogue of
// the fused chip endorsement seed), derives the Versioned Chip Endorsement
// Key (VCEK) from that secret and the current TCB version, accumulates the
// launch measurement of a guest, signs attestation reports, and derives
// measurement-bound sealing keys (§2.1).
//
// Substitution note: on real silicon the chip secret never leaves the fuse
// bank; here it is a DRBG-generated 32-byte value held privately by this
// object. Everything downstream — derivation, signing, verification — is
// real cryptography.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "crypto/drbg.hpp"
#include "crypto/ecdsa.hpp"
#include "sevsnp/attestation_report.hpp"

namespace revelio::sevsnp {

/// Key-derivation selector for MSG_KEY_REQ (subset of GUEST_FIELD_SELECT).
struct KeyDerivationPolicy {
  bool mix_measurement = true;  // bind to the launch digest
  bool mix_policy = false;      // bind to the guest policy
  std::string context;          // guest-chosen usage label

  friend bool operator==(const KeyDerivationPolicy&,
                         const KeyDerivationPolicy&) = default;
};

class AmdSp {
 public:
  /// `platform_seed` models the per-chip fused entropy.
  AmdSp(ByteView platform_seed, TcbVersion tcb);

  const ChipId& chip_id() const { return chip_id_; }
  TcbVersion tcb() const { return tcb_; }

  /// Firmware update: bumps the TCB, which rotates the VCEK.
  void update_firmware(TcbVersion new_tcb);

  /// VCEK public key for (this chip, given TCB); the KDS uses this when
  /// manufacturing endorsement certificates. The private key never leaves
  /// the AMD-SP.
  Bytes vcek_public_key(TcbVersion tcb) const;

  // --- Launch measurement state machine -------------------------------
  // The hypervisor calls these while building a guest; SNP_LAUNCH_FINISH
  // freezes the digest.

  /// Begins measuring a new guest context with the given policy.
  Status launch_start(std::uint64_t guest_policy);
  /// Extends the launch digest with one blob (firmware pages etc.).
  Status launch_update(ByteView data);
  /// Finalizes the measurement; reports can now be requested.
  Result<Measurement> launch_finish();
  /// Tears down the guest context (VM destroyed).
  void launch_reset();

  std::optional<Measurement> measurement() const {
    if (state_ != State::kRunning) return std::nullopt;
    return measurement_;
  }

  // --- Guest services (MSG_REPORT_REQ / MSG_KEY_REQ) -------------------

  /// Signs an attestation report over the frozen measurement with the
  /// guest-chosen REPORT_DATA (§2.1.1).
  Result<AttestationReport> get_report(const ReportData& report_data) const;

  /// Derives a sealing key bound to this chip and (optionally) the launch
  /// measurement (§2.1.3). Only a guest with an identical measurement on
  /// this platform can re-derive it.
  Result<Bytes> derive_key(const KeyDerivationPolicy& policy,
                           std::size_t length = 32) const;

  // --- Monotonic counters (rollback defence) ---------------------------
  // Chip-resident NVRAM-style counter slots, bound to the running guest's
  // launch measurement: only the identical image on this chip sees the
  // same slots, and the values live in the AMD-SP — they survive guest
  // teardown, reboot, and any amount of host disk manipulation. A guest
  // that stamps the current counter value into its sealed volume on every
  // write can detect a rolled-back volume on the next boot: the sealed
  // stamp no longer matches the chip's counter, which only ever moved
  // forward (§6.1.4's anti-rollback story applied to persistent state).

  /// Current value of counter `index` (starts at 0). Never advances.
  Result<std::uint64_t> counter_read(std::size_t index) const;
  /// Atomically advances counter `index` and returns the NEW value.
  Result<std::uint64_t> counter_increment(std::size_t index);

  static constexpr std::size_t kCounterSlots = 8;

 private:
  crypto::EcKeyPair vcek_for(TcbVersion tcb) const;

  enum class State { kIdle, kLaunching, kRunning };

  Bytes chip_secret_;
  ChipId chip_id_;
  TcbVersion tcb_;

  State state_ = State::kIdle;
  std::uint64_t guest_policy_ = 0;
  crypto::Sha384 launch_digest_;
  Measurement measurement_;
  /// (measurement bytes, slot) -> value. Keyed by measurement so distinct
  /// images on one chip cannot read or bump each other's counters; kept
  /// across launch_reset — that persistence IS the rollback defence.
  std::map<std::pair<Bytes, std::size_t>, std::uint64_t> counters_;
};

}  // namespace revelio::sevsnp
