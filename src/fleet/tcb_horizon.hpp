// Per-chip TCB update horizons consulted fail-closed in the verify stage.
//
// A staged fleet TCB update (ROADMAP item 3) has a window problem: the
// moment a chip's firmware is updated, reports signed under the *old* TCB
// are still floating around — cached VCEK chains, evidence bundles served
// by VMs that have not refreshed yet. An attacker who captured a
// pre-update report (or a vulnerable pre-update firmware state) must not
// be able to replay it forever. The horizon set records, per chip, the
// minimum acceptable reported TCB and the virtual instant it takes
// effect: before the horizon the fleet is mid-rollout and old reports
// still verify; at or after it they are rejected fail-closed with
// failure_step "tcb_horizon" — before any signature work, exactly like
// the RevocationSet.
//
// Announcements only ever raise the bar: a later announcement with a
// lower minimum is ignored (lowering an announced floor would be a
// fail-open), and for an equal-or-higher minimum the new horizon wins.
//
// Persistence mirrors RevocationSet: open() backs the set with the
// durable KV tier under "fleet/tcb/<chip>" so horizons outlive a gateway
// restart, fails closed on any malformed persisted entry, and an
// announcement is ALWAYS active in memory even when the durable write
// fails.
//
// Thread-safe: checks take a mutex; read-mostly, off the crypto hot path.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "sevsnp/attestation_report.hpp"
#include "store/kv_store.hpp"

namespace revelio::fleet {

class TcbHorizon {
 public:
  /// In-memory set (tests, ephemeral gateways).
  TcbHorizon() = default;

  /// Store-backed set: loads every persisted horizon and writes new
  /// announcements through. Fails closed ("fleet.tcb_corrupt") if any
  /// persisted entry is malformed. The store must outlive the set.
  static Result<std::unique_ptr<TcbHorizon>> open(store::KvStore& kv);

  /// Announces a staged update: from `horizon_us` on, reports from `chip`
  /// below `minimum` are rejected. Returns whether the announcement was
  /// applied: ok(true) when it set or raised the floor (or re-announced
  /// an equal minimum with a new horizon), ok(false) when it was IGNORED
  /// because `minimum` is below the chip's current floor — a caller
  /// auditing the operation must surface the drop distinctly, not record
  /// it as an applied update.
  /// Returns an error when the durable write fails — but the horizon is
  /// ALWAYS active in memory from this call on.
  Result<bool> announce(const sevsnp::ChipId& chip, sevsnp::TcbVersion minimum,
                        std::uint64_t horizon_us,
                        const std::string& reason = {});

  /// True when a report from `chip` carrying `reported` is acceptable at
  /// virtual instant `now_us`. Chips with no announcement always pass.
  bool acceptable(const sevsnp::ChipId& chip, sevsnp::TcbVersion reported,
                  std::uint64_t now_us) const;

  struct Stats {
    std::uint64_t entries = 0;
    std::uint64_t checks = 0;      // acceptable() calls
    std::uint64_t rejections = 0;  // checks that hit an active horizon
  };
  Stats stats() const;
  std::size_t size() const;

 private:
  struct Entry {
    std::uint64_t minimum = 0;  // TcbVersion::encode()
    std::uint64_t horizon_us = 0;
  };

  mutable std::mutex mu_;
  std::map<Bytes, Entry> entries_;  // chip id bytes -> active horizon
  store::KvStore* kv_ = nullptr;
  mutable std::uint64_t checks_ = 0;
  mutable std::uint64_t rejections_ = 0;
};

}  // namespace revelio::fleet
