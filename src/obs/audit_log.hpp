// Tamper-evident attestation audit chain.
//
// The paper's trust story is that *end users* can check what the gateway
// did on their behalf; SNPGuard (PAPERS.md) argues an attestation workflow
// must leave an independently checkable evidence trail. This log is that
// trail: every session verdict — accepted or rejected — is appended as a
// fixed-size binary record (measurement, VCEK chain digest, TCB, checks
// bitmap, failure step, evidence digest) to a hash chain
//
//   h_0 = SHA-256("revelio-audit-v1")
//   h_i = SHA-256(h_{i-1} || 0x01 || record_i)
//
// with a Merkle checkpoint every `interval` records (the root over the
// epoch's record hashes, itself folded into the chain), so an auditor can
// verify a whole epoch against one 32-byte root without replaying every
// record, while the chain makes any insertion, deletion, reorder, or
// single flipped bit change every later h_i and the final head.
//
// serialize() emits a self-contained byte stream (magic + parameters +
// frames + head trailer) that tools/audit_verify — a standalone binary
// with no gateway state — replays offline with verify(). The gateway
// cannot rewrite history it has already exported: any divergence between
// a published head and a re-verified stream is proof of tampering.
//
// Persistence (PR 9): set_sink() registers an append-through hook that
// receives every frame as it is chained — the durable tier
// (obs/audit_store.hpp) writes them to the KV store — and restore()
// rebuilds a log from a serialized stream, re-verifying the entire chain
// before accepting a single record, so a gateway can never resume on top
// of a history it cannot prove. verify_prefix() distinguishes a cleanly
// truncated tail (a crash mid-append) from interior tampering and reports
// how far the valid prefix extends.
//
// Thread-safety: append() serializes on an internal mutex (many sessions
// reach their verdict concurrently); serialize()/head() take the same
// mutex and may interleave with appends.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "crypto/sha2.hpp"

namespace revelio::obs {

/// One session verdict. Fixed-size on the wire (kWireSize bytes) so the
/// stream is seekable and a flipped byte cannot shift frame boundaries.
struct AuditRecord {
  /// Bits of `checks`, mirroring core::AttestationChecks field order.
  enum Check : std::uint8_t {
    kEvidenceFetched = 1 << 0,
    kBindingOk = 1 << 1,      // REPORT_DATA covers the served key
    kChainOk = 1 << 2,        // VCEK chains to the AMD root
    kSignatureOk = 1 << 3,    // report signed by that VCEK
    kMeasurementOk = 1 << 4,  // measurement in the accepted set
    kTlsBindingOk = 1 << 5,   // session terminates at the attested key
  };

  std::uint64_t session = 0;
  std::uint64_t virt_us = 0;  // virtual clock at the verdict
  bool accepted = false;
  std::uint8_t checks = 0;  // bitmap of Check
  /// First check that failed ("" when accepted); truncated to 15 bytes on
  /// the wire (NUL-padded fixed field).
  std::string failure_step;
  crypto::Digest48 measurement{};    // zero when evidence never arrived
  crypto::Digest32 vcek_chain{};     // SHA-256 over vcek||ask||ark DER
  std::uint64_t tcb = 0;             // reported TCB, TcbVersion::encode()
  crypto::Digest32 evidence_digest{};  // SHA-256 over the evidence bundle

  static constexpr std::size_t kFailureStepSize = 16;  // 15 chars + NUL pad
  static constexpr std::size_t kWireSize =
      8 + 8 + 1 + 1 + kFailureStepSize + 48 + 32 + 8 + 32;

  Bytes serialize() const;
  /// Bounds-checked deserialization: `wire` must be exactly kWireSize
  /// bytes. Short input fails with "audit.record_truncated", long input
  /// with "audit.record_oversized" — never silent acceptance or an
  /// out-of-bounds read.
  static Result<AuditRecord> parse(ByteView wire);
};

class AuditLog {
 public:
  /// `checkpoint_interval` records per Merkle epoch (clamped to >= 1).
  explicit AuditLog(std::size_t checkpoint_interval = 64);

  /// Appends one verdict: extends the hash chain, and when the current
  /// epoch reaches the checkpoint interval, folds the epoch's Merkle root
  /// in as a checkpoint frame. Thread-safe.
  void append(const AuditRecord& record);

  std::uint64_t records() const;
  std::uint64_t checkpoints() const;
  /// Current chain head. Publish it out of band (a transparency log, a
  /// signed statement) to bind the gateway to this history.
  crypto::Digest32 head() const;

  /// Self-contained stream: magic, parameters, every frame appended so
  /// far, and a trailer carrying the current head. verify() replays it.
  Bytes serialize() const;

  /// Append-through persistence hook: called under the log mutex with
  /// every frame (record and checkpoint) as it is folded into the chain,
  /// in chain order. A failing sink never blocks the in-memory chain —
  /// failures are counted and surfaced via sink_failures() so operators
  /// can alarm on a durability gap instead of silently losing history.
  using FrameSink = std::function<Status(std::uint8_t frame_type, ByteView body)>;
  void set_sink(FrameSink sink);
  std::uint64_t sink_failures() const;

  struct VerifySummary {
    std::uint64_t records = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::string head_hex;  // recomputed chain head
  };

  /// Replays a serialized stream with no state beyond the bytes given:
  /// recomputes the chain and every checkpoint root, and compares the
  /// trailer head. Any flipped byte, truncation, insertion or reorder
  /// yields an "audit.tamper" error naming the offending frame (a stream
  /// that simply ends without a trailer yields "audit.truncated").
  static Result<VerifySummary> verify(ByteView stream);

  /// How far a possibly-damaged stream verifies. Distinguishes a *clean
  /// truncation* — the stream stops mid-frame or before the trailer,
  /// exactly what a crash mid-append produces — from interior tampering
  /// (valid-looking bytes that fail the chain). Header damage (bad magic
  /// or parameters) still fails the call outright.
  struct PrefixSummary {
    VerifySummary summary;      // over the longest verifiable prefix
    bool complete = false;      // trailer present and head matches
    bool truncated = false;     // stopped at a clean truncation
    std::uint64_t valid_frames = 0;
    std::uint64_t last_valid_record = 0;  // 1-based; 0 = none survived
    std::string failure_code;   // audit.record_truncated /
                                // audit.checkpoint_truncated /
                                // audit.trailer_truncated /
                                // audit.truncated / audit.tamper
    std::string failure_detail;
  };
  static Result<PrefixSummary> verify_prefix(ByteView stream);

  /// One chaining step, h' = SHA-256(h || frame_type || body) — exposed so
  /// the durable tier can maintain the running head it persists alongside
  /// each frame.
  static crypto::Digest32 chain_step(const crypto::Digest32& head,
                                     std::uint8_t frame_type, ByteView body);

  /// Assembles a serialized stream from its parts (header parameters, the
  /// concatenated frames exactly as appended, and the trailer head). The
  /// result is what serialize() would have produced — verify()/restore()
  /// accept it. Used by the durable tier to rebuild a stream from
  /// individually persisted frames.
  static Bytes assemble_stream(std::size_t checkpoint_interval,
                               ByteView frames, const crypto::Digest32& head);

  /// Rebuilds this (empty) log from a serialized stream, re-verifying the
  /// entire chain first: a stream that fails verification — including a
  /// truncated tail — restores nothing. The stream's checkpoint interval
  /// must match this log's. Fail-closed by construction: after a
  /// successful restore the log's head equals the stream's trailer head
  /// and appends continue the chain seamlessly.
  Status restore(ByteView stream);

 private:
  void append_checkpoint_locked();
  void emit_locked(std::uint8_t frame_type, ByteView body);

  const std::size_t interval_;
  mutable std::mutex mu_;
  crypto::Digest32 head_;
  Bytes frames_;  // every frame appended so far, in order
  std::vector<crypto::Digest32> epoch_leaves_;  // record hashes this epoch
  std::uint64_t records_ = 0;
  std::uint64_t checkpoints_ = 0;
  std::uint64_t accepted_ = 0;
  FrameSink sink_;
  std::uint64_t sink_failures_ = 0;
};

}  // namespace revelio::obs
