// Per-session flight recorder: a fixed-budget ring of compact binary
// events, and the per-session record that binds it.
//
// At gateway scale (PR 6 parks 100k sessions per worker) a full Tracer per
// session is unaffordable as an always-on tool — spans carry strings and
// the engine would hold N complete timelines to answer questions about the
// handful of sessions that matter. The flight recorder inverts the cost
// model, the way aircraft do: every session continuously records its last
// `capacity` events into a preallocated 16-byte/event ring (stage
// enter/exit, park/wake, retry, admission verdict, cache hit/miss), and
// only *anomalous* sessions — failed, shed, or in the p99 latency tail —
// dump their timeline to the trace sink. Healthy sessions cost exactly
// ring_bytes = capacity * 16, accounted by the session engine next to
// bytes_per_parked_session.
//
// Concurrency model: a recorder belongs to ONE session and the engine
// serializes a session's stages (sessions sharing a track never overlap,
// and one session's stages are strictly ordered by the event loop), so
// writes are single-threaded by construction — record_at() takes no lock
// and issues no atomics.
//
// Deep call sites reach the session through ONE thread binding: the engine
// binds the session's SessionRecord around each stage dispatch
// (ScopedSessionRecord). The record carries the ring (null when the
// recorder is off), the dispatch instant and the dispatch's virtual wait.
// flight_record() (resilience retries, VCEK and chain cache probes,
// verdicts) stamps its event with the dispatch instant, so a ring holds one
// time base; note_wait_us() (network transport, retry backoff) adds to the
// wait the engine splits out from service time. Both are no-ops costing
// one thread-local load when no record is bound.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace revelio::obs {

/// What happened. `arg` and `value` are type-specific:
///   kStageEnter/kStageExit  arg = stage id (core::SessionState), value =
///                           stage virtual duration in us (exit only)
///   kPark                   value = park delay in us
///   kWake                   arg = stage id about to run
///   kRetry                  arg = attempt number, value = backoff in us
///   kAdmission              arg = gate id (1 = evidence, 2 = kds),
///                           value = verdict (0 admit, 1 parked, 2 shed)
///   kCacheHit/kCacheMiss    arg = cache id (1 = vcek, 2 = chain)
///   kVerdict                arg = 1 accepted / 0 rejected
enum class FlightEventType : std::uint8_t {
  kStageEnter = 1,
  kStageExit = 2,
  kPark = 3,
  kWake = 4,
  kRetry = 5,
  kAdmission = 6,
  kCacheHit = 7,
  kCacheMiss = 8,
  kVerdict = 9,
};

const char* to_string(FlightEventType type);

class FlightRecorder {
 public:
  /// One recorded event. 16 bytes, fixed — the ring's whole budget is
  /// capacity * sizeof(Event), no heap beyond the preallocated vector.
  struct Event {
    std::uint64_t t_us = 0;   // engine virtual time (µs)
    std::uint32_t value = 0;  // type-specific (see FlightEventType)
    std::uint16_t arg = 0;    // type-specific (see FlightEventType)
    std::uint8_t type = 0;    // FlightEventType
    std::uint8_t pad = 0;
  };
  static_assert(sizeof(Event) == 16, "flight events must stay compact");

  /// Preallocates the ring; capacity is clamped to >= 1.
  explicit FlightRecorder(std::size_t capacity_events = 32);

  /// Appends one event stamped `t_us` (virtual µs). Single-writer by
  /// contract; overwrites the oldest event when full.
  void record_at(std::uint64_t t_us, FlightEventType type,
                 std::uint16_t arg = 0, std::uint32_t value = 0);

  std::size_t capacity() const { return ring_.size(); }
  /// Total events ever recorded (>= retained when the ring wrapped).
  std::uint64_t recorded() const { return count_; }
  /// Events lost to ring wrap-around.
  std::uint64_t dropped() const {
    return count_ > ring_.size() ? count_ - ring_.size() : 0;
  }
  /// The ring's fixed memory cost, for the engine's byte accounting.
  std::size_t bytes() const { return ring_.size() * sizeof(Event); }

  /// Retained events, oldest first.
  std::vector<Event> events() const;

  /// One JSON object — the anomaly dump: session id, dump reason
  /// ("failed" / "shed" / "p99_tail"), drop count, and the retained
  /// timeline with symbolic event names. Stage/gate/cache ids stay
  /// numeric; the mapping is documented on FlightEventType.
  std::string to_json(std::uint64_t session, const std::string& reason) const;

 private:
  std::vector<Event> ring_;
  std::uint64_t count_ = 0;  // next slot = count_ % ring_.size()
};

/// One session's observation record, bound around each of its stage
/// dispatches. The engine keeps it for the whole run when the recorder is
/// on (a staged attestation holds on to it; see
/// WebExtension::StagedAttestation); otherwise it lives for one dispatch.
struct SessionRecord {
  FlightRecorder* ring = nullptr;  // the session's ring; null = recorder off
  std::uint64_t now_us = 0;        // dispatch instant (engine virtual time)
  std::uint64_t waited_us = 0;     // virtual wait reported this dispatch
};

/// The record bound to this thread, or nullptr.
SessionRecord* session_record();

/// RAII: binds `r` (nullptr unbinds) as this thread's record for the
/// scope's lifetime. Bindings nest; the innermost wins.
class ScopedSessionRecord {
 public:
  explicit ScopedSessionRecord(SessionRecord* r);
  ~ScopedSessionRecord();

  ScopedSessionRecord(const ScopedSessionRecord&) = delete;
  ScopedSessionRecord& operator=(const ScopedSessionRecord&) = delete;

 private:
  SessionRecord* prev_;
};

/// Records into the bound record's ring, stamped with its dispatch
/// instant; a no-op when no record or no ring is bound.
void flight_record(FlightEventType type, std::uint16_t arg = 0,
                   std::uint32_t value = 0);

/// Adds `us` of virtual wait (time the session spent waiting on I/O or a
/// backoff, not computing) to the bound record; a no-op when none is bound.
void note_wait_us(std::uint64_t us);

}  // namespace revelio::obs
