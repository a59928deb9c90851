// Per-session flight recorder: a fixed-budget ring of compact binary
// events.
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
// writes are single-threaded by construction — record() takes no lock and
// issues no atomics. Charge sites reach the recorder through the same
// thread-binding pattern as Tracer/MetricsRegistry: the engine binds the
// session's recorder around a stage dispatch (ScopedFlightRecorder) and
// deep call sites (resilience retries, VCEK and chain cache probes) use
// the free flight_record() helper, which is a no-op costing one
// thread-local load when no recorder is bound.
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
    std::uint64_t t_us = 0;   // virtual clock at record time
    std::uint32_t value = 0;  // type-specific (see FlightEventType)
    std::uint16_t arg = 0;    // type-specific (see FlightEventType)
    std::uint8_t type = 0;    // FlightEventType
    std::uint8_t pad = 0;
  };
  static_assert(sizeof(Event) == 16, "flight events must stay compact");

  /// Preallocates the ring; capacity is clamped to >= 1.
  explicit FlightRecorder(std::size_t capacity_events = 32);

  /// Appends one event stamped with the thread's SimClock (0 if unbound).
  /// Single-writer by contract; overwrites the oldest event when full.
  void record(FlightEventType type, std::uint16_t arg = 0,
              std::uint32_t value = 0);
  /// Same, with an explicit timestamp — for the engine driver, whose
  /// thread does not bind the session's world clock.
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

/// The recorder bound to this thread, or nullptr. Binding follows the
/// Tracer/MetricsRegistry pattern: the engine binds a session's recorder
/// around each stage dispatch.
FlightRecorder* flight_recorder();

/// Binds `r` as this thread's recorder (nullptr unbinds). Returns the
/// previous binding. Prefer ScopedFlightRecorder.
FlightRecorder* set_flight_recorder(FlightRecorder* r);

/// Records into the thread-bound recorder; a no-op (one thread-local
/// load) when none is bound — how deep charge sites (retry backoff, cache
/// probes) stay free outside engine runs.
void flight_record(FlightEventType type, std::uint16_t arg = 0,
                   std::uint32_t value = 0);

class ScopedFlightRecorder {
 public:
  explicit ScopedFlightRecorder(FlightRecorder& r)
      : prev_(set_flight_recorder(&r)) {}
  ~ScopedFlightRecorder() { set_flight_recorder(prev_); }

  ScopedFlightRecorder(const ScopedFlightRecorder&) = delete;
  ScopedFlightRecorder& operator=(const ScopedFlightRecorder&) = delete;

 private:
  FlightRecorder* prev_;
};

}  // namespace revelio::obs
