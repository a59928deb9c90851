// Deterministic virtual-time event loop.
//
// The concurrent gateway (revelio/session_engine.hpp) used to carry one
// OS thread per in-flight session: a session waiting on a simulated KDS
// round trip *blocked its pool lane* for the whole virtual wait, so
// throughput topped out near the pool width and memory grew with thread
// stacks. This loop inverts that: a wait is a *scheduled wake event* — a
// 32-byte heap entry — and the thread moves on to whichever session is
// ready. One worker can carry tens of thousands of parked sessions.
//
// Determinism is the design constraint, same as parallel.hpp and
// net::FaultPlan: a run must be bit-identical given the same inputs.
//
//  - Total order: every event carries (due_us, track, seq). `track` is a
//    caller-chosen stream id (the session engine uses the world index);
//    `seq` is a per-loop counter. Batches pop in exactly this order.
//  - Batch-synchronous dispatch: next_batch() returns EVERY event due at
//    the earliest pending instant and advances now_us() to it. The caller
//    dispatches the batch (possibly in parallel across tracks — tracks
//    are independent by contract), then schedules follow-up events from
//    ONE thread before popping the next batch. Scheduling from a single
//    thread is what keeps seq assignment — and therefore the order of
//    same-instant events — reproducible.
//  - No wall clock, no randomness: virtual time only advances to event
//    due times, so the same schedule replays bit-for-bit.
//
// Memory is O(pending events) with no per-event allocation beyond the
// heap slot: payloads are plain 64-bit values (a session index), not
// closures, which is what keeps bytes-per-parked-session flat at 100k
// sessions (the gateway bench reports the exact figure).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace revelio::common {

class EventLoop {
 public:
  using Micros = std::uint64_t;

  /// One scheduled wake. Plain data — cheap to copy, trivially parkable.
  struct Event {
    Micros due_us = 0;      // virtual instant the wake fires
    std::size_t track = 0;  // independence class (see class comment)
    std::uint64_t seq = 0;  // per-loop tiebreak within an instant
    std::uint64_t payload = 0;  // caller data (e.g. a session index)
  };

  EventLoop() = default;

  /// Schedules a wake at absolute virtual time `due_us` (clamped to now —
  /// the past is not addressable).
  void schedule_at(Micros due_us, std::size_t track, std::uint64_t payload);
  /// Schedules a wake `delay_us` after now_us().
  void schedule_after(Micros delay_us, std::size_t track,
                      std::uint64_t payload);

  /// Virtual time of the most recent batch (0 before the first).
  Micros now_us() const { return now_us_; }
  /// Events scheduled and not yet popped — the loop's parked population.
  std::size_t pending() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

  /// Replaces `out` with every event due at the earliest pending instant,
  /// in (track, seq) order, advancing now_us() to that instant; leaves it
  /// empty when nothing is pending. `out` is reused storage for
  /// allocation-free steady state.
  void next_batch(std::vector<Event>& out);

  struct Stats {
    std::uint64_t scheduled = 0;   // schedule_* calls accepted
    std::uint64_t dispatched = 0;  // events returned by next_batch
    std::uint64_t batches = 0;
    std::size_t max_batch = 0;     // largest single batch
    std::size_t peak_pending = 0;  // high-water parked population
    Micros end_us = 0;             // due time of the last popped batch
  };
  const Stats& stats() const { return stats_; }

  /// High-water heap footprint in bytes: peak simultaneously-pending
  /// events times the heap slot size.
  std::size_t peak_heap_bytes() const {
    return stats_.peak_pending * sizeof(Event);
  }

 private:
  /// Min-heap on (due_us, track, seq) over heap_ (std::push_heap /
  /// std::pop_heap with a reversed comparator).
  static bool later(const Event& a, const Event& b);

  std::vector<Event> heap_;
  Micros now_us_ = 0;
  std::uint64_t next_seq_ = 0;
  Stats stats_;
};

}  // namespace revelio::common
