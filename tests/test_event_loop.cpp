// Deterministic virtual-time event loop (common/event_loop.hpp) and the
// virtual-wait accounting stages report into the session record
// (obs/flight_recorder.hpp): the substrate of the staged engine.
//
// Runs tier-1 and under `ctest -L eventloop` / `-L tsan`. The EventLoop
// is single-threaded by contract; the threaded engine above it is
// exercised in test_session_engine.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/event_loop.hpp"
#include "obs/flight_recorder.hpp"

namespace revelio {
namespace {

using common::EventLoop;

// ---------------------------------------------------------------------------
// EventLoop ordering

TEST(EventLoop, DispatchesInDueThenTrackThenSeqOrder) {
  EventLoop loop;
  loop.schedule_at(200, /*track=*/1, /*payload=*/10);
  loop.schedule_at(100, 5, 20);
  loop.schedule_at(100, 2, 30);
  loop.schedule_at(100, 2, 40);  // same (due, track): seq breaks the tie

  std::vector<EventLoop::Event> batch;
  loop.next_batch(batch);
  ASSERT_EQ(batch.size(), 3u) << "everything due at t=100, nothing later";
  EXPECT_EQ(loop.now_us(), 100u);
  EXPECT_EQ(batch[0].payload, 30u);  // track 2 before track 5
  EXPECT_EQ(batch[1].payload, 40u);  // same track: scheduling order
  EXPECT_EQ(batch[2].payload, 20u);

  loop.next_batch(batch);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].payload, 10u);
  EXPECT_EQ(loop.now_us(), 200u);
  EXPECT_TRUE(loop.empty());
  loop.next_batch(batch);
  EXPECT_TRUE(batch.empty());
}

TEST(EventLoop, SchedulingInThePastClampsToNow) {
  EventLoop loop;
  std::vector<EventLoop::Event> batch;
  loop.schedule_at(500, 0, 1);
  loop.next_batch(batch);
  ASSERT_EQ(loop.now_us(), 500u);

  loop.schedule_at(100, 0, 2);  // the past is not addressable
  loop.next_batch(batch);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].due_us, 500u);
  EXPECT_EQ(loop.now_us(), 500u) << "clock never moves backwards";
}

TEST(EventLoop, ScheduleAfterIsRelativeToTheCurrentBatchInstant) {
  EventLoop loop;
  std::vector<EventLoop::Event> batch;
  loop.schedule_at(250, 0, 1);
  loop.next_batch(batch);
  loop.schedule_after(50, 0, 2);
  loop.next_batch(batch);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(loop.now_us(), 300u);
}

/// Drains `loop` one batch at a time, calling `fn(event, now_us)` for each
/// event in order; handlers may schedule further events.
template <typename Fn>
void drain(EventLoop& loop, Fn&& fn) {
  std::vector<EventLoop::Event> batch;
  for (loop.next_batch(batch); !batch.empty(); loop.next_batch(batch)) {
    for (const EventLoop::Event& e : batch) fn(e, loop.now_us());
  }
}

TEST(EventLoop, DrainingHandlersThatRescheduleRunsTheChain) {
  EventLoop loop;
  loop.schedule_at(10, 0, 0);
  std::vector<std::uint64_t> instants;
  drain(loop, [&](const EventLoop::Event& e, EventLoop::Micros now) {
    instants.push_back(now);
    if (e.payload < 4) {
      loop.schedule_after(10, 0, e.payload + 1);  // a 5-link wake chain
    }
  });
  ASSERT_EQ(instants.size(), 5u);
  EXPECT_EQ(instants.front(), 10u);
  EXPECT_EQ(instants.back(), 50u);
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoop, StatsTrackPeaksAndHeapBytes) {
  EventLoop loop;
  for (std::uint64_t i = 0; i < 100; ++i) loop.schedule_at(i, 0, i);
  EXPECT_EQ(loop.stats().peak_pending, 100u);
  EXPECT_EQ(sizeof(EventLoop::Event), 32u);
  EXPECT_EQ(loop.peak_heap_bytes(), 100 * sizeof(EventLoop::Event));

  std::size_t dispatched = 0;
  drain(loop, [&](const EventLoop::Event&, EventLoop::Micros) {
    ++dispatched;
  });
  EXPECT_EQ(dispatched, 100u);
  EXPECT_EQ(loop.stats().dispatched, 100u);
  EXPECT_EQ(loop.stats().batches, 100u);
  EXPECT_EQ(loop.stats().max_batch, 1u);
  EXPECT_EQ(loop.stats().peak_pending, 100u) << "peak survives the drain";
}

TEST(EventLoop, IdenticalSchedulesProduceIdenticalTranscripts) {
  // The engine's determinism reduces to this: replaying the same schedule
  // (including mid-drain rescheduling) yields the same dispatch sequence.
  const auto transcript = [] {
    EventLoop loop;
    for (std::uint64_t i = 0; i < 64; ++i) {
      loop.schedule_at((i * 37) % 11, i % 4, i);
    }
    std::vector<std::uint64_t> out;
    drain(loop, [&](const EventLoop::Event& e, EventLoop::Micros now) {
      out.push_back(now);
      out.push_back(e.payload);
      if (e.payload % 3 == 0) loop.schedule_after(5, e.track, 1000 + e.payload);
    });
    return out;
  };
  EXPECT_EQ(transcript(), transcript());
}

// ---------------------------------------------------------------------------
// Virtual-wait observation

TEST(VirtualWait, NoScopeBoundIsANoOp) {
  obs::note_wait_us(123);  // must not crash or leak anywhere
}

TEST(VirtualWait, ScopeCollectsReportedWaits) {
  obs::SessionRecord record;
  obs::ScopedSessionRecord bind(&record);
  obs::note_wait_us(1500);
  obs::note_wait_us(2500);
  EXPECT_EQ(record.waited_us, 4000u);
}

TEST(VirtualWait, NestedScopesInnermostWins) {
  obs::SessionRecord outer;
  obs::ScopedSessionRecord bind_outer(&outer);
  {
    obs::SessionRecord inner;
    obs::ScopedSessionRecord bind_inner(&inner);
    obs::note_wait_us(100);
    EXPECT_EQ(inner.waited_us, 100u);
  }
  obs::note_wait_us(7);
  EXPECT_EQ(outer.waited_us, 7u)
      << "inner waits are charged to the inner record only";
}

}  // namespace
}  // namespace revelio
