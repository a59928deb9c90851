#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "common/parallel.hpp"

namespace revelio::common {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnceAtAnyWidth) {
  for (const unsigned lanes : {1u, 2u, 4u, 9u}) {
    ThreadPool pool(lanes);
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                std::size_t{64}, std::size_t{1000}}) {
      std::vector<std::atomic<int>> hits(n);
      pool.for_tasks(n, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1)
            << "lanes=" << lanes << " n=" << n << " index " << i;
      }
    }
  }
}

TEST(ThreadPool, WidthCountsCallerAsALane) {
  ThreadPool one(1);
  EXPECT_EQ(one.width(), 1u);
  ThreadPool three(3);
  EXPECT_EQ(three.width(), 3u);
}

TEST(ThreadPool, ReusableAcrossManyRuns) {
  // Regression guard for generation handling: back-to-back runs on one
  // pool must not leak indices between runs or deadlock the join.
  ThreadPool pool(3);
  std::atomic<std::uint64_t> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.for_tasks(100, [&](std::size_t i) {
      total.fetch_add(i + 1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 200u * (100u * 101u / 2));
}

TEST(ThreadPool, TaskMayBlockOnAMutexHeldByAnotherRunningTask) {
  // Two lanes, two tasks: each lane holds one task at a time, so both are
  // running at once. Task 0 takes the mutex and keeps it until task 1 is
  // about to lock it; task 1 then blocks until task 0 lets go.
  ThreadPool pool(2);
  std::mutex held;
  std::mutex mu;
  std::condition_variable cv;
  bool taken = false;
  bool waiting = false;
  bool timed_out = false;
  std::vector<int> order;
  pool.for_tasks(2, [&](std::size_t i) {
    if (i == 0) {
      std::lock_guard<std::mutex> hold(held);
      std::unique_lock<std::mutex> lock(mu);
      taken = true;
      cv.notify_all();
      if (!cv.wait_for(lock, std::chrono::seconds(10),
                       [&] { return waiting; })) {
        timed_out = true;
      }
      order.push_back(0);
    } else {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (!cv.wait_for(lock, std::chrono::seconds(10),
                         [&] { return taken; })) {
          timed_out = true;
        }
        waiting = true;
        cv.notify_all();
      }
      std::lock_guard<std::mutex> hold(held);
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(1);
    }
  });
  EXPECT_FALSE(timed_out) << "the two tasks never ran at the same time";
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(ThreadPool, NestedCallRunsInlineInIndexOrder) {
  ThreadPool pool(4);
  std::vector<std::vector<std::size_t>> inner_order(4);
  // Not vector<bool>: its packed bits would make per-index writes race.
  std::vector<char> same_thread(4, 1);
  pool.for_tasks(4, [&](std::size_t outer) {
    const auto self = std::this_thread::get_id();
    pool.for_tasks(16, [&](std::size_t inner) {
      if (std::this_thread::get_id() != self) same_thread[outer] = 0;
      inner_order[outer].push_back(inner);
    });
  });
  std::vector<std::size_t> expect(16);
  for (std::size_t i = 0; i < expect.size(); ++i) expect[i] = i;
  for (std::size_t outer = 0; outer < 4; ++outer) {
    EXPECT_TRUE(same_thread[outer]) << "outer task " << outer;
    EXPECT_EQ(inner_order[outer], expect) << "outer task " << outer;
  }
}

}  // namespace
}  // namespace revelio::common
