// Task-queue thread pool: the session engine's lanes.
//
// for_tasks runs task(i) once for every index, each index claimed
// dynamically by the next free lane, so long, *uneven* tasks (whole client
// sessions, a batched verify) do not convoy behind a static split. Outputs
// must be disjoint per index; the claiming order is timing-dependent but
// the result is not.
//
// Bulk hashing (Merkle builds, dm-verity format and verify_all) does not
// run here: the thread that asks for a hash does the hashing, so its CPU
// lands on that thread's own clock.
//
// A width of 1, a single task, or a nested call degrades to a plain inline
// loop, which keeps one-lane runs and ASan/TSan runs cheap.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace revelio::common {

class ThreadPool {
 public:
  /// Spawns `lanes - 1` workers (the caller participates as the last
  /// lane); `lanes <= 1` spawns none.
  explicit ThreadPool(unsigned lanes);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes (workers + the calling thread).
  unsigned width() const { return static_cast<unsigned>(workers_.size()) + 1; }

  /// Runs task(i) once for every i in [0, n), each index claimed
  /// dynamically (chunk size 1) by the next idle lane. Blocks until all
  /// tasks finished. Tasks must not throw and must only write to per-index
  /// state; they may block (condition variables, a shared cache's miss
  /// mutex) as long as the wait is resolved by another *running* task,
  /// never by a task that has not been claimed yet.
  ///
  /// Thread-safety: safe to call from any thread, including from inside a
  /// task already running on this pool. The pool runs one fan-out at a
  /// time; a caller that finds it busy runs its tasks inline, in index
  /// order (same result — outputs are disjoint — just without extra lanes).
  void for_tasks(std::size_t n, const std::function<void(std::size_t)>& task);

 private:
  struct Job {
    const std::function<void(std::size_t)>* task = nullptr;
    std::size_t n = 0;
    std::size_t next = 0;  // next index to claim
    std::size_t done = 0;  // indices completed
    std::uint64_t generation = 0;
  };

  void worker_loop();
  /// Claims and runs indices of the current job until none remain.
  void drain_current_job(std::unique_lock<std::mutex>& lock);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait here for a new job
  std::condition_variable done_cv_;  // the caller waits here for the join
  Job job_;
  bool busy_ = false;  // a fan-out is in flight (owner still joining)
  bool shutdown_ = false;
};

/// Lane id of the calling thread: pool workers carry a process-globally
/// unique 1-based id assigned at spawn; every non-pool thread (including
/// the caller participating in a fan-out) reports 0. obs::Span uses this
/// to stay inactive on pool workers (obs/trace.hpp).
unsigned current_lane();

}  // namespace revelio::common
