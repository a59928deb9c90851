// Fork-join thread pool with a deterministic parallel_for and a task-queue
// mode for independent long-running tasks (the attestation gateway's
// concurrent sessions).
//
// The bulk-data paths (Merkle builds, dm-verity verify_all, format-time leaf
// hashing) are embarrassingly parallel: every output slot depends only on its
// own input range. parallel_for exploits that while keeping the repo's
// determinism guarantee intact:
//
//  - Static chunking: the split of [0, n) into chunks depends only on `n`,
//    the grain size and the pool width — never on timing.
//  - Disjoint outputs: the body writes only to slots inside its [begin, end)
//    range, so the result is byte-identical to running the chunks
//    sequentially in any order (the tier-2 equivalence suite asserts this).
//  - No shared mutable state beyond what the callee makes thread-safe:
//    MetricsRegistry counters are atomic and safe; the tracer and SimClock
//    are per-thread (see obs/trace.hpp, common/sim_clock.hpp), so a worker
//    that has not bound them sees a disabled tracer and a null clock.
//
// for_tasks is the task-queue mode: each index is claimed dynamically by the
// next free lane, so long, *uneven* tasks (whole client sessions) do not
// convoy behind static chunk boundaries. Outputs must still be disjoint per
// index; the claiming order is timing-dependent but the result is not.
//
// Pool width comes from REVELIO_THREADS if set, else hardware_concurrency.
// A width of 1 (or small n) degrades to a plain inline loop, which keeps
// single-core containers and ASan/TSan runs cheap.
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
  /// Spawns `threads - 1` workers (the caller participates as the last
  /// lane). `threads == 0` means default_thread_count().
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes (workers + the calling thread).
  unsigned width() const { return static_cast<unsigned>(workers_.size()) + 1; }

  /// Runs body(begin, end) over a static partition of [0, n). Blocks until
  /// every chunk finished. The body must not throw and must only write to
  /// output slots inside its own range. `min_grain` is the smallest chunk
  /// worth shipping to a worker; below `2 * min_grain` total the loop runs
  /// inline on the caller.
  ///
  /// Thread-safety: safe to call from any thread, including from inside a
  /// body already running on this pool. The pool runs one fan-out at a
  /// time; a caller that finds the pool busy runs its loop inline (same
  /// result — outputs are disjoint — just without extra lanes).
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& body,
                    std::size_t min_grain = 1);

  /// Task-queue mode: runs task(i) once for every i in [0, n), each index
  /// claimed dynamically (chunk size 1) by the next idle lane. Blocks until
  /// all tasks finished. Use for independent, potentially long and uneven
  /// tasks — e.g. one full client session per index. Tasks must not throw
  /// and must only write to per-index state; they may block (condition
  /// variables, a shared cache's miss mutex) as long as the wait is
  /// resolved by another *running* task, never by a task that has not been
  /// claimed yet.
  ///
  /// Thread-safety: same policy as parallel_for — concurrent or nested
  /// callers degrade to an inline loop.
  void for_tasks(std::size_t n, const std::function<void(std::size_t)>& task);

  /// REVELIO_THREADS env override, else std::thread::hardware_concurrency().
  static unsigned default_thread_count();

  /// Lazily-created process-wide pool used by the crypto/storage bulk paths.
  /// Never run whole sessions on it — give long-lived task sets their own
  /// pool so bulk ops inside a session still find this one (mostly) free.
  static ThreadPool& global();

 private:
  struct Job {
    const std::function<void(std::size_t, std::size_t)>* body = nullptr;
    std::size_t n = 0;
    std::size_t chunk = 0;        // chunk size (last chunk may be short)
    std::size_t chunk_count = 0;
    std::size_t next = 0;         // next chunk index to claim
    std::size_t done = 0;         // chunks completed
    std::uint64_t generation = 0;
  };

  void worker_loop();
  /// Claims and runs chunks of the current job until none remain.
  void drain_current_job(std::unique_lock<std::mutex>& lock);
  /// Publishes one job (pre-chunked) and joins it; inline fallback when a
  /// job is already in flight.
  void run_job(std::size_t n, std::size_t chunk, std::size_t chunk_count,
               const std::function<void(std::size_t, std::size_t)>& body);

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

/// Convenience wrapper over ThreadPool::global().
inline void parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t min_grain = 1) {
  ThreadPool::global().parallel_for(n, body, min_grain);
}

}  // namespace revelio::common
