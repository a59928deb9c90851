#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>

namespace revelio::common {

namespace {
// Pool workers get globally-unique 1-based lane ids at spawn; 0 is every
// other thread.
std::atomic<unsigned> next_lane_id{1};
thread_local unsigned this_lane = 0;
}  // namespace

unsigned current_lane() { return this_lane; }

unsigned ThreadPool::default_thread_count() {
  if (const char* env = std::getenv("REVELIO_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1 && v <= 256) return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = default_thread_count();
  workers_.reserve(threads - 1);
  for (unsigned i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::drain_current_job(std::unique_lock<std::mutex>& lock) {
  const std::uint64_t generation = job_.generation;
  while (job_.generation == generation && job_.next < job_.chunk_count) {
    const std::size_t c = job_.next++;
    const std::size_t begin = c * job_.chunk;
    const std::size_t end = std::min(begin + job_.chunk, job_.n);
    const auto* body = job_.body;
    lock.unlock();
    (*body)(begin, end);
    lock.lock();
    if (job_.generation == generation && ++job_.done == job_.chunk_count) {
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::worker_loop() {
  this_lane = next_lane_id.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] {
      return shutdown_ || (job_.body != nullptr && job_.next < job_.chunk_count);
    });
    if (shutdown_) return;
    drain_current_job(lock);
  }
}

void ThreadPool::run_job(
    std::size_t n, std::size_t chunk, std::size_t chunk_count,
    const std::function<void(std::size_t, std::size_t)>& body) {
  std::unique_lock<std::mutex> lock(mu_);
  if (busy_) {
    // A fan-out is already in flight (a concurrent caller, or a body on
    // this very pool fanning out again). Fall back to the sequential loop:
    // outputs are disjoint per range, so the result is identical.
    lock.unlock();
    body(0, n);
    return;
  }
  busy_ = true;
  job_.body = &body;
  job_.n = n;
  job_.chunk = chunk;
  job_.chunk_count = chunk_count;
  job_.next = 0;
  job_.done = 0;
  ++job_.generation;
  work_cv_.notify_all();
  // The caller is a lane too: claim chunks until none remain, then wait for
  // stragglers still running on workers.
  drain_current_job(lock);
  done_cv_.wait(lock, [this] { return job_.done == job_.chunk_count; });
  job_.body = nullptr;
  busy_ = false;
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t min_grain) {
  if (n == 0) return;
  if (min_grain == 0) min_grain = 1;
  const std::size_t lanes = width();
  // Inline when there is nothing to fan out to, or the work is too small to
  // be worth a wake-up. The cutover depends only on n / min_grain / width,
  // never on timing, so the chunk layout is reproducible.
  if (lanes == 1 || n < 2 * min_grain) {
    body(0, n);
    return;
  }
  const std::size_t max_chunks = std::min<std::size_t>(lanes, n / min_grain);
  const std::size_t chunk = (n + max_chunks - 1) / max_chunks;
  const std::size_t chunk_count = (n + chunk - 1) / chunk;
  run_job(n, chunk, chunk_count, body);
}

void ThreadPool::for_tasks(std::size_t n,
                           const std::function<void(std::size_t)>& task) {
  if (n == 0) return;
  const std::function<void(std::size_t, std::size_t)> body =
      [&task](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) task(i);
      };
  if (width() == 1 || n == 1) {
    body(0, n);
    return;
  }
  // Chunk size 1: every index is its own unit of claim, so a slow task
  // never holds indices hostage behind a static chunk boundary.
  run_job(n, /*chunk=*/1, /*chunk_count=*/n, body);
}

}  // namespace revelio::common
