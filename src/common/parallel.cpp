#include "common/parallel.hpp"

#include <atomic>

namespace revelio::common {

namespace {
// Pool workers get globally-unique 1-based lane ids at spawn; 0 is every
// other thread.
std::atomic<unsigned> next_lane_id{1};
thread_local unsigned this_lane = 0;
}  // namespace

unsigned current_lane() { return this_lane; }

ThreadPool::ThreadPool(unsigned lanes) {
  if (lanes > 1) workers_.reserve(lanes - 1);
  for (unsigned i = 1; i < lanes; ++i) {
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
  while (job_.generation == generation && job_.next < job_.n) {
    const std::size_t i = job_.next++;
    const auto* task = job_.task;
    lock.unlock();
    (*task)(i);
    lock.lock();
    if (job_.generation == generation && ++job_.done == job_.n) {
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::worker_loop() {
  this_lane = next_lane_id.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] {
      return shutdown_ || (job_.task != nullptr && job_.next < job_.n);
    });
    if (shutdown_) return;
    drain_current_job(lock);
  }
}

void ThreadPool::for_tasks(std::size_t n,
                           const std::function<void(std::size_t)>& task) {
  if (n == 0) return;
  std::unique_lock<std::mutex> lock(mu_);
  if (width() == 1 || n == 1 || busy_) {
    // Nothing to fan out to, or a fan-out is already in flight (a
    // concurrent caller, or a task on this very pool fanning out again):
    // run the loop inline. Outputs are disjoint per index, so the result
    // is identical.
    lock.unlock();
    for (std::size_t i = 0; i < n; ++i) task(i);
    return;
  }
  busy_ = true;
  job_.task = &task;
  job_.n = n;
  job_.next = 0;
  job_.done = 0;
  ++job_.generation;
  work_cv_.notify_all();
  // The caller is a lane too: claim indices until none remain, then wait
  // for stragglers still running on workers.
  drain_current_job(lock);
  done_cv_.wait(lock, [this] { return job_.done == job_.n; });
  job_.task = nullptr;
  busy_ = false;
}

}  // namespace revelio::common
