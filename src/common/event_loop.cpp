#include "common/event_loop.hpp"

#include <algorithm>

namespace revelio::common {

bool EventLoop::later(const Event& a, const Event& b) {
  if (a.due_us != b.due_us) return a.due_us > b.due_us;
  if (a.track != b.track) return a.track > b.track;
  return a.seq > b.seq;
}

void EventLoop::schedule_at(Micros due_us, std::size_t track,
                            std::uint64_t payload) {
  heap_.push_back(
      Event{std::max(due_us, now_us_), track, next_seq_++, payload});
  std::push_heap(heap_.begin(), heap_.end(), later);
  ++stats_.scheduled;
  stats_.peak_pending = std::max(stats_.peak_pending, heap_.size());
}

void EventLoop::schedule_after(Micros delay_us, std::size_t track,
                               std::uint64_t payload) {
  schedule_at(now_us_ + delay_us, track, payload);
}

void EventLoop::next_batch(std::vector<Event>& out) {
  out.clear();
  if (heap_.empty()) return;

  const Micros due = heap_.front().due_us;
  now_us_ = due;
  while (!heap_.empty() && heap_.front().due_us == due) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    out.push_back(heap_.back());
    heap_.pop_back();
  }
  stats_.dispatched += out.size();
  ++stats_.batches;
  stats_.max_batch = std::max(stats_.max_batch, out.size());
  stats_.end_us = due;
}

}  // namespace revelio::common
