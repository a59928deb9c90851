#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>

#include "common/parallel.hpp"
#include "common/sim_clock.hpp"
#include "obs/json.hpp"

namespace revelio::obs {

namespace {

std::uint64_t virt_now_us() {
  const SimClock* clock = SimClock::current();
  return clock == nullptr ? 0 : clock->now_us();
}

}  // namespace

std::string SpanRecord::attr(const std::string& key) const {
  for (const auto& [k, v] : attrs) {
    if (k == key) return v;
  }
  return {};
}

std::uint64_t Tracer::real_now_ns() const {
  if (real_clock_) return real_clock_();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Tracer::set_real_clock(std::function<std::uint64_t()> now_ns) {
  real_clock_ = std::move(now_ns);
}

void Tracer::clear() {
  finished_.clear();
  dropped_ = 0;
  next_id_ = open_.empty() ? 1 : next_id_;
}

std::uint64_t Tracer::begin_span(std::string name) {
  SpanRecord record;
  record.id = next_id_++;
  record.parent_id = open_.empty() ? 0 : open_.back().id;
  record.name = std::move(name);
  record.virt_start_us = virt_now_us();
  record.real_start_ns = real_now_ns();
  open_.push_back(std::move(record));
  return open_.back().id;
}

void Tracer::annotate(std::uint64_t id, std::string key, std::string value) {
  for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
    if (it->id == id) {
      it->attrs.emplace_back(std::move(key), std::move(value));
      return;
    }
  }
}

void Tracer::end_span(std::uint64_t id) {
  // Usually the top of the stack; search from the back to stay correct if
  // a caller ends an outer span while an inner one is still open.
  for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
    if (it->id != id) continue;
    SpanRecord record = std::move(*it);
    open_.erase(std::next(it).base());
    record.virt_end_us = virt_now_us();
    record.real_end_ns = real_now_ns();
    finished_.push_back(std::move(record));
    if (finished_.size() > kMaxFinishedSpans) {
      finished_.pop_front();
      ++dropped_;
    }
    return;
  }
}

std::string Tracer::chrome_trace_json() const {
  // Rebase real timestamps so the trace starts near zero.
  std::uint64_t real_base = UINT64_MAX;
  for (const auto& span : finished_) {
    real_base = std::min(real_base, span.real_start_ns);
  }
  if (real_base == UINT64_MAX) real_base = 0;

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  out +=
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"virtual clock (sim)\"}},";
  out +=
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,"
      "\"args\":{\"name\":\"real clock (wall)\"}}";
  for (const auto& span : finished_) {
    std::string args = "{\"span_id\":" + std::to_string(span.id) +
                       ",\"parent_id\":" + std::to_string(span.parent_id);
    for (const auto& [key, value] : span.attrs) {
      args += ",\"" + json_escape(key) + "\":\"" + json_escape(value) + "\"";
    }
    args += "}";
    out += ",{\"name\":\"" + json_escape(span.name) +
           "\",\"cat\":\"virt\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" +
           std::to_string(span.virt_start_us) +
           ",\"dur\":" + std::to_string(span.virt_us()) + ",\"args\":" + args +
           "}";
    out += ",{\"name\":\"" + json_escape(span.name) +
           "\",\"cat\":\"real\",\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":" +
           json_number(
               static_cast<double>(span.real_start_ns - real_base) / 1000.0) +
           ",\"dur\":" + json_number(span.real_us()) + ",\"args\":" + args +
           "}";
  }
  out += "]}";
  return out;
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

Span::Span(std::string name) {
  // Pool workers never touch the single-threaded process tracer.
  if (common::current_lane() != 0) return;
  Tracer& t = tracer();
  if (!t.enabled()) return;
  id_ = t.begin_span(std::move(name));
}

void Span::attr(const std::string& key, std::string value) {
  if (id_ != 0) tracer().annotate(id_, key, std::move(value));
}
void Span::attr(const std::string& key, const char* value) {
  attr(key, std::string(value));
}
void Span::attr(const std::string& key, std::uint64_t value) {
  attr(key, std::to_string(value));
}
void Span::attr(const std::string& key, bool value) {
  attr(key, std::string(value ? "true" : "false"));
}

void Span::end() {
  if (id_ == 0) return;
  tracer().end_span(id_);
  id_ = 0;
}

}  // namespace revelio::obs
