// Hierarchical tracing against both clocks.
//
// A Span is an RAII timed region charged against *two* clocks at once: the
// simulation's virtual clock (SimClock::current() — network latency and
// calibrated device models) and the real monotonic clock (wall time of
// the actual work: hashing, AES, ECDSA). The one process-wide Tracer
// (tracer()) keeps the active-span stack — re-entrant but deliberately
// single-threaded, so it belongs to the threads that are not thread-pool
// workers. A Span begun on a pool-worker lane (common::current_lane() !=
// 0, see common/parallel.hpp) is inactive: the session engine's fanned-out
// stages open spans only on the calling lane and report their work
// through the thread-safe metrics registry (metrics.hpp) instead. A
// 1-worker session engine runs every stage on the calling lane, so its
// sessions trace whole. Per-session timelines at gateway scale come from
// the flight recorder (flight_recorder.hpp). The Tracer also keeps a
// bounded ring of finished spans (kMaxFinishedSpans).
//
// Export: chrome_trace_json() (Chrome trace_event format — open the file
// in chrome://tracing or ui.perfetto.dev; the two clocks appear as two
// timeline rows of the same process).
//
// Tracing is OFF by default: a Span constructed while the tracer is
// disabled does nothing and costs two branches. Metrics (metrics.hpp)
// stay on unconditionally.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace revelio::obs {

struct SpanRecord {
  std::uint64_t id = 0;         // 1-based, unique within a tracer epoch
  std::uint64_t parent_id = 0;  // 0 = root span
  std::string name;
  std::vector<std::pair<std::string, std::string>> attrs;
  std::uint64_t virt_start_us = 0;  // SimClock at begin/end (0 if no clock)
  std::uint64_t virt_end_us = 0;
  std::uint64_t real_start_ns = 0;  // monotonic clock at begin/end
  std::uint64_t real_end_ns = 0;

  std::uint64_t virt_us() const { return virt_end_us - virt_start_us; }
  double real_us() const {
    return static_cast<double>(real_end_ns - real_start_ns) / 1000.0;
  }
  /// First value of attribute `key`, or "" if absent.
  std::string attr(const std::string& key) const;
};

class Span;

class Tracer {
 public:
  /// Bounded history: beyond this many finished spans the oldest are
  /// dropped (counted in dropped_spans()).
  static constexpr std::size_t kMaxFinishedSpans = 100000;

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Test hook: replaces the real monotonic clock so exports are
  /// deterministic. Pass nullptr to restore std::chrono::steady_clock.
  void set_real_clock(std::function<std::uint64_t()> now_ns);

  /// Drops finished spans and the dropped counter; keeps enablement and
  /// does not touch spans still open.
  void clear();

  const std::deque<SpanRecord>& finished_spans() const { return finished_; }
  std::uint64_t dropped_spans() const { return dropped_; }
  std::size_t open_spans() const { return open_.size(); }

  /// Chrome trace_event dump: one complete ("ph":"X") event per span per
  /// clock, tid 1 = virtual clock, tid 2 = real (wall) clock. Real
  /// timestamps are rebased to the earliest span so the trace starts near
  /// t=0.
  std::string chrome_trace_json() const;

 private:
  friend class Span;

  std::uint64_t begin_span(std::string name);
  void annotate(std::uint64_t id, std::string key, std::string value);
  void end_span(std::uint64_t id);
  std::uint64_t real_now_ns() const;

  bool enabled_ = false;
  std::uint64_t next_id_ = 1;
  std::uint64_t dropped_ = 0;
  std::function<std::uint64_t()> real_clock_;  // empty = steady_clock
  std::vector<SpanRecord> open_;               // active-span stack
  std::deque<SpanRecord> finished_;
};

/// The process-wide tracer.
Tracer& tracer();

/// RAII span handle. Construct to open, destroy (or end()) to close.
/// Inactive (zero-cost) when the tracer is disabled at construction time
/// or the constructing thread is a pool worker.
class Span {
 public:
  explicit Span(std::string name);
  ~Span() { end(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void attr(const std::string& key, std::string value);
  void attr(const std::string& key, const char* value);
  void attr(const std::string& key, std::uint64_t value);
  void attr(const std::string& key, bool value);

  /// Closes the span early; idempotent, the destructor becomes a no-op.
  void end();

  /// 0 when inactive.
  std::uint64_t id() const { return id_; }

 private:
  std::uint64_t id_ = 0;
};

}  // namespace revelio::obs
