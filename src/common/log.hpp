// Minimal leveled logger with a pluggable sink. Examples turn it up; tests
// and benches keep it quiet. Not thread-safe beyond what stdio gives — the
// simulation is single-threaded by design (deterministic replay).
//
// The sink indirection exists for two consumers: tests capture log lines
// through a LogBuffer instead of scraping stderr, and the tracing layer
// (obs::Tracer::set_log_spans) emits span begin/end debug lines that
// interleave with ordinary logs, correlating the two streams via span ids.
#pragma once

#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace revelio {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

void set_log_level(LogLevel level);
LogLevel log_level();

/// Fixed-width upper-case level tag ("DEBUG", "INFO ", ...).
const char* log_level_name(LogLevel level);

/// Receives every record that passes the level filter.
using LogSink =
    std::function<void(LogLevel level, const std::string& component,
                       const std::string& message)>;

/// Replaces the output sink; an empty sink restores the default
/// (one "[LEVEL] component message" line to stderr per record).
void set_log_sink(LogSink sink);

void log(LogLevel level, const std::string& component,
         const std::string& message);

inline void log_debug(const std::string& c, const std::string& m) {
  log(LogLevel::kDebug, c, m);
}
inline void log_info(const std::string& c, const std::string& m) {
  log(LogLevel::kInfo, c, m);
}
inline void log_warn(const std::string& c, const std::string& m) {
  log(LogLevel::kWarn, c, m);
}
inline void log_error(const std::string& c, const std::string& m) {
  log(LogLevel::kError, c, m);
}

/// Bounded ring of rendered log lines, installable as the sink. Tests do:
///
///   LogBuffer capture;
///   capture.install();        // sink now appends to the ring
///   ... exercise code ...
///   EXPECT_TRUE(capture.contains("span#1 begin"));
///
/// The destructor uninstalls automatically if still installed.
class LogBuffer {
 public:
  explicit LogBuffer(std::size_t capacity = 256) : capacity_(capacity) {}
  ~LogBuffer() { uninstall(); }

  LogBuffer(const LogBuffer&) = delete;
  LogBuffer& operator=(const LogBuffer&) = delete;

  void install();
  /// Restores the default stderr sink (only if this buffer is installed).
  void uninstall();

  std::vector<std::string> lines() const {
    return {lines_.begin(), lines_.end()};
  }
  bool contains(std::string_view needle) const;

 private:
  std::size_t capacity_;
  std::deque<std::string> lines_;
  bool installed_ = false;
};

}  // namespace revelio
