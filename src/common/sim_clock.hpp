// Simulated wall clock.
//
// The paper's client-side numbers (Table 3) are dominated by network round
// trips we cannot reproduce on one machine, so the network fabric charges
// latency against a virtual clock. Components that do real computational
// work (hashing, AES, ECDSA) additionally take real time, which the
// benchmarks measure directly.
//
// Virtual time has one unit: integer microseconds (SimClock::Micros), from
// the clock through the session engine to the transcript digest. A
// duration written in milliseconds (a config field, a paper latency) is
// converted once, by SimClock::from_ms, where it is stored or first used.
#pragma once

#include <cstdint>
#include <string>

namespace revelio {

/// Microsecond-resolution virtual time.
///
/// Thread-safety: a SimClock instance is NOT thread-safe — it belongs to
/// one simulated world, and a world is driven by one thread at a time.
/// The current() registry is per-thread, so concurrent session worlds on
/// different gateway workers never observe each other's clocks. A clock
/// must be constructed and destroyed on the same thread; to drive a world
/// built on another thread, bind its clock with ScopedClockCurrent for the
/// duration of the work.
class SimClock {
 public:
  using Micros = std::uint64_t;

  SimClock();
  SimClock(const SimClock& other);
  SimClock& operator=(const SimClock&) = default;
  ~SimClock();

  /// The most recently registered clock on *this thread*, or nullptr. Each
  /// simulated world builds exactly one clock, so "latest wins" names it
  /// deterministically; the tracing layer (src/obs) reads virtual
  /// timestamps through this without threading a clock reference through
  /// every instrumented call site. Destroying a copy re-registers the
  /// previously registered clock, so a short-lived copy never leaves
  /// current() null (or dangling) while the original is still alive.
  static const SimClock* current();

  Micros now_us() const { return now_us_; }

  /// Advances virtual time; used by the network fabric and device models to
  /// charge latency for operations whose real cost is not reproducible here.
  void advance_us(Micros us) { now_us_ += us; }

  /// The one ms -> µs conversion: durations written in milliseconds
  /// (config fields, the paper's latencies) become Micros here, once,
  /// rounded to the nearest µs; zero and negative durations map to 0.
  static Micros from_ms(double ms) {
    return ms <= 0.0 ? 0 : static_cast<Micros>(ms * 1000.0 + 0.5);
  }

  void reset() { now_us_ = 0; }

  /// RFC3339-ish rendering for logs and certificate validity fields.
  std::string to_string() const;

 private:
  friend class ScopedClockCurrent;
  /// Raw per-thread registry hooks used by construction/destruction and by
  /// ScopedClockCurrent.
  static void register_on_this_thread(const SimClock* clock);
  static void unregister_on_this_thread(const SimClock* clock);

  Micros now_us_ = 0;
};

/// RAII: makes `clock` this thread's SimClock::current() for the scope.
/// This is how a gateway worker driving a world that was *built on another
/// thread* (construction auto-registers only on the constructing thread)
/// exposes that world's virtual clock to the tracing/metrics layer. The
/// referenced clock must outlive the scope; scopes nest (latest wins).
class ScopedClockCurrent {
 public:
  explicit ScopedClockCurrent(const SimClock& clock) : clock_(&clock) {
    SimClock::register_on_this_thread(clock_);
  }
  ~ScopedClockCurrent() { SimClock::unregister_on_this_thread(clock_); }

  ScopedClockCurrent(const ScopedClockCurrent&) = delete;
  ScopedClockCurrent& operator=(const ScopedClockCurrent&) = delete;

 private:
  const SimClock* clock_;
};

}  // namespace revelio
