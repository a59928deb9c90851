// Resilience policies for the simulated network fabric.
//
// The chaos layer (net::FaultPlan) makes transport faults routine; this
// module gives clients a principled response: capped exponential backoff
// with DRBG jitter charged to the SimClock (RetryPolicy / with_retries),
// virtual-time Deadline budgets threaded through nested calls, a
// per-endpoint CircuitBreaker (closed → open → half-open), and Failover
// over ordered replica lists. The cardinal rule, enforced through
// Error::is_transient(): only transport losses are retried — a
// verification failure is a fail-closed verdict and is returned
// immediately, no matter how many replicas or attempts remain.
//
// Thread safety: NONE of these types synchronize internally. They are
// per-client state, owned by whatever owns the client (a WebExtension,
// an SpNode, a BnFleetClient) and driven by one thread at a time — under
// the concurrent gateway (revelio/session_engine.hpp) each session builds
// its own extension, so each gets private breakers, retry state and
// jitter DRBG, and the world mutex serializes everything that touches a
// given SimClock or Network. Sharing a CircuitBreaker, Failover, Deadline
// or jitter DRBG across concurrently-running sessions without external
// locking is a data race.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "common/sim_clock.hpp"
#include "crypto/drbg.hpp"
#include "net/network.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace revelio::net {

/// Virtual-time budget for an operation, threaded by value through nested
/// calls. Default-constructed deadlines are unlimited.
///
/// Thread safety: immutable after construction, so copies may be read
/// from any thread; the SimClock passed to the query methods must be the
/// thread's own (world-locked) clock.
class Deadline {
 public:
  Deadline() = default;

  static Deadline unlimited() { return Deadline{}; }
  /// Expires `budget_ms` of virtual time from now.
  static Deadline after_ms(const SimClock& clock, double budget_ms) {
    Deadline d;
    d.expires_us_ = clock.now_us() + SimClock::from_ms(budget_ms);
    return d;
  }

  bool is_unlimited() const { return expires_us_ == kNoExpiry; }
  bool expired(const SimClock& clock) const {
    return clock.now_us() >= expires_us_;
  }
  /// Virtual time left; Micros max when unlimited.
  SimClock::Micros remaining_us(const SimClock& clock) const {
    if (is_unlimited()) return kNoExpiry;
    if (clock.now_us() >= expires_us_) return 0;
    return expires_us_ - clock.now_us();
  }

 private:
  static constexpr SimClock::Micros kNoExpiry =
      std::numeric_limits<SimClock::Micros>::max();
  SimClock::Micros expires_us_ = kNoExpiry;
};

/// Capped exponential backoff with jitter. All sleeps are virtual.
struct RetryPolicy {
  std::uint32_t max_attempts = 4;
  double initial_backoff_ms = 50.0;
  double multiplier = 2.0;
  double max_backoff_ms = 1600.0;
  /// Backoff is scaled by a factor drawn uniformly from
  /// [1 - jitter, 1 + jitter]; jitter comes from a caller-owned DRBG so
  /// schedules stay seed-deterministic.
  double jitter = 0.25;

  /// Backoff before retry number `attempt` (1 = after the first failure).
  SimClock::Micros backoff_us(std::uint32_t attempt,
                              crypto::HmacDrbg& jitter_drbg) const;
};

/// Per-endpoint circuit breaker over virtual time.
///
/// closed: requests flow; `failure_threshold` consecutive transient
///   failures open the breaker.  open: requests are short-circuited
///   without touching the endpoint until `open_ms` of virtual time has
///   passed.  half-open: one probe is let through; `half_open_successes`
///   consecutive probe successes close the breaker, any failure re-opens
///   it. State is exported as the gauge `breaker.state{endpoint=...}`
///   (0 closed, 1 open, 2 half-open).
///
/// Thread safety: not synchronized. allow/on_success/on_failure mutate
/// state and must come from one thread at a time (in practice: the
/// session that owns the enclosing Failover, under its world's mutex).
class CircuitBreaker {
 public:
  struct Config {
    std::uint32_t failure_threshold = 3;
    double open_ms = 5000.0;
    std::uint32_t half_open_successes = 1;
  };
  enum class State { kClosed, kOpen, kHalfOpen };

  explicit CircuitBreaker(std::string endpoint);
  CircuitBreaker(std::string endpoint, Config config);

  /// Current state, accounting for open→half-open cooldown expiry.
  State state(const SimClock& clock) const;
  /// True if a request may proceed now. An open breaker whose cooldown has
  /// elapsed transitions to half-open and admits the probe.
  bool allow(const SimClock& clock);
  void on_success(const SimClock& clock);
  void on_failure(const SimClock& clock);

  const std::string& endpoint() const { return endpoint_; }
  std::uint64_t times_opened() const { return times_opened_; }

 private:
  void transition(State next);

  std::string endpoint_;
  Config config_;
  SimClock::Micros open_us_;  // config_.open_ms
  State state_ = State::kClosed;
  std::uint32_t consecutive_failures_ = 0;
  std::uint32_t half_open_successes_ = 0;
  SimClock::Micros opened_at_us_ = 0;
  std::uint64_t times_opened_ = 0;
};

/// Ordered replica list with one circuit breaker per replica.
///
/// execute() tries replicas in order, skipping those whose breaker is
/// open. Transient failures record against the replica's breaker and fall
/// through to the next; a permanent error (a fail-closed verdict) is
/// returned immediately without consulting further replicas.
///
/// Thread safety: not synchronized — execute() mutates breaker state and
/// may insert into the breaker map. One owner thread at a time; metric
/// emission inside execute() is safe regardless (the registry is
/// thread-resolved and internally synchronized).
class Failover {
 public:
  explicit Failover(std::vector<Address> replicas,
                    CircuitBreaker::Config breaker_config = {},
                    std::string service = "net");

  const std::vector<Address>& replicas() const { return replicas_; }
  CircuitBreaker& breaker(const Address& replica);

  template <typename Fn>
  auto execute(SimClock& clock, Fn&& fn)
      -> decltype(fn(std::declval<const Address&>())) {
    using R = decltype(fn(std::declval<const Address&>()));
    obs::Span span("net.failover");
    span.attr("service", service_);
    R last = Error::make("net.unreachable",
                         service_ + ": all replicas short-circuited");
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      CircuitBreaker& br = breaker(replicas_[i]);
      if (!br.allow(clock)) {
        obs::metrics()
            .counter("breaker.short_circuit.count",
                     {{"endpoint", replicas_[i].to_string()}})
            .inc();
        continue;
      }
      R result = fn(replicas_[i]);
      if (result.ok()) {
        br.on_success(clock);
        if (i > 0) {
          obs::metrics()
              .counter("failover.switch.count", {{"service", service_}})
              .inc();
        }
        span.attr("replica", replicas_[i].to_string());
        return result;
      }
      if (!result.error().is_transient()) {
        // Fail closed: verification failures never fail over.
        return result;
      }
      br.on_failure(clock);
      last = std::move(result);
    }
    span.attr("exhausted", true);
    return last;
  }

 private:
  std::string service_;
  std::vector<Address> replicas_;
  CircuitBreaker::Config breaker_config_;
  std::map<std::string, CircuitBreaker> breakers_;
};

/// Runs `fn` under `policy`, retrying only transient errors, charging each
/// backoff to the SimClock and never sleeping past `deadline`. `op` labels
/// the `retry.attempts{op=...}` counter. Returns the first permanent error,
/// the first success, or the last transient error when attempts (or the
/// deadline) run out; an already-expired deadline yields
/// `net.deadline_exceeded` (permanent by design: budget exhaustion must not
/// be retried by an outer layer).
///
/// Thread safety: re-entrant but not synchronized — `clock` and
/// `jitter_drbg` are mutated (backoff advances the clock, jitter draws
/// consume DRBG state), so concurrent callers must pass thread-private or
/// externally-locked instances.
template <typename Fn>
auto with_retries(SimClock& clock, crypto::HmacDrbg& jitter_drbg,
                  const RetryPolicy& policy, const Deadline& deadline,
                  const std::string& op, Fn&& fn) -> decltype(fn()) {
  using R = decltype(fn());
  // The span is opened lazily on the first retry so the fault-free fast
  // path leaves the documented span tree untouched (and costs nothing).
  std::optional<obs::Span> span;
  std::uint32_t attempt = 1;
  for (;;) {
    if (deadline.expired(clock)) {
      if (span) span->attr("deadline_exceeded", true);
      return R(Error::make("net.deadline_exceeded", op));
    }
    obs::metrics().counter("retry.attempts", {{"op", op}}).inc();
    R result = fn();
    if (result.ok() || !result.error().is_transient() ||
        attempt >= policy.max_attempts) {
      if (span) span->attr("attempts", static_cast<std::uint64_t>(attempt));
      return result;
    }
    if (!span) {
      span.emplace("net.retry");
      span->attr("op", op);
    }
    const SimClock::Micros backoff = std::min(
        policy.backoff_us(attempt, jitter_drbg), deadline.remaining_us(clock));
    // A backoff sleep is pure waiting: charge virtual time and report it
    // to the session record so a staged engine parks instead of blocking.
    clock.advance_us(backoff);
    obs::note_wait_us(backoff);
    obs::flight_record(obs::FlightEventType::kRetry,
                       static_cast<std::uint16_t>(attempt),
                       static_cast<std::uint32_t>(backoff));
    obs::metrics().counter("retry.backoff.count", {{"op", op}}).inc();
    ++attempt;
  }
}

}  // namespace revelio::net
