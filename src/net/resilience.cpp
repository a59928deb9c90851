#include "net/resilience.hpp"

#include <algorithm>

namespace revelio::net {

SimClock::Micros RetryPolicy::backoff_us(std::uint32_t attempt,
                                         crypto::HmacDrbg& jitter_drbg) const {
  double backoff = initial_backoff_ms;
  for (std::uint32_t i = 1; i < attempt; ++i) {
    backoff *= multiplier;
    if (backoff >= max_backoff_ms) break;
  }
  backoff = std::min(backoff, max_backoff_ms);
  if (jitter > 0.0) {
    const Bytes raw = jitter_drbg.generate(8);
    std::uint64_t x = 0;
    for (int i = 0; i < 8; ++i) x = (x << 8) | raw[static_cast<size_t>(i)];
    const double u = static_cast<double>(x >> 11) / 9007199254740992.0;
    backoff *= 1.0 - jitter + 2.0 * jitter * u;
  }
  return SimClock::from_ms(backoff);
}

CircuitBreaker::CircuitBreaker(std::string endpoint)
    : CircuitBreaker(std::move(endpoint), Config{}) {}

CircuitBreaker::CircuitBreaker(std::string endpoint, Config config)
    : endpoint_(std::move(endpoint)),
      config_(config),
      open_us_(SimClock::from_ms(config.open_ms)) {
  transition(State::kClosed);
}

CircuitBreaker::State CircuitBreaker::state(const SimClock& clock) const {
  if (state_ == State::kOpen &&
      clock.now_us() >= opened_at_us_ + open_us_) {
    return State::kHalfOpen;
  }
  return state_;
}

bool CircuitBreaker::allow(const SimClock& clock) {
  const State effective = state(clock);
  if (effective != state_) transition(effective);  // open -> half-open
  return state_ != State::kOpen;
}

void CircuitBreaker::on_success(const SimClock& clock) {
  consecutive_failures_ = 0;
  if (state(clock) == State::kHalfOpen) {
    if (++half_open_successes_ >= config_.half_open_successes) {
      transition(State::kClosed);
    }
  } else if (state_ != State::kClosed) {
    transition(State::kClosed);
  }
}

void CircuitBreaker::on_failure(const SimClock& clock) {
  const State effective = state(clock);
  if (effective != state_) transition(effective);
  if (state_ == State::kHalfOpen) {
    // A failed probe re-opens the breaker for a fresh cooldown.
    opened_at_us_ = clock.now_us();
    transition(State::kOpen);
    return;
  }
  if (state_ == State::kClosed &&
      ++consecutive_failures_ >= config_.failure_threshold) {
    opened_at_us_ = clock.now_us();
    transition(State::kOpen);
  }
}

void CircuitBreaker::transition(State next) {
  if (next == State::kOpen && state_ != State::kOpen) {
    ++times_opened_;
    obs::metrics()
        .counter("breaker.open.count", {{"endpoint", endpoint_}})
        .inc();
  }
  if (next != State::kHalfOpen) half_open_successes_ = 0;
  if (next == State::kClosed) consecutive_failures_ = 0;
  state_ = next;
  obs::metrics()
      .gauge("breaker.state", {{"endpoint", endpoint_}})
      .set(state_ == State::kClosed ? 0.0
                                    : (state_ == State::kOpen ? 1.0 : 2.0));
}

Failover::Failover(std::vector<Address> replicas,
                   CircuitBreaker::Config breaker_config, std::string service)
    : service_(std::move(service)),
      replicas_(std::move(replicas)),
      breaker_config_(breaker_config) {}

CircuitBreaker& Failover::breaker(const Address& replica) {
  const std::string key = replica.to_string();
  auto it = breakers_.find(key);
  if (it == breakers_.end()) {
    it = breakers_.emplace(key, CircuitBreaker(key, breaker_config_)).first;
  }
  return it->second;
}

}  // namespace revelio::net
