#include "net/network.hpp"

#include <algorithm>
#include <cstdint>

#include "common/bytes.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"

namespace revelio::net {

namespace {
/// Transport time is a *wait* from the caller's point of view: charge it
/// to the world clock and to the bound session record
/// (obs/flight_recorder.hpp), so a staged session engine can park sessions
/// for exactly this long instead of blocking a thread.
void charge_wait(SimClock& clock, SimClock::Micros us) {
  clock.advance_us(us);
  obs::note_wait_us(us);
}
}  // namespace

// --- FaultPlan -----------------------------------------------------------

FaultPlan::FaultPlan(ByteView seed)
    : drbg_(seed, to_bytes("net-fault-plan")) {}

void FaultPlan::set_default_profile(const LinkFaultProfile& profile) {
  default_profile_ = profile;
}

void FaultPlan::partition(const std::string& a, const std::string& b) {
  partitions_.insert(key(a, b));
}

void FaultPlan::heal(const std::string& a, const std::string& b) {
  partitions_.erase(key(a, b));
}

void FaultPlan::blackhole(const std::string& host, SimClock::Micros start_us,
                          SimClock::Micros end_us) {
  blackholes_[host].push_back(Window{start_us, end_us});
}

void FaultPlan::flap(const std::string& host, SimClock::Micros period_us,
                     SimClock::Micros down_us, SimClock::Micros phase_us) {
  if (period_us == 0) return;
  flaps_[host].push_back(Flap{period_us, down_us, phase_us});
}

void FaultPlan::clear_faults() {
  default_profile_ = LinkFaultProfile{};
  partitions_.clear();
  blackholes_.clear();
  flaps_.clear();
}

FaultPlan::HostPair FaultPlan::key(const std::string& a,
                                   const std::string& b) {
  return {std::min(a, b), std::max(a, b)};
}

bool FaultPlan::endpoint_down(const std::string& host,
                              SimClock::Micros now_us,
                              const char** kind) const {
  const auto bh = blackholes_.find(host);
  if (bh != blackholes_.end()) {
    for (const Window& w : bh->second) {
      if (now_us >= w.start_us && now_us < w.end_us) {
        *kind = "blackhole";
        return true;
      }
    }
  }
  const auto fl = flaps_.find(host);
  if (fl != flaps_.end()) {
    for (const Flap& f : fl->second) {
      const SimClock::Micros since =
          now_us >= f.phase_us ? now_us - f.phase_us : 0;
      if (now_us >= f.phase_us && since % f.period_us < f.down_us) {
        *kind = "flap";
        return true;
      }
    }
  }
  return false;
}

double FaultPlan::uniform() {
  const Bytes raw = drbg_.generate(8);
  std::uint64_t x = 0;
  for (int i = 0; i < 8; ++i) x = (x << 8) | raw[static_cast<size_t>(i)];
  // 53 bits of mantissa, exactly as uniform as a double can be.
  return static_cast<double>(x >> 11) * (1.0 / 9007199254740992.0);
}

FaultPlan::Decision FaultPlan::decide(const std::string& from,
                                      const std::string& to,
                                      SimClock::Micros now_us) {
  Decision d;
  // Structural faults are deterministic functions of config + clock and
  // consume no DRBG state, so healing a partition never shifts the
  // probabilistic schedule of other links.
  if (partitions_.count(key(from, to)) > 0) {
    d.verdict = Decision::Verdict::kUnreachable;
    d.kind = "partition";
    return d;
  }
  const char* down_kind = "";
  if (endpoint_down(to, now_us, &down_kind) ||
      endpoint_down(from, now_us, &down_kind)) {
    d.verdict = Decision::Verdict::kUnreachable;
    d.kind = down_kind;
    return d;
  }

  const LinkFaultProfile& p = default_profile_;
  if (p.drop_prob > 0.0 && uniform() < p.drop_prob) {
    d.verdict = Decision::Verdict::kDrop;
    d.kind = "drop";
    return d;
  }
  if (p.delay_prob > 0.0 && uniform() < p.delay_prob) {
    const double span = p.delay_max_ms - p.delay_min_ms;
    d.extra_delay_us = SimClock::from_ms(
        p.delay_min_ms + (span > 0.0 ? uniform() * span : 0.0));
    d.kind = "delay";
  }
  if (p.duplicate_prob > 0.0 && uniform() < p.duplicate_prob) {
    d.duplicate = true;
    if (d.kind[0] == '\0') d.kind = "duplicate";
  }
  return d;
}

// --- Network -------------------------------------------------------------

void Network::listen(const Address& addr, Handler handler) {
  handlers_[addr] = std::move(handler);
}

void Network::close(const Address& addr) { handlers_.erase(addr); }

bool Network::is_listening(const Address& addr) const {
  return handlers_.count(addr) > 0;
}

void Network::set_link_latency_ms(const std::string& a, const std::string& b,
                                  double ms) {
  link_latency_us_[{std::min(a, b), std::max(a, b)}] = SimClock::from_ms(ms);
}

SimClock::Micros Network::latency_between(const std::string& a,
                                          const std::string& b) const {
  if (a == b) return 50;  // loopback
  const auto it = link_latency_us_.find({std::min(a, b), std::max(a, b)});
  return it == link_latency_us_.end() ? default_latency_us_ : it->second;
}

Result<Bytes> Network::call(const Address& from, const Address& to,
                            ByteView request) {
  Address target = to;
  Bytes tampered;
  ByteView payload = request;

  if (interceptor_) {
    MitmAction action = interceptor_(from, to, request);
    switch (action.kind) {
      case MitmAction::Kind::kForward:
        break;
      case MitmAction::Kind::kDrop:
        // The caller observes a timeout; a drop is never free — the full
        // configured timeout is charged to virtual time.
        charge_wait(*clock_, call_timeout_us_);
        return Error::make("net.timeout", "request dropped in transit");
      case MitmAction::Kind::kTamper:
        tampered = std::move(action.tampered_request);
        payload = tampered;
        break;
      case MitmAction::Kind::kRedirect:
        target = action.redirect_to;
        break;
    }
  }

  bool duplicate = false;
  if (fault_plan_) {
    const FaultPlan::Decision d =
        fault_plan_->decide(from.host, target.host, clock_->now_us());
    switch (d.verdict) {
      case FaultPlan::Decision::Verdict::kUnreachable:
        obs::metrics()
            .counter("net.fault.injected", {{"kind", d.kind}})
            .inc();
        charge_wait(*clock_, call_timeout_us_);
        return Error::make("net.unreachable",
                           target.to_string() + " (" + d.kind + ")");
      case FaultPlan::Decision::Verdict::kDrop:
        obs::metrics()
            .counter("net.fault.injected", {{"kind", d.kind}})
            .inc();
        charge_wait(*clock_, call_timeout_us_);
        return Error::make("net.timeout",
                           "dropped by fault plan: " + target.to_string());
      case FaultPlan::Decision::Verdict::kDeliver:
        if (d.extra_delay_us > 0) {
          obs::metrics()
              .counter("net.fault.injected", {{"kind", "delay"}})
              .inc();
          charge_wait(*clock_, d.extra_delay_us);
        }
        duplicate = d.duplicate;
        break;
    }
  }

  const auto it = handlers_.find(target);
  if (it == handlers_.end()) {
    charge_wait(*clock_, latency_between(from.host, target.host));
    return Error::make("net.connection_refused", target.to_string());
  }
  // One round trip.
  charge_wait(*clock_, 2 * latency_between(from.host, target.host));
  Bytes response = it->second(payload, from);
  if (duplicate) {
    // The copy trails the original; the caller already has its response, so
    // the duplicate's is discarded. Stateful endpoints (TLS record layers)
    // legitimately observe — and must survive — the replay.
    obs::metrics()
        .counter("net.fault.injected", {{"kind", "duplicate"}})
        .inc();
    const auto again = handlers_.find(target);
    if (again != handlers_.end()) (void)again->second(payload, from);
  }
  return response;
}

void Network::dns_set_a(const std::string& name, const std::string& host) {
  dns_a_[name] = host;
}

void Network::dns_remove_a(const std::string& name) { dns_a_.erase(name); }

void Network::dns_set_txt(const std::string& name, const std::string& value) {
  dns_txt_[name].push_back(value);
}

void Network::dns_clear_txt(const std::string& name) {
  dns_txt_.erase(name);
}

std::vector<std::string> Network::dns_txt(const std::string& name) const {
  const auto it = dns_txt_.find(name);
  return it == dns_txt_.end() ? std::vector<std::string>{} : it->second;
}

Result<Address> Network::resolve(const std::string& name,
                                 std::uint16_t port) const {
  const auto it = dns_a_.find(name);
  if (it == dns_a_.end()) {
    return Error::make("net.nxdomain", name);
  }
  return Address{it->second, port};
}

}  // namespace revelio::net
