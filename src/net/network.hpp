// Simulated network fabric.
//
// A synchronous request/response network: endpoints register handlers at
// (host, port) addresses, calls charge round-trip latency to the simulated
// clock, and an attacker hook can observe, drop, tamper with or redirect
// any message — the man-in-the-middle capabilities the paper's threat
// model grants the cloud provider (§3.2). DNS lives here too, under the
// *service provider's* control (§5.3.2: "they control access to DNS").
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/sim_clock.hpp"
#include "crypto/drbg.hpp"

namespace revelio::net {

struct Address {
  std::string host;
  std::uint16_t port = 0;

  std::string to_string() const {
    return host + ":" + std::to_string(port);
  }
  friend auto operator<=>(const Address&, const Address&) = default;
};

/// Attacker's decision for one in-flight message.
struct MitmAction {
  enum class Kind { kForward, kDrop, kTamper, kRedirect };
  Kind kind = Kind::kForward;
  Bytes tampered_request;  // for kTamper
  Address redirect_to;     // for kRedirect

  static MitmAction forward() { return {}; }
  static MitmAction drop() { return {Kind::kDrop, {}, {}}; }
  static MitmAction tamper(Bytes request) {
    return {Kind::kTamper, std::move(request), {}};
  }
  static MitmAction redirect(Address to) {
    return {Kind::kRedirect, {}, std::move(to)};
  }
};

/// Link fault probabilities, applied to every link and evaluated per message
/// against the plan's DRBG, so a given seed yields one fixed schedule.
struct LinkFaultProfile {
  double drop_prob = 0.0;       // message lost; caller pays the call timeout
  double delay_prob = 0.0;      // extra latency added on top of the link RTT
  double delay_min_ms = 1.0;
  double delay_max_ms = 25.0;
  double duplicate_prob = 0.0;  // handler sees the same message twice
};

/// Seeded, deterministic fault-injection plan for the network fabric.
///
/// All randomness comes from a single HmacDrbg: the same seed plus the same
/// sequence of decide() calls reproduces the identical fault schedule, so a
/// chaos run can be replayed bit-for-bit (FoundationDB-style deterministic
/// simulation). Window faults — partitions, blackholes, flaps — are pure
/// functions of the SimClock, so they are deterministic in virtual time too.
class FaultPlan {
 public:
  explicit FaultPlan(ByteView seed);

  /// Profile applied to every link.
  void set_default_profile(const LinkFaultProfile& profile);

  /// Symmetric host partition: every message between a and b is unreachable
  /// until heal()ed. Partition checks precede probabilistic faults.
  void partition(const std::string& a, const std::string& b);
  void heal(const std::string& a, const std::string& b);

  /// Endpoint blackhole: messages to `host` during [start_us, end_us) of
  /// virtual time are unreachable.
  void blackhole(const std::string& host, SimClock::Micros start_us,
                 SimClock::Micros end_us);
  /// Endpoint flap: `host` is down for the first `down_us` of every
  /// `period_us`, phase-anchored at `phase_us`.
  void flap(const std::string& host, SimClock::Micros period_us,
            SimClock::Micros down_us, SimClock::Micros phase_us = 0);

  /// Removes every partition, blackhole and flap and zeroes all
  /// probabilities; the DRBG keeps its state so a healed plan stays on the
  /// same deterministic schedule if probabilities are re-armed.
  void clear_faults();

  /// Verdict for one in-flight message.
  struct Decision {
    enum class Verdict { kDeliver, kDrop, kUnreachable };
    Verdict verdict = Verdict::kDeliver;
    SimClock::Micros extra_delay_us = 0;
    bool duplicate = false;
    const char* kind = "";  // metric label when a fault fired
  };
  Decision decide(const std::string& from, const std::string& to,
                  SimClock::Micros now_us);

 private:
  using HostPair = std::pair<std::string, std::string>;
  static HostPair key(const std::string& a, const std::string& b);
  bool endpoint_down(const std::string& host, SimClock::Micros now_us,
                     const char** kind) const;
  /// One DRBG draw mapped to [0, 1).
  double uniform();

  crypto::HmacDrbg drbg_;
  LinkFaultProfile default_profile_;
  std::set<HostPair> partitions_;
  struct Window {
    SimClock::Micros start_us = 0;
    SimClock::Micros end_us = 0;
  };
  std::map<std::string, std::vector<Window>> blackholes_;
  struct Flap {
    SimClock::Micros period_us = 0;
    SimClock::Micros down_us = 0;
    SimClock::Micros phase_us = 0;
  };
  std::map<std::string, std::vector<Flap>> flaps_;
};

class Network {
 public:
  using Handler = std::function<Bytes(ByteView request, const Address& from)>;
  using Interceptor = std::function<MitmAction(
      const Address& from, const Address& to, ByteView request)>;

  explicit Network(SimClock& clock) : clock_(&clock) {}

  SimClock& clock() { return *clock_; }

  // --- Topology --------------------------------------------------------

  void listen(const Address& addr, Handler handler);
  void close(const Address& addr);
  bool is_listening(const Address& addr) const;

  /// Default one-way latency between any two distinct hosts (ms).
  void set_default_latency_ms(double ms) {
    default_latency_us_ = SimClock::from_ms(ms);
  }
  /// Overrides the one-way latency between two hosts (symmetric).
  void set_link_latency_ms(const std::string& a, const std::string& b,
                           double ms);

  // --- Data plane ------------------------------------------------------

  /// Synchronous RPC: delivers `request` to the handler at `to`, returns
  /// its response. Charges one round trip of latency.
  Result<Bytes> call(const Address& from, const Address& to,
                     ByteView request);

  /// Installs/clears the attacker. The interceptor sees every message.
  void set_interceptor(Interceptor interceptor) {
    interceptor_ = std::move(interceptor);
  }
  void clear_interceptor() { interceptor_ = nullptr; }

  /// Installs the chaos fault plan. Faults apply after the attacker
  /// interceptor has chosen the (possibly redirected) target.
  void set_fault_plan(FaultPlan plan) { fault_plan_ = std::move(plan); }
  FaultPlan* fault_plan() {
    return fault_plan_ ? &*fault_plan_ : nullptr;
  }

  /// Virtual time a caller waits before concluding a message was lost. A
  /// drop is never free: the full timeout is charged to the SimClock.
  void set_call_timeout_ms(double ms) {
    call_timeout_us_ = SimClock::from_ms(ms);
  }

  // --- DNS (service-provider controlled) --------------------------------

  void dns_set_a(const std::string& name, const std::string& host);
  void dns_remove_a(const std::string& name);
  void dns_set_txt(const std::string& name, const std::string& value);
  void dns_clear_txt(const std::string& name);
  std::vector<std::string> dns_txt(const std::string& name) const;

  /// Resolves a DNS name to a concrete address.
  Result<Address> resolve(const std::string& name, std::uint16_t port) const;

 private:
  SimClock::Micros latency_between(const std::string& a,
                                   const std::string& b) const;

  SimClock* clock_;
  SimClock::Micros default_latency_us_ = 2600;  // paper's base RTT: 5.2 ms
  SimClock::Micros call_timeout_us_ = 1'000'000;
  std::map<std::pair<std::string, std::string>, SimClock::Micros>
      link_latency_us_;
  std::map<Address, Handler> handlers_;
  Interceptor interceptor_;
  std::optional<FaultPlan> fault_plan_;
  std::map<std::string, std::string> dns_a_;
  std::map<std::string, std::vector<std::string>> dns_txt_;
};

}  // namespace revelio::net
