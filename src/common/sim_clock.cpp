#include "common/sim_clock.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

namespace revelio {
namespace {
// Registration order of every clock registered on this thread; current()
// is the back. The registry is per-thread: each gateway worker sees only
// the clocks of the world it is currently driving, so concurrent session
// worlds never race on (or mis-resolve) current(). Destroying a clock
// erases exactly that entry, so a temporary copy dying re-exposes
// whichever clock was registered before it instead of leaving nullptr (or
// a dangling pointer) behind.
std::vector<const SimClock*>& clock_registry() {
  thread_local std::vector<const SimClock*> registry;
  return registry;
}
}  // namespace

void SimClock::register_on_this_thread(const SimClock* clock) {
  clock_registry().push_back(clock);
}

void SimClock::unregister_on_this_thread(const SimClock* clock) {
  auto& registry = clock_registry();
  // Erase the most recent matching entry (scopes nest LIFO; a plain erase
  // of *all* entries would break nested ScopedClockCurrent of one clock).
  const auto it = std::find(registry.rbegin(), registry.rend(), clock);
  if (it != registry.rend()) registry.erase(std::next(it).base());
}

SimClock::SimClock() { register_on_this_thread(this); }

SimClock::SimClock(const SimClock& other) : now_us_(other.now_us_) {
  register_on_this_thread(this);
}

SimClock::~SimClock() { unregister_on_this_thread(this); }

const SimClock* SimClock::current() {
  const auto& registry = clock_registry();
  return registry.empty() ? nullptr : registry.back();
}

std::string SimClock::to_string() const {
  const std::uint64_t total_ms = now_us_ / 1000;
  const std::uint64_t ms = total_ms % 1000;
  const std::uint64_t total_s = total_ms / 1000;
  const std::uint64_t s = total_s % 60;
  const std::uint64_t m = (total_s / 60) % 60;
  const std::uint64_t h = total_s / 3600;
  char buf[48];
  std::snprintf(buf, sizeof(buf), "T+%02llu:%02llu:%02llu.%03llu",
                static_cast<unsigned long long>(h),
                static_cast<unsigned long long>(m),
                static_cast<unsigned long long>(s),
                static_cast<unsigned long long>(ms));
  return buf;
}

}  // namespace revelio
