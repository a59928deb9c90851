#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.hpp"

namespace repobench {

namespace {

std::vector<std::pair<std::string, std::string>> build_layer_table() {
  std::vector<std::pair<std::string, std::string>> t;
  // revelio: the extension's staged attestation, one entry per stage call.
  for (const char* stage : {"open", "handshake", "evidence", "kds", "verify",
                            "page"}) {
    const std::string s = std::string("revelio.") + stage;
    t.push_back({s + ".cpu_ms", "ms"});
    t.push_back({s + ".cpu_share", "ratio"});
    if (std::string(stage) != "open") t.push_back({s + ".wait_virt_ms", "ms"});
  }
  t.push_back({"revelio.engine.self_cpu_ms", "ms"});
  t.push_back({"revelio.engine.self_share", "ratio"});
  for (const char* c : {"fetches", "coalesced", "hits", "store_hits"}) {
    t.push_back({std::string("revelio.vcek.") + c, "count"});
  }
  t.push_back({"revelio.vcek.hit_ratio", "ratio"});
  t.push_back({"pki.chain.hits", "count"});
  t.push_back({"pki.chain.misses", "count"});
  t.push_back({"pki.chain.hit_ratio", "ratio"});
  t.push_back({"net.tls.handshakes", "count"});
  t.push_back({"net.http.requests", "count"});
  t.push_back({"sevsnp.report_verifies", "count"});
  t.push_back({"crypto.verify_table.hits", "count"});
  t.push_back({"crypto.verify_table.misses", "count"});
  t.push_back({"crypto.pinned.hits", "count"});
  t.push_back({"crypto.pinned.misses", "count"});
  t.push_back({"crypto.batch.sigs", "count"});
  t.push_back({"crypto.batch.fallbacks", "count"});
  t.push_back({"store.recover.cpu_ms", "ms"});
  t.push_back({"store.wal_frames", "count"});
  t.push_back({"store.write_failures", "count"});
  t.push_back({"obs.audit.records", "count"});
  t.push_back({"obs.audit.verify.cpu_ms", "ms"});
  t.push_back({"vm.deploy.cpu_ms", "ms"});
  t.push_back({"vm.boot.dm_crypt_setup_ms", "ms"});
  t.push_back({"vm.boot.dm_verity_setup_ms", "ms"});
  t.push_back({"vm.boot.dm_verity_verify_ms", "ms"});
  t.push_back({"vm.boot.identity_creation_ms", "ms"});
  t.push_back({"storage.verity_open.cpu_ms", "ms"});
  t.push_back({"storage.verity_read.cpu_us", "us"});
  t.push_back({"storage.verity.full_walks", "count"});
  t.push_back({"storage.verity.ancestor_hits", "count"});
  t.push_back({"storage.crypt_read.cpu_us", "us"});
  t.push_back({"storage.crypt_write.cpu_us", "us"});
  t.push_back({"imagebuild.build.cpu_ms", "ms"});
  t.push_back({"mem.rss_growth_kib_per_unit", "KiB"});
  t.push_back({"ledger.unattributed_share", "ratio"});
  t.push_back({"ledger.trace_overhead_ratio", "ratio"});
  t.push_back({"host.nproc", "count"});
  t.push_back({"host.spin1.cpu_ms", "ms"});
  t.push_back({"host.spin1.wall_ms", "ms"});
  t.push_back({"host.spin2.cpu_ms_per_thread", "ms"});
  t.push_back({"host.spin2.wall_ms", "ms"});
  t.push_back({"host.pace.probe_ns", "ns"});
  return t;
}

std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

void init_layers(Outcome& out) {
  static const auto table = build_layer_table();
  for (const auto& [name, unit] : table) {
    out.per_layer[name] = Metric{0.0, unit};
  }
}

void set_layer(Outcome& out, const std::string& name, double value) {
  auto it = out.per_layer.find(name);
  if (it == out.per_layer.end()) {
    std::fprintf(stderr, "repobench: unknown layer metric %s\n", name.c_str());
    std::abort();
  }
  it->second.value = value;
  if (it->second.unit == "count") out.fingerprint[name] = value;
}

void add_gate_failure(Outcome& out, const std::string& msg) {
  constexpr std::size_t kKept = 16;
  if (out.gate_failures.size() < kKept) out.gate_failures.push_back(msg);
  else if (out.gate_failures.size() == kKept) out.gate_failures.push_back("...");
}

std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
double wall_s() { return clock_ns(CLOCK_MONOTONIC) / 1e9; }

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double current_rss_mib() {
  long pages = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    long size = 0;
    if (std::fscanf(f, "%ld %ld", &size, &pages) != 2) pages = 0;
    std::fclose(f);
  }
  return static_cast<double>(pages) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1 << 20);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

void RepeatedCosts::observe(std::size_t unit, double cost) {
  if (unit >= seen_.size()) seen_.resize(unit + 1);
  seen_[unit].push_back(cost);
}

std::vector<double> RepeatedCosts::values() const {
  std::vector<double> out;
  for (const auto& costs : seen_) {
    if (!costs.empty()) out.push_back(percentile(costs, 0.5));
  }
  return out;
}

double RepeatedCosts::sum() const {
  double total = 0.0;
  for (double v : values()) total += v;
  return total;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

std::uint64_t Ledger::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Ledger::record(const Span& span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::map<std::string, double> Ledger::self_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::uint64_t, double> child_ms;
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ms[s.parent] += s.cpu_ms();
  }
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    const auto it = child_ms.find(s.id);
    out[s.name] += s.cpu_ms() - (it == child_ms.end() ? 0.0 : it->second);
  }
  return out;
}

double Ledger::top_level_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.parent == 0) total += s.cpu_ms();
  }
  return total;
}

std::size_t Ledger::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Ledger::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"session\":%lld,"
                 "\"clock\":\"%s\",\"cpu_start_ns\":%lld,\"cpu_end_ns\":%lld,"
                 "\"virt_start_us\":%llu,\"virt_end_us\":%llu}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 s.session == kNoSession ? -1LL
                                         : static_cast<long long>(s.session),
                 s.process_clock ? "process" : "thread",
                 static_cast<long long>(s.cpu_start_ns),
                 static_cast<long long>(s.cpu_end_ns),
                 static_cast<unsigned long long>(s.virt_start_us),
                 static_cast<unsigned long long>(s.virt_end_us));
  }
  return std::fclose(f) == 0;
}

CpuTimer::CpuTimer(Ledger& ledger, const char* name, std::uint64_t session,
                   std::uint64_t parent, std::uint64_t virt_now_us)
    : ledger_(ledger) {
  span_.name = name;
  span_.session = session;
  span_.parent = parent;
  span_.virt_start_us = virt_now_us;
  if (ledger_.enabled()) span_.id = ledger_.next_id();
  pace_tick(thread_cpu_ns());
  span_.cpu_start_ns = thread_cpu_ns();
}

double CpuTimer::stop(std::uint64_t virt_now_us) {
  if (!stopped_) {
    span_.cpu_end_ns = thread_cpu_ns();
    span_.virt_end_us = virt_now_us;
    stopped_ = true;
    ledger_.record(span_);
    // A call long enough for a sample to be due gets one right after it.
    pace_tick(span_.cpu_end_ns);
    scale_ = pace_thread_scale();
  }
  return span_.cpu_ms() * scale_;
}

void set_ledger_layers(Outcome& out, const Ledger& ledger, double traced_cpu_ms,
                       double untraced_per_cpu_s, double traced_per_cpu_s) {
  set_layer(out, "ledger.unattributed_share",
            traced_cpu_ms > 0.0
                ? std::max(0.0, traced_cpu_ms - ledger.top_level_ms()) /
                      traced_cpu_ms
                : 0.0);
  set_layer(out, "ledger.trace_overhead_ratio",
            traced_per_cpu_s > 0.0 ? untraced_per_cpu_s / traced_per_cpu_s
                                   : 0.0);
}

HostCalibration calibrate_host() {
  // A fixed integer spin, run on one thread and then on two at once. On an
  // idle host both runs take the same CPU per thread and the same wall
  // time; a contended host stretches the two-thread wall time.
  const auto spin = [](double& cpu_ms) {
    const std::int64_t start = thread_cpu_ns();
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < 40'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    static std::atomic<std::uint64_t> sink{0};
    sink.fetch_add(x, std::memory_order_relaxed);
    cpu_ms = (thread_cpu_ns() - start) / 1e6;
  };
  HostCalibration cal;
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  cal.nproc = n > 0 ? static_cast<unsigned>(n) : 1;

  double t0 = wall_s();
  spin(cal.spin1_cpu_ms);
  cal.spin1_wall_ms = (wall_s() - t0) * 1e3;

  double a = 0.0;
  double b = 0.0;
  t0 = wall_s();
  std::thread other([&] { spin(b); });
  spin(a);
  other.join();
  cal.spin2_wall_ms = (wall_s() - t0) * 1e3;
  cal.spin2_cpu_ms_per_thread = (a + b) / 2.0;
  return cal;
}

}  // namespace repobench
