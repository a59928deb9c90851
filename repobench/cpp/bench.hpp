// Shared vocabulary of the repository benchmark: run options, the metric
// table every workload fills, CPU clocks, and the span ledger.
//
// Time is CPU time wherever the computer does the work (thread CPU around
// each public call, process CPU around a whole engine run) and virtual
// time wherever the simulated network does (the world's SimClock). Wall
// time only bounds how long a run measures; it is never reported.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace repobench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // where the traced run writes its spans
};

/// One reported number. Count-type metrics (unit "count") are normalised
/// per round / per iteration so two runs of different length compare.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main().
struct Outcome {
  std::vector<std::string> gate_failures;  // correctness gates that broke
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;                // shed, transport errors
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// The end-to-end numbers under the names the workload family uses
  /// (sessions_per_cpu_s, boot_cpu_ms_p50, ...), printed before the result.
  std::map<std::string, Metric> named;
  /// Deterministic fingerprint: every count-type layer metric plus the
  /// virtual-time percentiles. Two runs with one seed must agree on it.
  std::map<std::string, double> fingerprint;
  /// Count metrics that differed between rounds of this run.
  std::vector<std::string> varied;
  std::string inputs_digest;  // hex digest of the seed-generated inputs
};

/// Fills `out.per_layer` with every per-layer metric at 0. Every workload
/// reports the whole table; a layer a workload does not exercise reads 0.
void init_layers(Outcome& out);
void set_layer(Outcome& out, const std::string& name, double value);
/// Records a broken correctness gate (the first few verbatim).
void add_gate_failure(Outcome& out, const std::string& msg);

// --- clocks --------------------------------------------------------------

std::int64_t thread_cpu_ns();
std::int64_t process_cpu_ns();
double wall_s();
double peak_rss_mib();
double current_rss_mib();

// --- host pace -----------------------------------------------------------
//
// Every reported CPU time is scaled to a quiet core: multiplied by the
// quiet cost of a fixed reference kernel (pace.cpp) over its median cost
// sampled on the same thread, or in the same phase, as the work. The quiet
// cost is the kernel's on a quiet core of the 4-vCPU Xeon VM the benchmark
// was tuned on, so scaled times read as that core's CPU time.

enum class PaceKernel { kFieldArith, kHashCipher };
/// Picks the kernel shaped like the workload; call before any thread starts.
void pace_use_kernel(PaceKernel kernel);
/// Samples the kernel on this thread when one is due; `thread_now_ns` is
/// the caller's fresh thread_cpu_ns() reading.
void pace_tick(std::int64_t thread_now_ns);
/// The kernel's quiet cost over the median of this thread's recent samples.
double pace_thread_scale();
/// Median kernel cost over every sample of the run so far, ns.
double pace_run_probe_ns();

/// The scale of one phase: the trimmed mean scale of every sample any
/// thread took during it. Samples once on construction and once in
/// scale(), so a phase without timed calls still has two.
class PaceEpoch {
 public:
  PaceEpoch();
  double scale() const;

 private:
  std::size_t start_;
};

// --- statistics ----------------------------------------------------------

/// Nearest-rank percentile of `values` (q in [0, 1]); 0 when empty.
double percentile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

/// Costs of work that repeats identically (a stage call of one session slot
/// in every round, an I/O call at one position of the replayed trace, a
/// boot of one image). Keeps every observation per unit and reports each
/// unit's median over its repetitions, so a neighbour's burst that covers
/// fewer than half of a unit's repetitions does not move it, while a cost
/// that recurs in most of them does.
class RepeatedCosts {
 public:
  void observe(std::size_t unit, double cost);
  /// One median per unit observed at least once.
  std::vector<double> values() const;
  double sum() const;

 private:
  std::vector<std::vector<double>> seen_;
};

// --- span ledger ---------------------------------------------------------

constexpr std::uint64_t kNoSession = ~0ull;

/// One timed call into a layer. Thread spans use the calling thread's CPU
/// clock; process spans (a multi-threaded engine run) use process CPU.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = top level of the measured phase
  std::uint64_t session = kNoSession;
  bool process_clock = false;
  std::int64_t cpu_start_ns = 0;
  std::int64_t cpu_end_ns = 0;
  std::uint64_t virt_start_us = 0;
  std::uint64_t virt_end_us = 0;

  double cpu_ms() const { return (cpu_end_ns - cpu_start_ns) / 1e6; }
};

/// In-memory span store. Spans are only kept while `enabled`; they are
/// written out once, at the end of the run.
class Ledger {
 public:
  void set_enabled(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(); }

  std::uint64_t next_id();
  void record(const Span& span);

  /// CPU self time per span name: each span's duration minus what its
  /// children cover (children are spans whose parent is its id).
  std::map<std::string, double> self_ms() const;
  /// Sum of top-level span CPU (parent == 0).
  double top_level_ms() const;
  std::size_t size() const;

  /// Writes every span as one JSON object per line.
  bool write_jsonl(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// Times one call on this thread: thread CPU always (the untraced run needs
/// it for its percentiles); a span only when the ledger is enabled. Takes a
/// pace sample first when one is due, so it never lands inside the call.
class CpuTimer {
 public:
  CpuTimer(Ledger& ledger, const char* name, std::uint64_t session,
           std::uint64_t parent, std::uint64_t virt_now_us = 0);
  /// Ends the call and returns its thread CPU in ms, scaled by the thread's
  /// pace. The span keeps the raw clock readings.
  double stop(std::uint64_t virt_now_us = 0);

 private:
  Ledger& ledger_;
  Span span_;
  bool stopped_ = false;
  double scale_ = 1.0;
};

// --- host calibration ----------------------------------------------------

struct HostCalibration {
  unsigned nproc = 0;
  double spin1_cpu_ms = 0.0;
  double spin1_wall_ms = 0.0;
  double spin2_cpu_ms_per_thread = 0.0;
  double spin2_wall_ms = 0.0;
};
HostCalibration calibrate_host();

// --- the measuring loop shared by every workload --------------------------

/// Runs `build()` kSetups times and returns the median of its paced process
/// CPU seconds; the workload keeps what the last call built. `teardown()`,
/// which frees the previous build, runs untimed before every build but the
/// first.
template <class Teardown, class Build>
double median_setup_s(Teardown&& teardown, Build&& build) {
  constexpr int kSetups = 7;
  std::vector<double> seconds;
  for (int k = 0; k < kSetups; ++k) {
    if (k > 0) teardown();
    const PaceEpoch pace;
    const std::int64_t t0 = process_cpu_ns();
    build();
    const std::int64_t cpu_ns = process_cpu_ns() - t0;
    seconds.push_back(cpu_ns / 1e9 * pace.scale());
  }
  return percentile(seconds, 0.5);
}

struct LoopResult {
  double traced_cpu_ms = 0.0;  // process CPU of the traced half (0 untraced)
  double peak_rss_mib = 0.0;   // after the first `rss_steps` steps
};

/// Calls `step(tally)` until `opt.seconds` of wall time have passed and at
/// least `rss_steps` steps have run. Peak memory is read after exactly
/// `rss_steps` steps, so it covers what serving leaves behind without
/// growing with the number of steps a fast host fits into a run. A traced
/// run spends the first half untraced and the second half traced, so the
/// two halves' throughput gives the tracing overhead.
template <class Tally, class Step>
LoopResult timed_loop(const Options& opt, Ledger& ledger, std::size_t rss_steps,
                      Tally& untraced, Tally& traced, Step&& step) {
  LoopResult result;
  const double t0 = wall_s();
  std::int64_t traced_t0 = -1;
  std::size_t steps = 0;
  do {
    const bool tracing = opt.trace && wall_s() - t0 >= opt.seconds / 2.0;
    if (tracing && traced_t0 < 0) {
      ledger.set_enabled(true);
      traced_t0 = process_cpu_ns();
    }
    step(tracing ? traced : untraced);
    if (++steps == rss_steps) result.peak_rss_mib = peak_rss_mib();
  } while (wall_s() - t0 < opt.seconds || steps < rss_steps ||
           (opt.trace && traced_t0 < 0));
  ledger.set_enabled(false);
  if (traced_t0 >= 0) result.traced_cpu_ms = (process_cpu_ns() - traced_t0) / 1e6;
  return result;
}

/// The ledger's own layer metrics of a traced run: the share of the traced
/// half's CPU in no top-level span, and untraced over traced throughput.
void set_ledger_layers(Outcome& out, const Ledger& ledger, double traced_cpu_ms,
                       double untraced_per_cpu_s, double traced_per_cpu_s);

// --- workloads -----------------------------------------------------------

Outcome run_attest_warm(const Options& opt, Ledger& ledger);
Outcome run_attest_cold(const Options& opt, Ledger& ledger);
Outcome run_cvm_node(const Options& opt, Ledger& ledger);

}  // namespace repobench
