// Host pace: how fast the calling core runs a fixed reference kernel now.
//
// On a shared host a neighbour on the same physical core (its SMT sibling)
// slows every instruction of high-throughput code, by up to about 1.8x, in
// levels held for seconds. Thread CPU time grows with it. A latency-bound
// spin barely notices, so each kernel is throughput-bound and shaped like
// the work it paces:
//
//   kFieldArith   eight independent multiply/rotate/lookup lanes, like the
//                 attest workloads' P-256/P-384 field arithmetic;
//   kHashCipher   a quarter of that, then four AES-NI and two SHA-NI lanes,
//                 like cvm_node's SHA-256 and AES-XTS with their scalar glue
//                 (kFieldArith alone on a CPU without those units, where the
//                 library runs portable code).
//
// The kernels are the benchmark's own code, so a change to the program
// cannot move them.
#include <immintrin.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "bench.hpp"

namespace repobench {

namespace {

struct Kernel {
  int arith_iters;
  int cipher_iters;
  double quiet_ns;  // its median cost on a quiet core of the tuning VM
};

constexpr Kernel kFieldArithKernel{600, 0, 3600.0};
constexpr Kernel kHashCipherKernel{150, 570, 3550.0};

// A sample is due once a thread has run this much CPU since its last one,
// so probing costs about 0.5% of the measured work.
constexpr std::int64_t kIntervalNs = 1'000'000;
// Per-thread window: a timer's scale is the median of the thread's last
// kWindow samples, which one interrupted probe cannot move.
constexpr std::size_t kWindow = 9;

Kernel g_kernel = kFieldArithKernel;  // set before any worker starts

std::array<std::uint64_t, 64> make_table() {
  std::array<std::uint64_t, 64> table{};
  std::uint64_t s = 0x5EEDull;
  for (auto& t : table) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    t = s;
  }
  return table;
}

const std::array<std::uint64_t, 64> kTable = make_table();
std::atomic<std::uint64_t> g_sink{0};

std::uint64_t arith_lanes(int iters, std::uint64_t seed) {
  std::array<std::uint64_t, 8> lane = {1, 2, 3, 4, 5, 6, 7, seed | 8};
  for (int i = 0; i < iters; ++i) {
    for (auto& v : lane) {
      v = v * 0x9E3779B97F4A7C15ull + kTable[v >> 58];
      v ^= (v << 13 | v >> 51) + (v >> 7);
    }
  }
  std::uint64_t x = 0;
  for (std::uint64_t v : lane) x ^= v;
  return x;
}

__attribute__((target("sha,aes,sse4.1"))) std::uint64_t cipher_lanes(
    int iters, std::uint64_t seed) {
  const __m128i key = _mm_set1_epi64x(static_cast<long long>(seed));
  __m128i a0 = _mm_set1_epi32(1), a1 = _mm_set1_epi32(2);
  __m128i a2 = _mm_set1_epi32(3), a3 = _mm_set1_epi32(4);
  __m128i s0 = _mm_set1_epi32(5), s1 = _mm_set1_epi32(6);
  __m128i s2 = _mm_set1_epi32(7), s3 = _mm_set1_epi32(8);
  for (int i = 0; i < iters; ++i) {
    a0 = _mm_aesenc_si128(a0, key);
    a1 = _mm_aesenc_si128(a1, key);
    a2 = _mm_aesenc_si128(a2, key);
    a3 = _mm_aesenc_si128(a3, key);
    s0 = _mm_sha256rnds2_epu32(s0, s1, key);
    s1 = _mm_sha256rnds2_epu32(s1, s0, a0);
    s2 = _mm_sha256rnds2_epu32(s2, s3, key);
    s3 = _mm_sha256rnds2_epu32(s3, s2, a1);
  }
  const __m128i x = _mm_xor_si128(
      _mm_xor_si128(_mm_xor_si128(a0, a1), _mm_xor_si128(a2, a3)),
      _mm_xor_si128(_mm_xor_si128(s0, s1), _mm_xor_si128(s2, s3)));
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(x));
}

/// Runs the kernel once; returns its thread CPU in ns.
double probe_ns() {
  std::uint64_t warm = 0;
  for (std::uint64_t t : kTable) warm ^= t;  // table into L1 before timing
  const std::int64_t t0 = thread_cpu_ns();
  std::uint64_t x = arith_lanes(g_kernel.arith_iters, warm);
  if (g_kernel.cipher_iters > 0) x ^= cipher_lanes(g_kernel.cipher_iters, x);
  const std::int64_t ns = thread_cpu_ns() - t0;
  g_sink.fetch_add(x, std::memory_order_relaxed);
  return static_cast<double>(ns);
}

struct ThreadPace {
  std::int64_t last_ns = -1;
  std::array<double, kWindow> window{};
  std::size_t count = 0;
  double scale = 1.0;
};

thread_local ThreadPace t_pace;

std::mutex g_log_mu;
std::vector<double> g_log;  // every sample of the run, any thread, in order

double median_scale(std::vector<double> samples) {
  if (samples.empty()) return 1.0;
  return g_kernel.quiet_ns / percentile(std::move(samples), 0.5);
}

void sample_now() {
  const double ns = probe_ns();
  ThreadPace& p = t_pace;
  p.window[p.count % kWindow] = ns;
  ++p.count;
  p.scale = median_scale(std::vector<double>(
      p.window.begin(), p.window.begin() + std::min(p.count, kWindow)));
  p.last_ns = thread_cpu_ns();
  std::lock_guard<std::mutex> lock(g_log_mu);
  g_log.push_back(ns);
}

std::size_t log_size() {
  std::lock_guard<std::mutex> lock(g_log_mu);
  return g_log.size();
}

}  // namespace

void pace_use_kernel(PaceKernel kernel) {
  const bool units = __builtin_cpu_supports("sha") &&
                     __builtin_cpu_supports("aes") &&
                     __builtin_cpu_supports("sse4.1");
  g_kernel = kernel == PaceKernel::kHashCipher && units ? kHashCipherKernel
                                                        : kFieldArithKernel;
}

void pace_tick(std::int64_t thread_now_ns) {
  if (t_pace.last_ns < 0 || thread_now_ns - t_pace.last_ns >= kIntervalNs) {
    sample_now();
  }
}

double pace_thread_scale() { return t_pace.scale; }

double pace_run_probe_ns() {
  std::lock_guard<std::mutex> lock(g_log_mu);
  return percentile(g_log, 0.5);
}

PaceEpoch::PaceEpoch() : start_(0) {
  sample_now();
  start_ = log_size() - 1;
}

double PaceEpoch::scale() const {
  sample_now();
  std::vector<double> scales;
  {
    std::lock_guard<std::mutex> lock(g_log_mu);
    for (std::size_t i = start_; i < g_log.size(); ++i) {
      scales.push_back(g_kernel.quiet_ns / g_log[i]);
    }
  }
  // Samples fall every millisecond of a thread's CPU, so the phase's CPU
  // takes their mean scale: a phase that straddles two levels gets each in
  // proportion. The outer tenth on either side (interrupted probes) is
  // dropped.
  std::sort(scales.begin(), scales.end());
  const std::size_t trim = scales.size() / 10;
  double total = 0.0;
  for (std::size_t i = trim; i < scales.size() - trim; ++i) total += scales[i];
  return total / static_cast<double>(scales.size() - 2 * trim);
}

}  // namespace repobench
