// Process-wide metrics registry.
//
// Counters, gauges and log-bucketed quantile summaries, named by the
// `subsystem.verb.unit` convention (see DESIGN.md "Observability"), with an
// optional label set rendered into the metric key Prometheus-style:
// `pki.chain_verify.result.count{result=ok}`. The registry is always on.
// A lookup by name builds the key string, takes the registry mutex and
// walks a map; a per-block, per-signature or per-handshake path must not
// pay that on every call, so it binds its fixed-name counter once, as a
// function-local `static obs::Counter&`, and then pays one atomic add.
// Such paths count; they do not read a clock or feed a summary.
//
// Thread-safety: there is one registry per process, and every thread —
// the session engine's lanes included — writes straight into it. Map
// structure is guarded by a registry mutex; returned Counter/Gauge/Summary
// references stay valid forever (std::map nodes are stable, and no entry
// is ever removed). Counter and gauge updates are lock-free atomics;
// Summary::observe takes a per-summary mutex, and Summary::snapshot()
// reads count, sum and quantiles under the same mutex. The whole-map view
// counters() is meant for quiescent, test/exporter-time reads.
//
// Exporters serialize a point-in-time snapshot with to_json(); benchmarks
// and the attack gallery read individual counters back with
// counter_value().
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace revelio::obs {

/// Label set attached to a metric name, e.g. {{"result", "ok"}}. Order is
/// preserved in the rendered key, so use a consistent order per metric.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  /// Saturating add: a counter that reaches UINT64_MAX pins there instead
  /// of wrapping — a wrapped counter would read as a rate reset downstream.
  /// A CAS loop (not fetch_add) so concurrent increments near the ceiling
  /// still pin instead of wrapping.
  void inc(std::uint64_t delta = 1) {
    std::uint64_t cur = value_.load(std::memory_order_relaxed);
    std::uint64_t next;
    do {
      next = (cur + delta < cur) ? UINT64_MAX : cur + delta;
    } while (!value_.compare_exchange_weak(cur, next,
                                           std::memory_order_relaxed));
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-bucketed quantile summary: observations land in log-linear buckets
/// (kSubBuckets per power of two), so any quantile can be estimated with a
/// bounded *relative* error and no hand-picked bounds. This is the one
/// distribution type, used for the session engine's latency tails. The
/// bucketing scheme is fixed by the class, so two summaries always merge
/// exactly (bucket-wise), and merging N per-thread summaries is
/// bit-identical to observing the union.
///
/// Thread-safety: observe/quantile/snapshot/merge_from serialize on an
/// internal mutex. merge_from copies the source under its lock, then folds
/// under the target's — never both at once.
class Summary {
 public:
  /// Buckets per power of two. Bucket width / lower bound = 1/32, so a
  /// quantile estimated at a bucket midpoint is within ~1.6% of the exact
  /// nearest-rank value (tests gate the bound at 4%).
  static constexpr std::int32_t kSubBuckets = 32;

  void observe(double value);

  /// Nearest-rank quantile estimate for q in [0, 1]: the midpoint of the
  /// log bucket holding the rank, clamped to the exact observed [min, max]
  /// (so q=0 / q=1 are exact). Returns 0 when empty.
  double quantile(double q) const;

  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
  };
  Snapshot snapshot() const;

  std::uint64_t count() const;
  double sum() const;

  /// Folds another summary's observations into this one, bucket-wise and
  /// exact (the bucketing scheme is shared by construction).
  void merge_from(const Summary& other);

  /// Bucket index of a value (<= 0 lands in a dedicated floor bucket).
  /// Exposed for the estimator tests.
  static std::int32_t bucket_of(double value);
  /// Representative value (bucket midpoint) for an index from bucket_of.
  static double bucket_mid(std::int32_t bucket);

 private:
  double quantile_locked(double q) const;

  mutable std::mutex mu_;
  std::map<std::int32_t, std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

class MetricsRegistry {
 public:
  /// Lookup-or-create is guarded by the registry mutex; the returned
  /// reference is stable for the registry's lifetime (map nodes never
  /// move) and safe to update from any thread.
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  Summary& summary(const std::string& name, const Labels& labels = {});

  /// Read-only probe: the counter's value if it exists, else 0. Tests and
  /// the attack gallery assert on deltas of these.
  std::uint64_t counter_value(const std::string& name,
                              const Labels& labels = {}) const;

  /// Snapshot of everything:
  /// {"counters":{...},"gauges":{...},"summaries":{...}}, each summary as
  /// count/sum/min/max/p50/p90/p99/p999.
  std::string to_json() const;

  /// Canonical key: `name` or `name{k1=v1,k2=v2}` (labels in given order).
  static std::string render_key(const std::string& name, const Labels& labels);

  /// Whole-map view for tests and exporters. Iterating it races with
  /// concurrent metric *creation* — call it only when no pool work is in
  /// flight (updates to already-created metrics are fine to miss).
  const std::map<std::string, Counter>& counters() const { return counters_; }

 private:
  mutable std::mutex mu_;  // guards map structure, not metric values
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Summary> summaries_;
};

/// The process-wide registry every instrumentation site reports into.
MetricsRegistry& metrics();

}  // namespace revelio::obs
