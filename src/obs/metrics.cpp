#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/json.hpp"

namespace revelio::obs {

namespace {

/// Floor bucket for values <= 0 (durations never go negative, but a zero
/// observation must still count somewhere).
constexpr std::int32_t kFloorBucket = std::numeric_limits<std::int32_t>::min();
/// Bias keeping (exponent * kSubBuckets + sub) positive for every finite
/// double exponent (frexp exponents span roughly [-1073, 1024]).
constexpr std::int32_t kExponentBias = 2048;

}  // namespace

std::int32_t Summary::bucket_of(double value) {
  if (!(value > 0.0)) return kFloorBucket;  // also catches NaN
  int exp = 0;
  const double m = std::frexp(value, &exp);  // value = m * 2^exp, m in [.5,1)
  auto sub = static_cast<std::int32_t>((m - 0.5) * 2.0 *
                                       static_cast<double>(kSubBuckets));
  if (sub >= kSubBuckets) sub = kSubBuckets - 1;
  if (sub < 0) sub = 0;
  return (static_cast<std::int32_t>(exp) + kExponentBias) * kSubBuckets + sub;
}

double Summary::bucket_mid(std::int32_t bucket) {
  if (bucket == kFloorBucket) return 0.0;
  const std::int32_t exp = bucket / kSubBuckets - kExponentBias;
  const std::int32_t sub = bucket % kSubBuckets;
  const double lo =
      std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets, exp - 1);
  const double hi =
      std::ldexp(1.0 + static_cast<double>(sub + 1) / kSubBuckets, exp - 1);
  return (lo + hi) / 2.0;
}

void Summary::observe(double value) {
  const std::int32_t bucket = bucket_of(value);
  std::lock_guard<std::mutex> lock(mu_);
  ++buckets_[bucket];
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  ++count_;
  sum_ += value;
}

double Summary::quantile_locked(double q) const {
  if (count_ == 0) return 0.0;
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  // Nearest-rank: the rank-th smallest observation lives in the first
  // bucket whose cumulative count reaches the rank.
  auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  if (rank == 0) rank = 1;
  std::uint64_t cum = 0;
  for (const auto& [bucket, n] : buckets_) {
    cum += n;
    if (cum >= rank) {
      const double mid = bucket_mid(bucket);
      return std::min(max_, std::max(min_, mid));
    }
  }
  return max_;  // unreachable: cum == count_ >= rank after the loop
}

double Summary::quantile(double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  return quantile_locked(q);
}

Summary::Snapshot Summary::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.count = count_;
  snap.sum = sum_;
  snap.min = count_ == 0 ? 0.0 : min_;
  snap.max = count_ == 0 ? 0.0 : max_;
  snap.p50 = quantile_locked(0.50);
  snap.p90 = quantile_locked(0.90);
  snap.p99 = quantile_locked(0.99);
  snap.p999 = quantile_locked(0.999);
  return snap;
}

std::uint64_t Summary::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

double Summary::sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

void Summary::merge_from(const Summary& other) {
  // Copy the source under its own lock, fold under ours — never both held,
  // so cross-merges cannot deadlock.
  std::map<std::int32_t, std::uint64_t> src_buckets;
  std::uint64_t src_count = 0;
  double src_sum = 0.0, src_min = 0.0, src_max = 0.0;
  {
    std::lock_guard<std::mutex> lock(other.mu_);
    src_buckets = other.buckets_;
    src_count = other.count_;
    src_sum = other.sum_;
    src_min = other.min_;
    src_max = other.max_;
  }
  if (src_count == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [bucket, n] : src_buckets) buckets_[bucket] += n;
  if (count_ == 0 || src_min < min_) min_ = src_min;
  if (count_ == 0 || src_max > max_) max_ = src_max;
  count_ += src_count;
  sum_ += src_sum;
}

std::string MetricsRegistry::render_key(const std::string& name,
                                        const Labels& labels) {
  if (labels.empty()) return name;
  std::string key = name + "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) key += ",";
    key += labels[i].first + "=" + labels[i].second;
  }
  key += "}";
  return key;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const Labels& labels) {
  const std::string key = render_key(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  return counters_[key];
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels) {
  const std::string key = render_key(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  return gauges_[key];
}

Summary& MetricsRegistry::summary(const std::string& name,
                                  const Labels& labels) {
  const std::string key = render_key(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  return summaries_[key];
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name,
                                             const Labels& labels) const {
  const std::string key = render_key(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(key);
  return it == counters_.end() ? 0 : it->second.value();
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [key, c] : counters_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(key) + "\":" + std::to_string(c.value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [key, g] : gauges_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(key) + "\":" + json_number(g.value());
  }
  out += "},\"summaries\":{";
  first = true;
  for (const auto& [key, s] : summaries_) {
    if (!first) out += ",";
    first = false;
    const Summary::Snapshot snap = s.snapshot();
    out += "\"" + json_escape(key) +
           "\":{\"count\":" + std::to_string(snap.count) +
           ",\"sum\":" + json_number(snap.sum) +
           ",\"min\":" + json_number(snap.min) +
           ",\"max\":" + json_number(snap.max) +
           ",\"p50\":" + json_number(snap.p50) +
           ",\"p90\":" + json_number(snap.p90) +
           ",\"p99\":" + json_number(snap.p99) +
           ",\"p999\":" + json_number(snap.p999) + "}";
  }
  out += "}}";
  return out;
}

MetricsRegistry& metrics() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace revelio::obs
