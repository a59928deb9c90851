#include "pki/chain_cache.hpp"

#include <algorithm>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace revelio::pki {

namespace {

constexpr std::string_view kChainKeyPrefix = "chain/";
constexpr std::size_t kChainValueSize = 16;  // from_us || until_us, u64be
/// Flight-recorder cache id (see obs::FlightEventType).
constexpr std::uint16_t kFlightCacheId = 2;

Bytes chain_store_key(const crypto::Digest32& key) {
  Bytes k;
  k.reserve(kChainKeyPrefix.size() + crypto::Digest32::size());
  append(k, kChainKeyPrefix);
  append(k, key.view());
  return k;
}

crypto::Digest32 cache_key(const Certificate& leaf,
                           const std::vector<Certificate>& intermediates,
                           const std::vector<Certificate>& roots,
                           const ChainVerifyOptions& options) {
  // Hash the exact bytes of every certificate involved: a re-issued leaf
  // (new validity window, new signature) or a rotated root set produces a
  // different key, which is the invalidation mechanism.
  crypto::Sha256 h;
  auto add = [&h](const Certificate& cert) {
    const Bytes s = cert.serialize();
    Bytes len;
    append_u32be(len, static_cast<std::uint32_t>(s.size()));
    h.update(len);
    h.update(s);
  };
  add(leaf);
  Bytes counts;
  append_u32be(counts, static_cast<std::uint32_t>(intermediates.size()));
  append_u32be(counts, static_cast<std::uint32_t>(roots.size()));
  h.update(counts);
  for (const auto& cert : intermediates) add(cert);
  for (const auto& cert : roots) add(cert);
  if (options.dns_name) {
    h.update(to_bytes(std::string_view("dns:")));
    h.update(to_bytes(*options.dns_name));
  }
  return h.finish();
}

}  // namespace

ChainVerificationCache::ChainVerificationCache(std::size_t capacity)
    : verdicts_(capacity) {}

void ChainVerificationCache::attach_store(store::KvStore* kv) {
  store_.store(kv, std::memory_order_release);
}

Status ChainVerificationCache::verify(
    const Certificate& leaf, const std::vector<Certificate>& intermediates,
    const std::vector<Certificate>& roots, const ChainVerifyOptions& options) {
  const crypto::Digest32 key = cache_key(leaf, intermediates, roots, options);
  obs::Span span("pki.chain_verify");
  span.attr("chain_len",
            static_cast<std::uint64_t>(1 + intermediates.size()));

  if (const auto window = verdicts_.get(key)) {
    // Half-open window, matching verify_chain: a hit must not be served
    // at the instant the chain expires.
    if (options.now_us >= window->valid_from_us &&
        options.now_us < window->valid_until_us) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      static obs::Counter& hit_count =
          obs::metrics().counter("pki.chain_cache.hit.count");
      hit_count.inc();
      obs::flight_record(obs::FlightEventType::kCacheHit, kFlightCacheId);
      span.attr("cache", "hit");
      span.attr("result", "ok");
      return Status::success();
    }
    // Same chain, but the query time left the verified window: the cached
    // verdict no longer applies. A racing re-insert of this key carries
    // the same window (the key hashes the bytes that define it), so
    // erasing it too costs at most one extra miss.
    window_rejects_.fetch_add(1, std::memory_order_relaxed);
    obs::metrics().counter("pki.chain_cache.expiry.count").inc();
    span.attr("cache", "expired");
    verdicts_.erase(key);
  } else {
    span.attr("cache", "miss");
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  obs::metrics().counter("pki.chain_cache.miss.count").inc();

  // Durable tier: a previous run may have verified this exact chain. The
  // persisted record holds only the validity window — the verdict applies
  // because the fingerprint was recomputed from the bytes presented *now*,
  // and it is honored only while now_us stays inside that window. Anything
  // malformed is treated as a miss and re-verified (never trusted).
  store::KvStore* kv = store_.load(std::memory_order_acquire);
  if (kv != nullptr) {
    if (const auto stored = kv->get(chain_store_key(key));
        stored && stored->size() == kChainValueSize) {
      const Window window{read_u64be(*stored, 0), read_u64be(*stored, 8)};
      if (window.valid_from_us < window.valid_until_us &&
          options.now_us >= window.valid_from_us &&
          options.now_us < window.valid_until_us) {
        store_hits_.fetch_add(1, std::memory_order_relaxed);
        obs::metrics().counter("pki.chain_cache.store_hit.count").inc();
        obs::flight_record(obs::FlightEventType::kCacheHit, kFlightCacheId);
        insert(key, window);
        span.attr("cache", "store_hit");
        span.attr("result", "ok");
        return Status::success();
      }
    }
  }

  obs::flight_record(obs::FlightEventType::kCacheMiss, kFlightCacheId);
  const Status st = verify_chain(leaf, intermediates, roots, options);
  obs::metrics()
      .counter("pki.chain_verify.result.count",
               {{"result", st.ok() ? "ok" : st.error().code}})
      .inc();
  span.attr("result", st.ok() ? "ok" : st.error().code);
  if (!st.ok()) return st;  // failures are never cached

  // Conservative validity intersection over every certificate supplied,
  // not just the path verify_chain walked: a hit may only be served while
  // all of them remain valid.
  Window window{leaf.not_before_us, leaf.not_after_us};
  auto tighten = [&](const Certificate& cert) {
    window.valid_from_us = std::max(window.valid_from_us, cert.not_before_us);
    window.valid_until_us = std::min(window.valid_until_us, cert.not_after_us);
  };
  for (const auto& cert : intermediates) tighten(cert);
  for (const auto& cert : roots) tighten(cert);

  insert(key, window);
  if (kv != nullptr) {
    Bytes value;
    value.reserve(kChainValueSize);
    append_u64be(value, window.valid_from_us);
    append_u64be(value, window.valid_until_us);
    // Best effort: a failed write-through leaves the verdict memory-only
    // and the next restart re-verifies — slower, never less safe.
    if (!kv->put(chain_store_key(key), value).ok()) {
      store_write_failures_.fetch_add(1, std::memory_order_relaxed);
      obs::metrics().counter("pki.chain_cache.store_write_failure.count").inc();
    }
  }
  return st;
}

void ChainVerificationCache::insert(const crypto::Digest32& key,
                                    Window window) {
  if (verdicts_.put(key, window)) {
    obs::metrics().counter("pki.chain_cache.eviction.count").inc();
  }
}

ChainVerificationCache::Stats ChainVerificationCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = verdicts_.stats().evictions;
  s.window_rejects = window_rejects_.load(std::memory_order_relaxed);
  s.store_hits = store_hits_.load(std::memory_order_relaxed);
  s.store_write_failures =
      store_write_failures_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace revelio::pki
