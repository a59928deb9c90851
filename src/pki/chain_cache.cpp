#include "pki/chain_cache.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace revelio::pki {

namespace {

constexpr std::string_view kChainKeyPrefix = "chain/";
constexpr std::size_t kChainValueSize = 16;  // from_us || until_us, u64be

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

ChainVerificationCache::ChainVerificationCache(std::size_t shards,
                                               std::size_t capacity_per_shard)
    : capacity_per_shard_(capacity_per_shard) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void ChainVerificationCache::attach_store(store::KvStore* kv) {
  store_.store(kv, std::memory_order_release);
}

std::size_t ChainVerificationCache::shard_index(
    const crypto::Digest32& key) const {
  std::uint64_t prefix = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    prefix = (prefix << 8) | key[i];
  }
  return static_cast<std::size_t>(prefix % shards_.size());
}

Status ChainVerificationCache::verify(
    const Certificate& leaf, const std::vector<Certificate>& intermediates,
    const std::vector<Certificate>& roots, const ChainVerifyOptions& options) {
  const crypto::Digest32 key = cache_key(leaf, intermediates, roots, options);
  Shard& shard = *shards_[shard_index(key)];
  obs::Span span("pki.chain_verify");
  span.attr("chain_len",
            static_cast<std::uint64_t>(1 + intermediates.size()));

  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      // Half-open window, matching verify_chain: a hit must not be served
      // at the instant the chain expires.
      if (options.now_us >= it->second.valid_from_us &&
          options.now_us < it->second.valid_until_us) {
        ++shard.stats.hits;
        obs::metrics().counter("pki.chain_cache.hit.count").inc();
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
        span.attr("cache", "hit");
        span.attr("result", "ok");
        return Status::success();
      }
      // Same chain, but the query time left the verified window: the
      // cached verdict no longer applies.
      ++shard.stats.window_rejects;
      obs::metrics().counter("pki.chain_cache.expiry.count").inc();
      span.attr("cache", "expired");
      shard.lru.erase(it->second.lru_it);
      shard.entries.erase(it);
    } else {
      span.attr("cache", "miss");
    }
    ++shard.stats.misses;
    obs::metrics().counter("pki.chain_cache.miss.count").inc();
  }

  // Durable tier: a previous run may have verified this exact chain. The
  // persisted record holds only the validity window — the verdict applies
  // because the fingerprint was recomputed from the bytes presented *now*,
  // and it is honored only while now_us stays inside that window. Anything
  // malformed is treated as a miss and re-verified (never trusted).
  store::KvStore* kv = store_.load(std::memory_order_acquire);
  if (kv != nullptr) {
    if (const auto stored = kv->get(chain_store_key(key));
        stored && stored->size() == kChainValueSize) {
      const std::uint64_t from = read_u64be(*stored, 0);
      const std::uint64_t until = read_u64be(*stored, 8);
      if (from < until && options.now_us >= from && options.now_us < until) {
        std::lock_guard<std::mutex> lock(shard.mu);
        ++shard.stats.store_hits;
        obs::metrics().counter("pki.chain_cache.store_hit.count").inc();
        insert_locked(shard, key, from, until);
        span.attr("cache", "store_hit");
        span.attr("result", "ok");
        return Status::success();
      }
    }
  }

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
  std::uint64_t from = leaf.not_before_us;
  std::uint64_t until = leaf.not_after_us;
  auto tighten = [&](const Certificate& cert) {
    from = std::max(from, cert.not_before_us);
    until = std::min(until, cert.not_after_us);
  };
  for (const auto& cert : intermediates) tighten(cert);
  for (const auto& cert : roots) tighten(cert);

  std::lock_guard<std::mutex> lock(shard.mu);
  insert_locked(shard, key, from, until);
  if (kv != nullptr) {
    Bytes value;
    value.reserve(kChainValueSize);
    append_u64be(value, from);
    append_u64be(value, until);
    // Best effort: a failed write-through leaves the verdict memory-only
    // and the next restart re-verifies — slower, never less safe.
    if (!kv->put(chain_store_key(key), value).ok()) {
      ++shard.stats.store_write_failures;
      obs::metrics().counter("pki.chain_cache.store_write_failure.count").inc();
    }
  }
  return st;
}

void ChainVerificationCache::insert_locked(Shard& shard,
                                           const crypto::Digest32& key,
                                           std::uint64_t from,
                                           std::uint64_t until) {
  if (capacity_per_shard_ == 0 || shard.entries.count(key) != 0) return;
  if (shard.entries.size() >= capacity_per_shard_) {
    shard.entries.erase(shard.lru.back());
    shard.lru.pop_back();
    ++shard.stats.evictions;
    obs::metrics().counter("pki.chain_cache.eviction.count").inc();
  }
  shard.lru.push_front(key);
  shard.entries[key] = Entry{from, until, shard.lru.begin()};
}

ChainVerificationCache::Stats ChainVerificationCache::stats() const {
  Stats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total.hits += shard->stats.hits;
    total.misses += shard->stats.misses;
    total.evictions += shard->stats.evictions;
    total.window_rejects += shard->stats.window_rejects;
    total.store_hits += shard->stats.store_hits;
    total.store_write_failures += shard->stats.store_write_failures;
  }
  return total;
}

std::size_t ChainVerificationCache::size() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) total += shard_size(i);
  return total;
}

std::size_t ChainVerificationCache::shard_size(std::size_t i) const {
  std::lock_guard<std::mutex> lock(shards_[i]->mu);
  return shards_[i]->entries.size();
}

void ChainVerificationCache::clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->entries.clear();
    shard->lru.clear();
  }
}

}  // namespace revelio::pki
