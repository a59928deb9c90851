// Certificate-chain verification cache.
//
// The attestation hot path re-validates the same ARK -> ASK -> VCEK chain
// (and the same TLS server chains) on every session; the chain itself only
// changes when a certificate is re-issued or the trust roots rotate. This
// cache memoizes *successful* verify_chain results, keyed by a fingerprint
// of the exact chain bytes, the trust-root set, and the DNS-name
// constraint. A hit is only served while `now_us` stays inside the
// validity-window intersection recorded at verification time, so a cached
// success can never outlive any certificate on the path.
//
// Failures are never cached: they can be time-dependent (expiry) and are
// not on the hot path. Any change to a certificate's bytes (including its
// validity window) or to the root set changes the key, which is what
// invalidates stale entries; capacity is a bounded LRU
// (common/lru_cache.hpp). Consumers (net::TlsTrustConfig,
// sevsnp::ReportVerifyOptions) hold a pointer to it.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/lru_cache.hpp"
#include "pki/cert.hpp"
#include "store/kv_store.hpp"

namespace revelio::pki {

/// Thread-safe: the gateway shares one cache across concurrent sessions.
class ChainVerificationCache {
 public:
  explicit ChainVerificationCache(std::size_t capacity = 64);

  /// Drop-in replacement for verify_chain (same arguments, same verdict
  /// semantics). Returns the cached verdict when the same (chain, roots,
  /// dns constraint) verified before and now_us is inside the recorded
  /// validity intersection; otherwise verifies and caches on success.
  /// The verify_chain work for a miss runs outside the cache lock (two
  /// misses of the same chain may race to verify — both succeed, one
  /// caches). Records a kCacheHit/kCacheMiss flight event (arg 2).
  Status verify(const Certificate& leaf,
                const std::vector<Certificate>& intermediates,
                const std::vector<Certificate>& roots,
                const ChainVerifyOptions& options);

  /// Durable tier behind this cache (attach_store): verified windows are
  /// written through under "chain/<fingerprint>" and consulted on an
  /// in-memory miss, so a restarted gateway skips re-verifying chains it
  /// proved in a previous run. Safe by construction: the fingerprint is
  /// recomputed from the *presented* chain bytes at lookup, so a persisted
  /// verdict can only ever apply to a byte-identical chain + root set +
  /// constraint, and the validity window is still enforced at query time.
  /// Store write failures degrade to memory-only (counted, never trusted).
  /// The store must be thread-safe and outlive the cache.
  void attach_store(store::KvStore* kv);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /// Entries dropped to make room (capacity LRU eviction).
    std::uint64_t evictions = 0;
    /// Lookups that matched a key but fell outside the cached validity
    /// window (entry expired, dropped, chain re-verified).
    std::uint64_t window_rejects = 0;
    /// In-memory misses served from the durable tier without re-verifying.
    std::uint64_t store_hits = 0;
    /// Durable write-throughs that failed (entry stays memory-only).
    std::uint64_t store_write_failures = 0;
  };
  /// Per-instance counters, each read atomically (not one snapshot, which
  /// only matters while updates are in flight). The same events are also
  /// reported process-wide through obs::metrics() as
  /// pki.chain_cache.{hit,miss,eviction,expiry}.count, aggregated across
  /// all caches.
  Stats stats() const;
  /// Entries currently cached.
  std::size_t size() const { return verdicts_.size(); }

 private:
  /// A cached verdict: the chain verified and stays valid in [from, until).
  struct Window {
    std::uint64_t valid_from_us = 0;   // max(not_before) over the chain
    std::uint64_t valid_until_us = 0;  // min(not_after) over the chain
  };

  /// Caches a verified window, counting an eviction if one made room.
  void insert(const crypto::Digest32& key, Window window);

  common::LruCache<crypto::Digest32, Window> verdicts_;
  std::atomic<store::KvStore*> store_{nullptr};

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> window_rejects_{0};
  std::atomic<std::uint64_t> store_hits_{0};
  std::atomic<std::uint64_t> store_write_failures_{0};
};

}  // namespace revelio::pki
