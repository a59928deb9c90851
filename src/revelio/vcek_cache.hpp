// Shared VCEK-chain cache with single-flight KDS fetch coalescing.
//
// Every attesting client needs the VCEK certificate chain for the
// (chip id, TCB) its server's report names, and the chain only changes on
// a firmware update — yet a gateway's concurrent sessions would otherwise
// each pay the full KDS round trip (or, worse, all of them at once on a
// cold cache: the thundering herd AMD's production KDS is documented to
// rate-limit). This cache gives the gateway one shared store:
//
//  - A bounded LRU (common/lru_cache.hpp) keyed by (chip id, TCB).
//  - Single-flight misses: concurrent misses on the SAME key coalesce
//    into one KDS fetch (common/single_flight.hpp); the leader inserts
//    the response into the LRU before publishing, so followers and all
//    later callers hit. Fetch failures are never cached and are delivered
//    to every coalesced waiter; retries belong inside the fetch function.
//
// Metrics (process-wide via obs::metrics()): kds.fetch.count — real
// fetches executed (the acceptance signal for dedup: N concurrent cold
// sessions must leave this at 1); kds.fetch.hit.count — cache hits;
// kds.fetch.coalesced.count — callers that waited on another caller's
// fetch instead of issuing their own.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

#include "common/lru_cache.hpp"
#include "common/single_flight.hpp"
#include "revelio/evidence.hpp"
#include "store/kv_store.hpp"

namespace revelio::core {

/// Thread-safe VCEK store. Values are whole KdsService::VcekResponse
/// bundles (VCEK + ASK + ARK), copied out on every hit — the certificates
/// are small and a copy keeps hits lock-free for the caller.
class VcekCache {
 public:
  /// Cache key: (raw chip id bytes, encoded TCB version).
  using Key = std::pair<Bytes, std::uint64_t>;
  /// The actual KDS round trip, supplied by the caller so the cache stays
  /// ignorant of transport, retries and failover. Runs outside all cache
  /// locks; at most one instance per key runs at a time.
  using FetchFn = std::function<Result<KdsService::VcekResponse>()>;

  explicit VcekCache(std::size_t capacity = 64);

  /// Returns the cached chain for (chip, tcb), or executes `fetch` —
  /// coalescing with any concurrent fetch of the same key — and caches the
  /// response on success. Thread-safe; the dominant concurrent pattern
  /// (every session asking for the same chip) costs one fetch total.
  Result<KdsService::VcekResponse> get_or_fetch(const sevsnp::ChipId& chip,
                                                sevsnp::TcbVersion tcb,
                                                const FetchFn& fetch);

  /// Durable tier behind the LRU (attach_store): fetched chains are
  /// written through under "vcek/<chip><tcb>" and consulted before paying a
  /// KDS round trip, so a restarted gateway resolves known (chip, TCB)
  /// pairs with zero fetches. The persisted bytes carry no authority —
  /// every certificate loaded from the store is still chain-walked to the
  /// pinned ARK by the verify path, so a corrupted or malicious record can
  /// only cause a re-fetch or a verification failure, never silent trust.
  /// Each record embeds the (chip, TCB) identity it was fetched for and is
  /// rejected when that identity differs from the key it is looked up by —
  /// a chain-valid record surfacing under the wrong TCB (e.g. a pre-update
  /// chain after a fleet TCB update) parses as a miss, never a hit.
  /// Unparseable records are treated as a miss. The store must be
  /// thread-safe for the cache's callers and must outlive the cache.
  void attach_store(store::KvStore* kv);

  struct Stats {
    std::uint64_t hits = 0;       // served from the LRU without fetching
    std::uint64_t fetches = 0;    // FetchFn actually executed (leaders)
    std::uint64_t coalesced = 0;  // waited on another caller's fetch
    std::uint64_t failures = 0;   // get_or_fetch calls that returned error
    std::uint64_t store_hits = 0;  // served from the durable tier, no fetch
    std::uint64_t store_write_failures = 0;  // write-throughs that failed
    std::uint64_t evictions = 0;  // entries dropped to make room
  };
  /// Atomic counters; readable at any time from any thread.
  Stats stats() const;

  /// Entries currently cached.
  std::size_t size() const { return entries_.size(); }

 private:
  /// Returns the cached chain for `key`, counting a hit.
  std::optional<KdsService::VcekResponse> lookup(const Key& key);

  common::LruCache<Key, KdsService::VcekResponse> entries_;
  common::SingleFlight<Key, KdsService::VcekResponse> flights_;
  std::atomic<store::KvStore*> store_{nullptr};

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> fetches_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> failures_{0};
  std::atomic<std::uint64_t> store_hits_{0};
  std::atomic<std::uint64_t> store_write_failures_{0};
};

}  // namespace revelio::core
