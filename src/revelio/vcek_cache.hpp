// Shared VCEK-chain cache: one KDS fetch per (chip id, TCB).
//
// Every attesting client needs the VCEK certificate chain for the
// (chip id, TCB) its server's report names, and the chain only changes on
// a firmware update — yet a gateway's concurrent sessions would otherwise
// each pay the full KDS round trip (or, worse, all of them at once on a
// cold cache: the thundering herd AMD's production KDS is documented to
// rate-limit). This cache gives the gateway one shared store:
//
//  - A bounded LRU (common/lru_cache.hpp) keyed by (chip id, TCB).
//  - One miss at a time: a miss takes the cache's miss mutex and holds it
//    across re-check, durable tier, fetch and insert, so concurrent misses
//    on the same key cost one KDS fetch and the callers that waited find
//    the entry. Fetch failures are never cached: a caller behind a failed
//    fetch runs its own. Retries belong inside the fetch function.
//
// Which session pays the fetch is not decided here. The session engine
// runs every session at its kds stage on one lane, in ready order (see
// SessionEngine::run_staged), so the same session fetches at any worker
// count.
//
// Metrics (process-wide via obs::metrics()): kds.fetch.count — real
// fetches executed (the acceptance signal for dedup: N concurrent cold
// sessions must leave this at 1); kds.fetch.hit.count — cache hits;
// kds.fetch.coalesced.count — callers that waited for another caller's
// miss and then found the entry instead of issuing their own fetch.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <utility>

#include "common/lru_cache.hpp"
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
  /// ignorant of transport, retries and failover. Runs under the miss
  /// mutex, so at most one runs at a time; it must not call back into
  /// get_or_fetch.
  using FetchFn = std::function<Result<KdsService::VcekResponse>()>;

  explicit VcekCache(std::size_t capacity = 64);

  /// Returns the cached chain for (chip, tcb), or executes `fetch` under the
  /// miss mutex and caches the response on success. Thread-safe; the
  /// dominant concurrent pattern (every session asking for the same chip)
  /// costs one fetch total. A throwing `fetch` releases the mutex, caches
  /// nothing and propagates; the next call fetches again.
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
    std::uint64_t hits = 0;       // served from the LRU without waiting
    std::uint64_t fetches = 0;    // FetchFn actually executed
    std::uint64_t coalesced = 0;  // waited for another miss, then hit
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
  /// Returns the cached chain for `key`, counting a hit or, when the
  /// caller waited for the miss mutex, a coalesced wait.
  std::optional<KdsService::VcekResponse> lookup(const Key& key,
                                                 bool waited);

  common::LruCache<Key, KdsService::VcekResponse> entries_;
  std::mutex miss_mu_;  // held across a miss: re-check, store, fetch, put
  std::atomic<store::KvStore*> store_{nullptr};

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> fetches_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> failures_{0};
  std::atomic<std::uint64_t> store_hits_{0};
  std::atomic<std::uint64_t> store_write_failures_{0};
};

}  // namespace revelio::core
