#include "revelio/vcek_cache.hpp"

#include <algorithm>
#include <optional>

#include "obs/metrics.hpp"

namespace revelio::core {

namespace {

constexpr std::string_view kVcekKeyPrefix = "vcek/";

Bytes vcek_store_key(const VcekCache::Key& key) {
  Bytes k;
  k.reserve(kVcekKeyPrefix.size() + key.first.size() + 8);
  append(k, kVcekKeyPrefix);
  append(k, key.first);
  append_u64be(k, key.second);
  return k;
}

// Durable record: the (chip, TCB) identity the chain was fetched for,
// echoed ahead of three u32be-length-prefixed certificate serializations
// (vcek, ask, ark). Exact-parse — trailing bytes make the record invalid.
//
// The echo is what binds a record to its key. A VCEK cert subject names
// only the chip, not the TCB, so without the echo a record copied (or
// mis-written) under another (chip, TCB) key — say the pre-update chain
// surfacing under the post-update key — would parse cleanly and serve a
// stale VCEK as if it were fresh. parse_response rejects any record whose
// embedded identity differs from the key it was looked up by; the
// mismatch is treated as a miss and repaired by a real KDS fetch.
Bytes serialize_response(const VcekCache::Key& key,
                         const KdsService::VcekResponse& response) {
  Bytes out;
  append(out, key.first);
  append_u64be(out, key.second);
  for (const pki::Certificate* cert :
       {&response.vcek, &response.ask, &response.ark}) {
    const Bytes s = cert->serialize();
    append_u32be(out, static_cast<std::uint32_t>(s.size()));
    append(out, s);
  }
  return out;
}

std::optional<KdsService::VcekResponse> parse_response(
    const VcekCache::Key& key, ByteView data) {
  if (data.size() < key.first.size() + 8) return std::nullopt;
  if (!std::equal(key.first.begin(), key.first.end(), data.begin())) {
    return std::nullopt;  // record bound to a different chip
  }
  if (read_u64be(data, key.first.size()) != key.second) {
    return std::nullopt;  // record bound to a different TCB version
  }
  data = data.subspan(key.first.size() + 8);
  KdsService::VcekResponse response;
  for (pki::Certificate* cert : {&response.vcek, &response.ask,
                                 &response.ark}) {
    if (data.size() < 4) return std::nullopt;
    const std::uint32_t len = read_u32be(data, 0);
    data = data.subspan(4);
    if (data.size() < len) return std::nullopt;
    auto parsed = pki::Certificate::parse(data.subspan(0, len));
    if (!parsed.ok()) return std::nullopt;
    *cert = std::move(*parsed);
    data = data.subspan(len);
  }
  if (!data.empty()) return std::nullopt;
  return response;
}

}  // namespace

VcekCache::VcekCache(std::size_t capacity) : entries_(capacity) {}

std::optional<KdsService::VcekResponse> VcekCache::lookup(const Key& key,
                                                          bool waited) {
  auto cached = entries_.get(key);
  if (cached && waited) {
    static obs::Counter& coalesced_count =
        obs::metrics().counter("kds.fetch.coalesced.count");
    coalesced_.fetch_add(1, std::memory_order_relaxed);
    coalesced_count.inc();
  } else if (cached) {
    static obs::Counter& hit_count =
        obs::metrics().counter("kds.fetch.hit.count");
    hits_.fetch_add(1, std::memory_order_relaxed);
    hit_count.inc();
  }
  return cached;
}

void VcekCache::attach_store(store::KvStore* kv) {
  store_.store(kv, std::memory_order_release);
}

Result<KdsService::VcekResponse> VcekCache::get_or_fetch(
    const sevsnp::ChipId& chip, sevsnp::TcbVersion tcb, const FetchFn& fetch) {
  const Key key = std::make_pair(chip.bytes(), tcb.encode());
  if (auto cached = lookup(key, /*waited=*/false)) return std::move(*cached);

  // The miss path. A caller that finds the mutex taken waits for the miss
  // ahead of it; if that miss filled our key, the wait was the fetch.
  std::unique_lock<std::mutex> lock(miss_mu_, std::try_to_lock);
  const bool waited = !lock.owns_lock();
  if (waited) lock.lock();
  if (auto refilled = lookup(key, waited)) return std::move(*refilled);

  // Durable tier before the network: a chain persisted by a previous
  // run serves this miss with zero KDS traffic. Anything that fails to
  // parse is a plain miss — the KDS round trip repairs it.
  store::KvStore* kv = store_.load(std::memory_order_acquire);
  if (kv != nullptr) {
    if (const auto stored = kv->get(vcek_store_key(key))) {
      if (auto parsed = parse_response(key, *stored)) {
        store_hits_.fetch_add(1, std::memory_order_relaxed);
        obs::metrics().counter("kds.fetch.store_hit.count").inc();
        entries_.put(key, *parsed);
        return std::move(*parsed);
      }
    }
  }

  fetches_.fetch_add(1, std::memory_order_relaxed);
  obs::metrics().counter("kds.fetch.count").inc();
  Result<KdsService::VcekResponse> fetched = fetch();
  if (!fetched.ok()) {  // failures are never cached
    failures_.fetch_add(1, std::memory_order_relaxed);
    return fetched;
  }
  // Insert before releasing the mutex: a caller waiting on it finds the
  // entry.
  entries_.put(key, *fetched);
  if (kv != nullptr) {
    // Best effort: a failed write-through costs a re-fetch after the
    // next restart, nothing else.
    if (!kv->put(vcek_store_key(key), serialize_response(key, *fetched))
             .ok()) {
      store_write_failures_.fetch_add(1, std::memory_order_relaxed);
      obs::metrics().counter("kds.fetch.store_write_failure.count").inc();
    }
  }
  return fetched;
}

VcekCache::Stats VcekCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.fetches = fetches_.load(std::memory_order_relaxed);
  s.coalesced = coalesced_.load(std::memory_order_relaxed);
  s.failures = failures_.load(std::memory_order_relaxed);
  s.store_hits = store_hits_.load(std::memory_order_relaxed);
  s.store_write_failures =
      store_write_failures_.load(std::memory_order_relaxed);
  s.evictions = entries_.stats().evictions;
  return s;
}

}  // namespace revelio::core
