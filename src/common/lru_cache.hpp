// Bounded least-recently-used cache: the one LRU in the tree.
//
// Every long-lived memo that sessions share — certificate-chain verdicts
// (pki/chain_cache.hpp), VCEK chains (revelio/vcek_cache.hpp) and per-key
// ECDSA verify tables (crypto/ec_precomp.hpp) — is this cache under a
// different key and value. One mutex guards one list + map: a get splices
// the entry to the front, a put of a new key evicts from the back once the
// cache is full. Values are returned by copy, so the caller never holds a
// reference into the cache after the lock drops (use a shared_ptr value
// when the copy would be expensive).
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <utility>

namespace revelio::common {

/// Thread-safe: every method takes the one mutex. Key needs operator<;
/// Value must be copyable. Capacity 0 caches nothing.
template <typename Key, typename Value>
class LruCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;       // get() found the key
    std::uint64_t misses = 0;     // get() did not
    std::uint64_t evictions = 0;  // entries dropped to make room
  };

  explicit LruCache(std::size_t capacity) : capacity_(capacity) {}

  /// A copy of the value cached under `key`, which becomes the most
  /// recently used entry; nullopt on a miss.
  std::optional<Value> get(const Key& key) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
      ++stats_.misses;
      return std::nullopt;
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return it->second.value;
  }

  /// Caches `value` under `key` as the most recently used entry, evicting
  /// the least recently used one if the cache is full. A key already
  /// present keeps its value and is only refreshed. Returns true iff an
  /// entry was evicted.
  bool put(const Key& key, Value value) {
    std::lock_guard<std::mutex> lock(mu_);
    if (capacity_ == 0) return false;
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return false;
    }
    const bool evict = entries_.size() >= capacity_;
    if (evict) {
      entries_.erase(lru_.back());
      lru_.pop_back();
      ++stats_.evictions;
    }
    lru_.push_front(key);
    entries_.emplace(key, Entry{std::move(value), lru_.begin()});
    return evict;
  }

  /// Drops `key` if cached (not counted as an eviction).
  void erase(const Key& key) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) return;
    lru_.erase(it->second.lru_it);
    entries_.erase(it);
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  struct Entry {
    Value value;
    typename std::list<Key>::iterator lru_it;
  };

  mutable std::mutex mu_;
  const std::size_t capacity_;
  std::list<Key> lru_;  // front = most recently used
  std::map<Key, Entry> entries_;
  Stats stats_;
};

}  // namespace revelio::common
