// Append-only, log-structured KV engine: the durable state tier behind the
// gateway's trust caches, the attestation audit chain, and the revocation
// set (ROADMAP item 1).
//
// On-disk layout (all through a StorageEnv):
//
//   MANIFEST        "RVKVMAN1" | u64be generation | u32be crc32c
//                   — written atomically; the generation is the commit
//                   point for compaction.
//   snap-<gen>      "RVKVSNP1" | u32be crc32c(body) | body
//                   body = u32be count | count * (u32be klen | key |
//                                                 u32be vlen | val)
//   wal-<gen>       sequence of frames:
//                   u32be len | u32be crc32c(payload) | payload
//                   payload = u8 op (1 put, 2 erase) | u32be klen | key |
//                             [u32be vlen | val]   (put only)
//
// Durability contract: `put`/`erase` return success only after the frame
// is appended AND the fsync barrier completed (sync_on_put, the default).
// An acked write therefore lives in the durable prefix of the WAL and
// survives any crash; an unacked write may be torn off the tail.
//
// Recovery (open):
//   - missing MANIFEST with data files present        -> store.manifest_mismatch
//   - MANIFEST magic/CRC mismatch                     -> store.manifest_mismatch
//   - snapshot CRC mismatch                           -> store.corrupt
//   - WAL: replay frames in order. On the first bad frame (short header,
//     short body, CRC or parse failure) scan the remaining bytes: if any
//     complete valid frame exists beyond it, the damage is *inside* the
//     log (bit rot, reordering) and the store fails closed with
//     store.corrupt; if not, the bad bytes are a torn tail from a crash —
//     truncate there and recover. This distinction is what lets the crash
//     matrix demand "reopen succeeds" for every kill point while a single
//     flipped byte mid-log still fails closed.
//   - files from other generations (a compaction that crashed before or
//     after its manifest commit) are deleted during recovery.
//
// Concurrency: one mutex around everything. The store sits behind LRU
// caches that already coalesce; the durable tier's cost is fsync, not
// lock contention.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "store/storage_env.hpp"

namespace revelio::store {

struct KvStoreOptions {
  bool sync_on_put = true;  // fsync barrier before acking each mutation
  // Compact when the live WAL outgrows this (0 = never automatically).
  uint64_t compact_threshold_bytes = 4ull << 20;
};

/// What recovery found while opening the store.
struct RecoveryInfo {
  uint64_t generation = 0;
  size_t snapshot_keys = 0;
  size_t wal_frames_replayed = 0;
  size_t wal_bytes_truncated = 0;  // torn tail dropped during replay
  bool truncated_tail = false;
  size_t stray_files_removed = 0;  // uncommitted compaction leftovers
};

class KvStore {
 public:
  struct Stats {
    uint64_t puts = 0;
    uint64_t erases = 0;
    uint64_t gets = 0;
    uint64_t hits = 0;
    uint64_t compactions = 0;
    uint64_t wal_bytes = 0;  // live WAL size
    uint64_t keys = 0;
  };

  /// Opens (or creates) the store in `env`. Fails closed on any sign of
  /// mid-log corruption or manifest damage — see the recovery rules above.
  static Result<std::unique_ptr<KvStore>> open(StorageEnv& env,
                                               KvStoreOptions opts = {});

  /// Durable upsert; success means the write survives a crash.
  Status put(ByteView key, ByteView value);
  /// Durable delete; success means the key stays dead across a crash.
  Status erase(ByteView key);

  std::optional<Bytes> get(ByteView key);
  /// Visits every live key with the given prefix in lexicographic order.
  /// The callback runs under the store lock: no store calls from inside.
  void for_each_prefix(ByteView prefix,
                       const std::function<void(ByteView key, ByteView value)>& fn);

  /// Writes a snapshot of the live table, switches to a fresh WAL under a
  /// bumped generation, and garbage-collects the old files.
  Status compact();
  /// Explicit durability barrier (only needed with sync_on_put = false).
  Status sync();

  const RecoveryInfo& recovery() const { return recovery_; }
  Stats stats();
  size_t size();

  // File-name helpers shared with tests and tools.
  static std::string wal_name(uint64_t gen);
  static std::string snap_name(uint64_t gen);
  static constexpr const char* kManifestName = "MANIFEST";
  static constexpr uint32_t kMaxFrameLen = 8u << 20;

 private:
  KvStore(StorageEnv& env, KvStoreOptions opts) : env_(env), opts_(opts) {}

  Status recover_locked();
  Status write_manifest_locked(uint64_t gen);
  Status append_frame_locked(ByteView payload);
  Status compact_locked();
  // Replays one WAL buffer into `table`; on a torn tail sets
  // `truncate_at`; on mid-log corruption returns store.corrupt.
  Status replay_wal_locked(ByteView wal, size_t& frames, size_t& truncate_at,
                           bool& truncated);

  StorageEnv& env_;
  KvStoreOptions opts_;
  std::mutex mu_;
  std::map<Bytes, Bytes> table_;
  std::unique_ptr<StorageFile> wal_;
  uint64_t generation_ = 0;
  bool wedged_ = false;  // a WAL write/sync failed: refuse further mutations
  RecoveryInfo recovery_;
  Stats stats_;
};

}  // namespace revelio::store
