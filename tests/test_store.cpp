// Durable state tier (PR 9): the append-only KV engine under every fault
// the seeded storage backend can produce, plus the consumers wired on top
// of it — the durable audit chain, the revocation set, and the
// warm-restart read-through of the VCEK / chain-verification caches.
//
// The centerpiece is the crash matrix: every single byte offset of a
// scripted workload becomes a kill point, and after recovery the store
// must hold exactly what it acked — zero lost acked writes, zero
// resurrected deleted keys — or refuse to open at all. The same matrix
// runs with the duplicate-tail fault armed. A post-recovery gateway soak
// then proves the trust decisions stay fail-closed on top of a recovered
// store: revocations survive, tampered frames are caught, and the
// persisted audit chain re-verifies end to end.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "imagebuild/builder.hpp"
#include "obs/audit_store.hpp"
#include "pki/ca.hpp"
#include "pki/chain_cache.hpp"
#include "revelio/revelio_vm.hpp"
#include "revelio/revocation.hpp"
#include "revelio/sp_node.hpp"
#include "revelio/vcek_cache.hpp"
#include "revelio/web_extension.hpp"
#include "store/crc32c.hpp"
#include "store/kv_store.hpp"
#include "store/storage_env.hpp"

namespace revelio {
namespace {

using store::FaultPlan;
using store::KvStore;
using store::KvStoreOptions;
using store::MemStorageEnv;

Bytes B(std::string_view s) { return to_bytes(s); }

std::unique_ptr<KvStore> must_open(MemStorageEnv& env,
                                   KvStoreOptions opts = {}) {
  auto kv = KvStore::open(env, opts);
  EXPECT_TRUE(kv.ok()) << (kv.ok() ? "" : kv.error().to_string());
  return kv.ok() ? std::move(*kv) : nullptr;
}

// ------------------------------------------------------------ KV basics

TEST(KvStore, PutGetEraseSurviveReopen) {
  MemStorageEnv env;
  {
    auto kv = must_open(env);
    ASSERT_TRUE(kv);
    ASSERT_TRUE(kv->put(B("alpha"), B("1")).ok());
    ASSERT_TRUE(kv->put(B("beta"), B("2")).ok());
    ASSERT_TRUE(kv->put(B("alpha"), B("3")).ok());  // overwrite
    ASSERT_TRUE(kv->erase(B("beta")).ok());
    EXPECT_EQ(kv->size(), 1u);
    ASSERT_TRUE(kv->get(B("alpha")).has_value());
    EXPECT_EQ(*kv->get(B("alpha")), B("3"));
    EXPECT_FALSE(kv->get(B("beta")).has_value());
  }
  // Reopen replays the WAL: same state, no truncation, no corruption.
  auto kv = must_open(env);
  ASSERT_TRUE(kv);
  EXPECT_EQ(kv->size(), 1u);
  EXPECT_EQ(*kv->get(B("alpha")), B("3"));
  EXPECT_FALSE(kv->recovery().truncated_tail);
  EXPECT_EQ(kv->recovery().wal_frames_replayed, 4u);
}

TEST(KvStore, ForEachPrefixVisitsInLexicographicOrder) {
  MemStorageEnv env;
  auto kv = must_open(env);
  ASSERT_TRUE(kv);
  ASSERT_TRUE(kv->put(B("a/2"), B("x")).ok());
  ASSERT_TRUE(kv->put(B("a/1"), B("y")).ok());
  ASSERT_TRUE(kv->put(B("b/1"), B("z")).ok());
  std::vector<std::string> seen;
  kv->for_each_prefix(B("a/"), [&](ByteView key, ByteView) {
    seen.push_back(to_string(key));
  });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "a/1");
  EXPECT_EQ(seen[1], "a/2");
}

TEST(KvStore, CompactionPreservesStateAndCollectsGarbage) {
  MemStorageEnv env;
  auto kv = must_open(env);
  ASSERT_TRUE(kv);
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(kv->put(B("key" + std::to_string(i % 4)),
                        B("v" + std::to_string(i)))
                    .ok());
  }
  ASSERT_TRUE(kv->erase(B("key3")).ok());
  const uint64_t gen_before = kv->recovery().generation;
  ASSERT_TRUE(kv->compact().ok());
  EXPECT_EQ(kv->stats().compactions, 1u);
  EXPECT_EQ(kv->size(), 3u);
  EXPECT_EQ(*kv->get(B("key0")), B("v28"));

  // Old generation's files are gone, the new snapshot + empty WAL exist.
  EXPECT_FALSE(env.exists(KvStore::wal_name(gen_before)));
  kv.reset();
  auto re = must_open(env);
  ASSERT_TRUE(re);
  EXPECT_EQ(re->recovery().generation, gen_before + 1);
  EXPECT_EQ(re->recovery().snapshot_keys, 3u);
  EXPECT_EQ(*re->get(B("key2")), B("v30"));
  EXPECT_FALSE(re->get(B("key3")).has_value());
}

TEST(KvStore, AutoCompactionKicksInAtThreshold) {
  MemStorageEnv env;
  KvStoreOptions opts;
  opts.compact_threshold_bytes = 256;
  auto kv = must_open(env, opts);
  ASSERT_TRUE(kv);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(kv->put(B("hot"), B(std::string(24, 'x'))).ok());
  }
  EXPECT_GE(kv->stats().compactions, 1u);
  EXPECT_EQ(kv->size(), 1u);
  // The live WAL stayed bounded instead of growing with every overwrite.
  EXPECT_LT(kv->stats().wal_bytes, 256u + 64u);
}

// ----------------------------------------------------- fault injection

TEST(KvStore, TransientAppendFailureIsRetryableAndDoesNotWedge) {
  MemStorageEnv env;
  auto kv = must_open(env);
  ASSERT_TRUE(kv);
  FaultPlan plan;
  plan.fail_appends = 2;
  env.set_fault_plan(plan);

  const Status first = kv->put(B("k"), B("v"));
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.error().code, "store.io_transient");
  EXPECT_TRUE(first.error().is_transient()) << "retry must be allowed";
  const Status second = kv->put(B("k"), B("v"));
  ASSERT_FALSE(second.ok());

  // Third attempt: the fault budget is spent, the store never wedged.
  ASSERT_TRUE(kv->put(B("k"), B("v")).ok());
  EXPECT_EQ(*kv->get(B("k")), B("v"));
}

TEST(KvStore, CrashWedgesStoreUntilReopen) {
  MemStorageEnv env;
  auto kv = must_open(env);
  ASSERT_TRUE(kv);
  ASSERT_TRUE(kv->put(B("durable"), B("yes")).ok());

  FaultPlan plan;
  plan.crash_at_bytes =
      static_cast<int64_t>(env.bytes_appended()) + 5;  // mid-frame
  env.set_fault_plan(plan);
  const Status torn = kv->put(B("torn"), B("write"));
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.error().code, "store.io_crashed");
  EXPECT_FALSE(torn.error().is_transient());

  // Every further mutation is refused: the WAL tail state is unknown.
  EXPECT_FALSE(kv->put(B("x"), B("y")).ok());
  EXPECT_FALSE(kv->erase(B("durable")).ok());

  kv.reset();
  env.crash_and_recover();
  // The torn bytes were never synced, so the reboot discards them: the
  // durable WAL ends cleanly at the last acked frame. (A *durable* torn
  // tail — a partial write that reached the platter — is produced by the
  // duplicate-tail fault and the flip matrix below.)
  auto re = must_open(env);
  ASSERT_TRUE(re);
  EXPECT_EQ(*re->get(B("durable")), B("yes"));
  EXPECT_FALSE(re->get(B("torn")).has_value()) << "unacked write gone";
}

TEST(KvStore, DropSyncCrashLosesTailButRecoversConsistently) {
  MemStorageEnv env;
  auto kv = must_open(env);
  ASSERT_TRUE(kv);
  ASSERT_TRUE(kv->put(B("before"), B("fault")).ok());

  FaultPlan plan;
  plan.drop_sync = true;  // the device lies about every barrier from here
  env.set_fault_plan(plan);
  ASSERT_TRUE(kv->put(B("lied"), B("1")).ok());
  ASSERT_TRUE(kv->erase(B("before")).ok());

  kv.reset();
  env.crash_and_recover();
  // The betrayed acks are gone — that is the fault model, not a store bug.
  // What the store must still guarantee: recovery succeeds and lands on a
  // consistent prefix of the acked history.
  auto re = must_open(env);
  ASSERT_TRUE(re);
  EXPECT_EQ(*re->get(B("before")), B("fault"));
  EXPECT_FALSE(re->get(B("lied")).has_value());
}

// -------------------------------------------------- fail-closed opens

TEST(KvStore, MissingManifestWithDataFilesFailsClosed) {
  MemStorageEnv env;
  {
    auto kv = must_open(env);
    ASSERT_TRUE(kv);
    ASSERT_TRUE(kv->put(B("k"), B("v")).ok());
  }
  ASSERT_TRUE(env.remove_file(KvStore::kManifestName).ok());
  auto reopened = KvStore::open(env);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.error().code, "store.manifest_mismatch");
}

TEST(KvStore, EveryManifestByteFlipFailsClosed) {
  // The manifest is exactly 20 bytes; a flip anywhere (magic, generation,
  // CRC) must refuse the open — never point at the wrong generation.
  for (size_t pos = 0; pos < 20; ++pos) {
    MemStorageEnv env;
    {
      auto kv = must_open(env);
      ASSERT_TRUE(kv);
      ASSERT_TRUE(kv->put(B("k"), B("v")).ok());
    }
    ASSERT_TRUE(env.corrupt_durable_byte(KvStore::kManifestName, pos));
    auto reopened = KvStore::open(env);
    ASSERT_FALSE(reopened.ok()) << "manifest flip at " << pos;
    EXPECT_EQ(reopened.error().code, "store.manifest_mismatch")
        << "manifest flip at " << pos;
  }
}

TEST(KvStore, EverySnapshotByteFlipFailsClosed) {
  MemStorageEnv env;
  uint64_t gen = 0;
  {
    auto kv = must_open(env);
    ASSERT_TRUE(kv);
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(
          kv->put(B("key" + std::to_string(i)), B("value")).ok());
    }
    ASSERT_TRUE(kv->compact().ok());
    // compact() bumps the on-disk generation past what open() recorded.
    gen = kv->recovery().generation + 1;
  }
  ASSERT_TRUE(env.exists(KvStore::snap_name(gen)));
  const auto snap = env.read_file(KvStore::snap_name(gen));
  ASSERT_TRUE(snap.ok());
  for (size_t pos = 0; pos < snap->size(); ++pos) {
    MemStorageEnv trial;
    {
      auto kv = must_open(trial);
      ASSERT_TRUE(kv);
      for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(
            kv->put(B("key" + std::to_string(i)), B("value")).ok());
      }
      ASSERT_TRUE(kv->compact().ok());
    }
    ASSERT_TRUE(trial.corrupt_durable_byte(KvStore::snap_name(gen), pos));
    auto reopened = KvStore::open(trial);
    ASSERT_FALSE(reopened.ok()) << "snapshot flip at " << pos;
    EXPECT_EQ(reopened.error().code, "store.corrupt")
        << "snapshot flip at " << pos;
  }
}

TEST(KvStore, MidLogByteFlipFailsClosedTailFlipRecoversPrefix) {
  // Build a reference WAL once to learn its layout.
  const auto build = [](MemStorageEnv& env) {
    auto kv = must_open(env);
    ASSERT_TRUE(kv);
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(kv->put(B("key" + std::to_string(i)),
                          B("value" + std::to_string(i)))
                      .ok());
    }
  };
  MemStorageEnv ref;
  build(ref);
  const auto wal = ref.read_file(KvStore::wal_name(1));
  ASSERT_TRUE(wal.ok());
  // Each frame: 8-byte header + payload(op + klen + key + vlen + val).
  const size_t frame = 8 + 1 + 4 + 4 + 4 + 6;
  ASSERT_EQ(wal->size(), 6 * frame);
  const size_t last_frame_start = wal->size() - frame;

  for (size_t pos = 0; pos < wal->size(); ++pos) {
    MemStorageEnv trial;
    build(trial);
    ASSERT_TRUE(trial.corrupt_durable_byte(KvStore::wal_name(1), pos));
    auto reopened = KvStore::open(trial);
    if (pos < last_frame_start) {
      // Interior damage: intact frames exist beyond it, so this is bit
      // rot / tampering, never a torn tail. Fail closed.
      ASSERT_FALSE(reopened.ok()) << "WAL flip at " << pos;
      EXPECT_EQ(reopened.error().code, "store.corrupt")
          << "WAL flip at " << pos;
    } else {
      // Damage to the final frame is indistinguishable from a crash torn
      // write; the store recovers the verified prefix (5 intact writes)
      // and drops only the damaged tail. CRC guarantees it can never
      // serve a damaged value.
      ASSERT_TRUE(reopened.ok()) << "tail flip at " << pos << ": "
                                 << reopened.error().to_string();
      EXPECT_TRUE((*reopened)->recovery().truncated_tail);
      EXPECT_EQ((*reopened)->size(), 5u);
      EXPECT_EQ(*(*reopened)->get(B("key4")), B("value4"));
    }
  }
}

// -------------------------------------------------------- crash matrix

/// The scripted workload for the crash matrix: interleaved puts,
/// overwrites and erases over a small key set. Returns how many ops were
/// acked before the crash point fired; `model` tracks the acked state.
size_t run_workload(KvStore& kv, std::map<Bytes, Bytes>& model) {
  size_t acked = 0;
  for (int i = 0; i < 12; ++i) {
    const Bytes key = B("k" + std::to_string(i % 4));
    if (i % 5 == 3) {
      if (kv.erase(key).ok()) {
        model.erase(key);
        ++acked;
      } else {
        return acked;
      }
    } else {
      const Bytes value = B("v" + std::to_string(i));
      if (kv.put(key, value).ok()) {
        model[key] = value;
        ++acked;
      } else {
        return acked;
      }
    }
  }
  return acked;
}

/// One matrix cell: kill the world after `kill_at` appended bytes, then
/// recover and demand exactly the acked state back.
void run_crash_cell(int64_t kill_at, bool duplicate_tail) {
  MemStorageEnv env;
  FaultPlan plan;
  plan.crash_at_bytes = kill_at;
  plan.duplicate_tail = duplicate_tail;
  env.set_fault_plan(plan);

  std::map<Bytes, Bytes> model;
  size_t acked = 0;
  {
    auto kv = KvStore::open(env);
    if (!kv.ok()) {
      // The kill point fired during open (manifest/WAL creation): nothing
      // was ever acked, so an empty store after reboot is correct.
      ASSERT_EQ(kv.error().code, "store.io_crashed")
          << kv.error().to_string();
    } else {
      acked = run_workload(**kv, model);
    }
  }

  env.crash_and_recover();
  auto revived = KvStore::open(env);
  ASSERT_TRUE(revived.ok()) << "kill@" << kill_at
                            << (duplicate_tail ? "+dup" : "") << ": "
                            << revived.error().to_string();

  // Zero lost acked writes, zero resurrected deleted keys, nothing extra.
  EXPECT_EQ((*revived)->size(), model.size())
      << "kill@" << kill_at << " acked=" << acked;
  for (const auto& [key, value] : model) {
    const auto got = (*revived)->get(key);
    ASSERT_TRUE(got.has_value())
        << "kill@" << kill_at << ": lost acked key " << to_string(key);
    EXPECT_EQ(*got, value) << "kill@" << kill_at;
  }
  for (int i = 0; i < 4; ++i) {
    const Bytes key = B("k" + std::to_string(i));
    if (model.count(key) == 0) {
      EXPECT_FALSE((*revived)->get(key).has_value())
          << "kill@" << kill_at << ": resurrected " << to_string(key);
    }
  }
}

TEST(KvStoreCrashMatrix, EveryByteOffsetKillPointLosesNothingAcked) {
  // Size the matrix: run the workload once with no faults and count bytes.
  MemStorageEnv sizing;
  std::map<Bytes, Bytes> model;
  {
    auto kv = must_open(sizing);
    ASSERT_TRUE(kv);
    ASSERT_EQ(run_workload(*kv, model), 12u);
  }
  const int64_t total = static_cast<int64_t>(sizing.bytes_appended());
  ASSERT_GT(total, 0);

  // Every byte offset, 0..total inclusive: kills inside the manifest
  // write, inside every WAL frame header, every payload byte, and at
  // every frame boundary.
  for (int64_t kill = 0; kill <= total; ++kill) {
    run_crash_cell(kill, /*duplicate_tail=*/false);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "matrix stopped at kill point " << kill;
    }
  }
}

TEST(KvStoreCrashMatrix, DuplicateTailReplayIsIdempotent) {
  MemStorageEnv sizing;
  std::map<Bytes, Bytes> model;
  {
    auto kv = must_open(sizing);
    ASSERT_TRUE(kv);
    ASSERT_EQ(run_workload(*kv, model), 12u);
  }
  const int64_t total = static_cast<int64_t>(sizing.bytes_appended());
  for (int64_t kill = 0; kill <= total; ++kill) {
    run_crash_cell(kill, /*duplicate_tail=*/true);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "dup-tail matrix stopped at kill point " << kill;
    }
  }
}

// --------------------------------------------------- revocation tier

TEST(RevocationSet, PersistsAcrossReopen) {
  MemStorageEnv env;
  sevsnp::Measurement m = sevsnp::Measurement::from(Bytes(48, 0xaa));
  sevsnp::ChipId chip = sevsnp::ChipId::from(Bytes(64, 0xbb));
  crypto::Digest32 vcek_fp = crypto::sha256(B("some-vcek-der"));
  {
    auto kv = must_open(env);
    ASSERT_TRUE(kv);
    auto set = RevocationSet::open(*kv);
    ASSERT_TRUE(set.ok());
    ASSERT_TRUE((*set)->revoke_measurement(m, "CVE").ok());
    ASSERT_TRUE((*set)->revoke_chip(chip, "leaked").ok());
    ASSERT_TRUE((*set)->revoke_vcek(vcek_fp, "amd-crl").ok());
    EXPECT_EQ((*set)->size(), 3u);
  }
  env.crash_and_recover();  // revocations must survive a hard reboot
  auto kv = must_open(env);
  ASSERT_TRUE(kv);
  auto set = RevocationSet::open(*kv);
  ASSERT_TRUE(set.ok()) << set.error().to_string();
  EXPECT_EQ((*set)->size(), 3u);
  EXPECT_TRUE((*set)->is_measurement_revoked(m));
  EXPECT_TRUE((*set)->is_chip_revoked(chip));
  EXPECT_TRUE((*set)->is_vcek_revoked(vcek_fp));
  EXPECT_FALSE((*set)->is_measurement_revoked(
      sevsnp::Measurement::from(Bytes(48, 0x01))));
}

TEST(RevocationSet, MalformedPersistedEntryFailsClosed) {
  MemStorageEnv env;
  auto kv = must_open(env);
  ASSERT_TRUE(kv);
  // An entry with a bogus kind (or a wrong-length id) must refuse the
  // open: silently skipping it could drop a real revocation.
  ASSERT_TRUE(kv->put(B("revoked/x/short"), B("why")).ok());
  auto set = RevocationSet::open(*kv);
  ASSERT_FALSE(set.ok());
  EXPECT_EQ(set.error().code, "revocation.corrupt");
}

// ------------------------------------------------- durable audit chain

obs::AuditRecord soak_record(std::uint64_t i, bool accepted) {
  obs::AuditRecord rec;
  rec.session = i;
  rec.virt_us = 1000 * i;
  rec.accepted = accepted;
  rec.checks = accepted ? 0x3f : 0x07;
  rec.failure_step = accepted ? "" : "report_sig";
  rec.measurement.data.fill(static_cast<std::uint8_t>(i + 1));
  rec.vcek_chain.data.fill(static_cast<std::uint8_t>(i + 2));
  rec.tcb = 0x0200080073ull;
  rec.evidence_digest.data.fill(static_cast<std::uint8_t>(i + 3));
  return rec;
}

TEST(DurableAudit, AppendThroughPersistsAndReopenReverifies) {
  MemStorageEnv env;
  crypto::Digest32 head{};
  {
    auto kv = must_open(env);
    ASSERT_TRUE(kv);
    auto durable = obs::open_durable_audit(*kv, /*checkpoint_interval=*/4);
    ASSERT_TRUE(durable.ok()) << durable.error().to_string();
    EXPECT_EQ(durable->restored_records, 0u);
    for (std::uint64_t i = 0; i < 10; ++i) {
      durable->log->append(soak_record(i, i % 4 != 0));
    }
    EXPECT_EQ(durable->log->sink_failures(), 0u);
    head = durable->log->head();
  }
  env.crash_and_recover();
  auto kv = must_open(env);
  ASSERT_TRUE(kv);
  auto revived = obs::open_durable_audit(*kv, /*checkpoint_interval=*/4);
  ASSERT_TRUE(revived.ok()) << revived.error().to_string();
  EXPECT_EQ(revived->restored_records, 10u);
  EXPECT_EQ(revived->restored_checkpoints, 2u);
  EXPECT_FALSE(revived->reconciled_torn_frame);
  EXPECT_EQ(revived->log->head(), head);

  // The chain keeps extending seamlessly and still verifies end to end.
  revived->log->append(soak_record(10, true));
  const auto verdict = obs::AuditLog::verify(revived->log->serialize());
  ASSERT_TRUE(verdict.ok()) << verdict.error().to_string();
  EXPECT_EQ(verdict->records, 11u);

  // And the offline path reads the same chain straight from the store.
  auto stream = obs::load_audit_stream(*kv);
  ASSERT_TRUE(stream.ok()) << stream.error().to_string();
  ASSERT_TRUE(obs::AuditLog::verify(*stream).ok());
}

TEST(DurableAudit, SingleFlippedPersistedByteFailsClosed) {
  MemStorageEnv env;
  auto kv = must_open(env);
  ASSERT_TRUE(kv);
  {
    auto durable = obs::open_durable_audit(*kv, /*checkpoint_interval=*/4);
    ASSERT_TRUE(durable.ok());
    for (std::uint64_t i = 0; i < 6; ++i) {
      durable->log->append(soak_record(i, true));
    }
  }
  // Tamper with one persisted frame through the KV layer itself (the
  // store's CRCs cannot see this — only the hash chain can).
  char buf[32];
  std::snprintf(buf, sizeof(buf), "audit/f/%016" PRIx64, std::uint64_t{2});
  auto frame = kv->get(B(buf));
  ASSERT_TRUE(frame.has_value());
  Bytes tampered = *frame;
  tampered[tampered.size() / 2] ^= 0x01;
  ASSERT_TRUE(kv->put(B(buf), tampered).ok());

  auto reopened = obs::open_durable_audit(*kv, /*checkpoint_interval=*/4);
  ASSERT_FALSE(reopened.ok()) << "tampered chain must not open";
  EXPECT_EQ(reopened.error().code, "audit.tamper");
  auto stream = obs::load_audit_stream(*kv);
  ASSERT_FALSE(stream.ok());
}

TEST(DurableAudit, TornFinalFrameIsReconciledInteriorGapIsNot) {
  MemStorageEnv env;
  auto kv = must_open(env);
  ASSERT_TRUE(kv);
  std::uint64_t frames = 0;
  {
    auto durable = obs::open_durable_audit(*kv, /*checkpoint_interval=*/4);
    ASSERT_TRUE(durable.ok());
    for (std::uint64_t i = 0; i < 5; ++i) {
      durable->log->append(soak_record(i, true));
    }
    frames = durable->log->records() + durable->log->checkpoints();
  }
  // Simulate the crash window between "frame persisted" and "head
  // persisted": add a frame whose head never landed. The reopen must drop
  // exactly that frame and resume from the verified prefix.
  const Bytes body = soak_record(99, true).serialize();
  Bytes frame_value;
  append_u8(frame_value, 0x01);  // record frame type
  append(frame_value, body);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "audit/f/%016" PRIx64, frames);
  ASSERT_TRUE(kv->put(B(buf), frame_value).ok());

  auto revived = obs::open_durable_audit(*kv, /*checkpoint_interval=*/4);
  ASSERT_TRUE(revived.ok()) << revived.error().to_string();
  EXPECT_TRUE(revived->reconciled_torn_frame);
  EXPECT_EQ(revived->restored_records, 5u);

  // An interior gap (a frame missing mid-sequence) is damage, not a torn
  // tail: fail closed.
  MemStorageEnv env2;
  auto kv2 = must_open(env2);
  ASSERT_TRUE(kv2);
  {
    auto durable = obs::open_durable_audit(*kv2, /*checkpoint_interval=*/4);
    ASSERT_TRUE(durable.ok());
    for (std::uint64_t i = 0; i < 5; ++i) {
      durable->log->append(soak_record(i, true));
    }
  }
  std::snprintf(buf, sizeof(buf), "audit/f/%016" PRIx64, std::uint64_t{1});
  ASSERT_TRUE(kv2->erase(B(buf)).ok());
  auto broken = obs::open_durable_audit(*kv2, /*checkpoint_interval=*/4);
  ASSERT_FALSE(broken.ok());
}

TEST(DurableAudit, CheckpointIntervalMismatchFailsClosed) {
  MemStorageEnv env;
  auto kv = must_open(env);
  ASSERT_TRUE(kv);
  {
    auto durable = obs::open_durable_audit(*kv, /*checkpoint_interval=*/4);
    ASSERT_TRUE(durable.ok());
    durable->log->append(soak_record(0, true));
  }
  auto mismatched = obs::open_durable_audit(*kv, /*checkpoint_interval=*/8);
  ASSERT_FALSE(mismatched.ok());
}

// --------------------------------------- cache warm-restart read-through

TEST(VcekCachePersistence, WarmRestartServesChainsWithZeroFetches) {
  crypto::HmacDrbg drbg(B("vcek-persist"));
  auto ca = pki::CertificateAuthority::create_root(
      crypto::p384(), {"AMD-ARK", "TX", "US"}, 0,
      365ull * 24 * 3600 * 1000 * 1000, drbg);
  const auto key = crypto::ec_generate(crypto::p256(), drbg);
  auto make_cert = [&](const std::string& cn) {
    return ca.issue_for_key("P-256", key.public_encoded(crypto::p256()),
                            {cn, "TX", "US"}, {}, 0,
                            365ull * 24 * 3600 * 1000 * 1000);
  };
  core::KdsService::VcekResponse response{make_cert("VCEK"), make_cert("ASK"),
                                    make_cert("ARK")};
  const sevsnp::ChipId chip = sevsnp::ChipId::from(Bytes(64, 0x42));
  const sevsnp::TcbVersion tcb{2, 0, 8, 115};

  MemStorageEnv env;
  {
    auto kv = must_open(env);
    ASSERT_TRUE(kv);
    core::VcekCache cache(32);
    cache.attach_store(kv.get());
    int fetches = 0;
    auto fetched = cache.get_or_fetch(chip, tcb, [&] {
      ++fetches;
      return Result<core::KdsService::VcekResponse>(response);
    });
    ASSERT_TRUE(fetched.ok());
    EXPECT_EQ(fetches, 1);
    EXPECT_EQ(cache.stats().fetches, 1u);
    EXPECT_EQ(cache.stats().store_hits, 0u);
  }

  // Restart: new process, new cache, same disk. The KDS must not be hit.
  env.crash_and_recover();
  auto kv = must_open(env);
  ASSERT_TRUE(kv);
  core::VcekCache warm(32);
  warm.attach_store(kv.get());
  auto served = warm.get_or_fetch(chip, tcb, [&]() {
    ADD_FAILURE() << "warm restart must not refetch";
    return Result<core::KdsService::VcekResponse>(
        Error::make("kds.error", "unexpected fetch"));
  });
  ASSERT_TRUE(served.ok()) << served.error().to_string();
  EXPECT_EQ(warm.stats().fetches, 0u);
  EXPECT_EQ(warm.stats().store_hits, 1u);
  EXPECT_EQ(served->vcek.serialize(), response.vcek.serialize());
  EXPECT_EQ(served->ark.serialize(), response.ark.serialize());

  // A corrupted persisted record is a miss, never trusted: the fetch
  // function runs again and repairs the entry.
  Bytes store_key = B("vcek/");
  append(store_key, chip.view());
  append_u64be(store_key, tcb.encode());
  ASSERT_TRUE(kv->put(store_key, B("garbage")).ok());
  core::VcekCache repaired(32);
  repaired.attach_store(kv.get());
  int refetches = 0;
  auto again = repaired.get_or_fetch(chip, tcb, [&] {
    ++refetches;
    return Result<core::KdsService::VcekResponse>(response);
  });
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(refetches, 1);
  EXPECT_EQ(repaired.stats().store_hits, 0u);
}

TEST(ChainCachePersistence, WarmRestartSkipsReverification) {
  crypto::HmacDrbg drbg(B("chain-persist"));
  const std::uint64_t year = 365ull * 24 * 3600 * 1000 * 1000;
  auto ca = pki::CertificateAuthority::create_root(
      crypto::p384(), {"Root", "TX", "US"}, 0, year, drbg);
  const auto key = crypto::ec_generate(crypto::p256(), drbg);
  const auto leaf =
      ca.issue_for_key("P-256", key.public_encoded(crypto::p256()),
                       {"leaf.example", "TX", "US"}, {"leaf.example"}, 0,
                       year);
  const std::vector<pki::Certificate> inters;
  const std::vector<pki::Certificate> roots{ca.certificate()};
  pki::ChainVerifyOptions options;
  options.now_us = year / 2;
  options.dns_name = "leaf.example";

  MemStorageEnv env;
  {
    auto kv = must_open(env);
    ASSERT_TRUE(kv);
    pki::ChainVerificationCache cache(64);
    cache.attach_store(kv.get());
    ASSERT_TRUE(cache.verify(leaf, inters, roots, options).ok());
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().store_hits, 0u);
  }

  env.crash_and_recover();
  auto kv = must_open(env);
  ASSERT_TRUE(kv);
  pki::ChainVerificationCache warm(64);
  warm.attach_store(kv.get());
  // Same chain bytes: served from the persisted verdict (store_hit).
  ASSERT_TRUE(warm.verify(leaf, inters, roots, options).ok());
  EXPECT_EQ(warm.stats().store_hits, 1u);
  // Second call: now an ordinary in-memory hit.
  ASSERT_TRUE(warm.verify(leaf, inters, roots, options).ok());
  EXPECT_EQ(warm.stats().hits, 1u);

  // Outside the persisted validity window the verdict is NOT honored.
  pki::ChainVerifyOptions expired = options;
  expired.now_us = 2 * year;
  pki::ChainVerificationCache strict(64);
  strict.attach_store(kv.get());
  EXPECT_FALSE(strict.verify(leaf, inters, roots, expired).ok());
  EXPECT_EQ(strict.stats().store_hits, 0u);

  // An attacker swapping chain bytes gets a different fingerprint — the
  // persisted verdict cannot be replayed for a different chain.
  const auto other =
      ca.issue_for_key("P-256", key.public_encoded(crypto::p256()),
                       {"other.example", "TX", "US"}, {"other.example"}, 0,
                       year);
  pki::ChainVerifyOptions other_opts = options;
  other_opts.dns_name = "other.example";
  pki::ChainVerificationCache fresh(64);
  fresh.attach_store(kv.get());
  ASSERT_TRUE(fresh.verify(other, inters, roots, other_opts).ok());
  EXPECT_EQ(fresh.stats().store_hits, 0u) << "different chain, real verify";
}

// -------------------------------------------- post-recovery gateway soak

struct SoakFixture : ::testing::Test {
  SoakFixture()
      : network(clock),
        drbg(B("store-soak")),
        kds(drbg),
        kds_service(kds, network, {"kds.amd.com", 443}),
        acme(clock, drbg) {
    imagebuild::BaseImage base;
    base.name = "ubuntu";
    base.tag = "20.04";
    base.packages = {{"nginx", "1.18",
                      {{"/usr/sbin/nginx", B("nginx-binary")}}}};
    base_digest = registry.publish(base);
    image = build_image("app-v1");
    expected = vm::Hypervisor::expected_measurement(
        image.kernel_blob, image.initrd_blob, image.cmdline);
  }

  imagebuild::VmImage build_image(const std::string& app) {
    imagebuild::BuildInputs inputs;
    inputs.base_image_digest = base_digest;
    inputs.service_files["/opt/service/app"] = B(app);
    inputs.initrd.services = {{"app", "/opt/service/app", 50.0}};
    inputs.initrd.allowed_inbound_ports = {"443", "8443"};
    imagebuild::ImageBuilder builder(registry);
    return *builder.build(inputs);
  }

  std::unique_ptr<core::RevelioVm> deploy_node(
      const std::string& host, const imagebuild::VmImage& img) {
    auto platform = std::make_unique<sevsnp::AmdSp>(
        to_bytes("platform-" + host), sevsnp::TcbVersion{2, 0, 8, 115});
    kds.register_platform(*platform);
    core::RevelioVmConfig config;
    config.domain = kDomain;
    config.host = host;
    config.image = img;
    config.kds_address = {"kds.amd.com", 443};
    net::HttpRouter routes;
    routes.route("GET", "/", [](const net::HttpRequest&) {
      return net::HttpResponse::ok(B("app"));
    });
    auto node = core::RevelioVm::deploy(*platform, network, config,
                                        std::move(routes));
    EXPECT_TRUE(node.ok());
    platforms.push_back(std::move(platform));
    return std::move(*node);
  }

  static constexpr const char* kDomain = "svc.revelio.app";
  SimClock clock;
  net::Network network;
  crypto::HmacDrbg drbg;
  sevsnp::KeyDistributionServer kds;
  core::KdsService kds_service;
  pki::AcmeIssuer acme;
  imagebuild::PackageRegistry registry;
  crypto::Digest32 base_digest;
  imagebuild::VmImage image;
  sevsnp::Measurement expected;
  std::vector<std::unique_ptr<sevsnp::AmdSp>> platforms;
};

TEST_F(SoakFixture, GatewayStaysFailClosedAfterCrashRecovery) {
  auto node = deploy_node("10.0.0.1", image);
  core::SpNodeConfig sp_config;
  sp_config.domain = kDomain;
  sp_config.kds_address = {"kds.amd.com", 443};
  sp_config.expected_measurements = {expected};
  core::SpNode sp(network, acme, sp_config);
  sp.approve_node(node->bootstrap_address(), platforms[0]->chip_id());
  ASSERT_TRUE(sp.provision_fleet().ok());
  network.dns_set_a(kDomain, "10.0.0.1");

  MemStorageEnv env;
  sevsnp::Measurement bad_measurement =
      sevsnp::Measurement::from(Bytes(48, 0x66));

  // ---- life before the crash: durable gateway state accumulates.
  {
    auto kv = must_open(env);
    ASSERT_TRUE(kv);
    auto durable = obs::open_durable_audit(*kv, /*checkpoint_interval=*/4);
    ASSERT_TRUE(durable.ok());
    auto revocations = RevocationSet::open(*kv);
    ASSERT_TRUE(revocations.ok());
    ASSERT_TRUE(
        (*revocations)->revoke_measurement(bad_measurement, "CVE").ok());

    core::Browser browser(network, "laptop", acme.trusted_roots(),
                          crypto::HmacDrbg(B("user")));
    core::WebExtensionConfig config;
    config.kds_address = {"kds.amd.com", 443};
    config.audit_log = durable->log.get();
    config.revocation_set = revocations->get();
    core::WebExtension extension(browser, config);
    core::SiteRegistration site;
    site.expected_measurements = {expected};
    extension.register_site(kDomain, site);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(extension.get(kDomain, 443, "/").ok());
      browser.drop_session(kDomain);
    }
    EXPECT_EQ(durable->log->sink_failures(), 0u);
  }

  // ---- the machine dies.
  env.crash_and_recover();

  // ---- reboot: everything reopens from disk and re-verifies.
  auto kv = must_open(env);
  ASSERT_TRUE(kv);
  auto durable = obs::open_durable_audit(*kv, /*checkpoint_interval=*/4);
  ASSERT_TRUE(durable.ok()) << durable.error().to_string();
  EXPECT_EQ(durable->restored_records, 3u);
  auto revocations = RevocationSet::open(*kv);
  ASSERT_TRUE(revocations.ok());
  EXPECT_TRUE((*revocations)->is_measurement_revoked(bad_measurement));

  core::Browser browser(network, "laptop2", acme.trusted_roots(),
                        crypto::HmacDrbg(B("user2")));
  core::WebExtensionConfig config;
  config.kds_address = {"kds.amd.com", 443};
  config.audit_log = durable->log.get();
  config.revocation_set = revocations->get();
  core::WebExtension extension(browser, config);

  // The genuine node still attests (no unverified acceptance, no spurious
  // rejection after recovery).
  core::SiteRegistration site;
  site.expected_measurements = {expected};
  extension.register_site(kDomain, site);
  auto ok_result = extension.get(kDomain, 443, "/");
  ASSERT_TRUE(ok_result.ok()) << ok_result.error().to_string();
  EXPECT_TRUE(ok_result->checks.all_ok());

  // The recovered revocation set still kills trust: revoke the live
  // node's measurement and the same server is refused.
  ASSERT_TRUE((*revocations)->revoke_measurement(expected, "post-boot").ok());
  browser.drop_session(kDomain);
  auto refused = extension.get(kDomain, 443, "/");
  ASSERT_FALSE(refused.ok()) << "revoked measurement accepted post-recovery";
  EXPECT_EQ(refused.error().code, "extension.attestation_failed");

  // Every verdict above (pre-crash accepts, post-recovery accept and
  // reject) lives in one continuous chain that re-verifies end to end —
  // both from the live log and straight from the store.
  const auto verdict = obs::AuditLog::verify(durable->log->serialize());
  ASSERT_TRUE(verdict.ok()) << verdict.error().to_string();
  EXPECT_EQ(verdict->records, 5u);
  EXPECT_EQ(verdict->accepted, 4u);
  EXPECT_EQ(verdict->rejected, 1u);
  auto stream = obs::load_audit_stream(*kv);
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(obs::AuditLog::verify(*stream).ok());
}

}  // namespace
}  // namespace revelio
