// Gateway load bench: the blocking lane model vs the event-driven staged
// engine (revelio/session_engine.hpp), plus parked-session scale levels.
//
// Five families of levels, all over the same 64 identically-seeded world
// replicas (KDS + attested VM + SP + browser; identical seeds make the
// AMD certificates byte-identical, so worlds share the engine's VCEK and
// chain caches):
//
//  - "blocking":  every session is ONE run_staged stage (the blocking
//    WebExtension::get, handshake to verified page) at 1 and 4 workers. A
//    session holds its lane for its whole virtual duration, so the
//    makespan is the heaviest lane's sum (session i on lane i % workers) —
//    the baseline the staged engine beats.
//  - "staged":    the same 64 full-crypto sessions (fresh TLS handshake,
//    staged attestation, verified page fetch) as state machines on the
//    virtual-time event loop. Waits overlap in virtual time, so the
//    makespan collapses to roughly the slowest single session even at
//    one worker.
//  - "synthetic": 1k/10k/100k-session scale levels with deterministic
//    synthetic stage durations and a width-512 KDS admission gate. This
//    is where parked-population memory (bytes/parked session, flat by
//    construction) and same-seed bit-identical transcripts are measured:
//    the 1k and 100k levels run twice and must reproduce their digests.
//  - "chaos":     1000 full-crypto sessions over 32 lossy worlds (drop +
//    delay fault plan, retries on) with a width-8 KDS gate. The gate that
//    matters: zero unverified-trust acceptances while thousands of wakes
//    interleave.
//  - "staged_batch" (PR 8): the staged levels re-run with the engine's
//    batched verify stage on — whole wavefronts of verify-ready sessions
//    go to ecdsa_verify_batch in one pool task. The staged and
//    staged_batch pairs each run on their own fresh identically-seeded
//    world sets so their transcript digests are comparable; the
//    one-worker pair must match bit for bit (batch_digest_match), and
//    the real verify-stage time ratio is exported as
//    batch_verify_speedup.
//
// Virtual-clock numbers are deterministic and gated by run_benches.sh
// against bench/BENCH_gateway.baseline.json. Real elapsed time is
// reported and not gated, with one exception: batch_verify_speedup, a
// ratio of real verify-stage times, must reach 1.5x.
//
// PR 7 additions: a "recorder" level re-runs the largest quick-safe
// synthetic level with every session carrying a flight-recorder ring
// (virtual-time overhead ratio gated at <= 1.05), per-stage
// wait-vs-service quantile rows are exported per staged level, and the
// chaos level appends every verdict to a tamper-evident audit chain
// written to --audit-out for tools/audit_verify to replay offline.
//
// PR 9 additions: "restart_cold" / "restart_warm" levels measure the
// durable state tier (src/store) across a full gateway restart. Unlike
// every other level, these run over 16 worlds with PER-INDEX seeds —
// distinct AMD chips — so the cold phase pays one KDS round trip per
// world. The engine's VCEK and chain caches are attached to a KV store,
// the audit chain is persisted append-through, and the revocation set is
// store-backed. Between the phases everything in memory is destroyed
// (engine, caches, audit log, worlds) and rebuilt from the same seeds
// over the reopened store: the warm phase must serve every session with
// ZERO KDS fetches, and the audit chain must re-verify its persisted
// history before accepting a single new record. `--store-dir` points the
// tier at real files (must be a fresh/empty directory) so that
// run_benches.sh can replay the persisted chain offline with
// tools/audit_verify --store; without it the deterministic in-memory
// backend is used.
//
// Every level drives the shared gateway harness (bench/gateway_world.hpp),
// the same worlds and stage driver the gateway tests run.
//
//   bench_gateway [--out BENCH_gateway.json]
//                 [--audit-out AUDIT_gateway.bin]
//                 [--store-dir DIR] [--quick]
//
// --help prints that usage and exits 0; an unknown argument, or an option
// missing its value, prints it and exits 2 without running anything.
#include <algorithm>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "gateway_world.hpp"
#include "obs/audit_log.hpp"
#include "obs/audit_store.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "revelio/revocation.hpp"
#include "revelio/session_engine.hpp"
#include "store/kv_store.hpp"
#include "store/storage_env.hpp"

namespace {

using namespace revelio;

using gateway::GatewayWorld;
using Sessions = gateway::GatewaySessions<GatewayWorld>;
using Worlds = std::span<const std::unique_ptr<GatewayWorld>>;

constexpr std::size_t kWorlds = 64;
constexpr std::size_t kFullSessions = 64;
constexpr std::size_t kChaosWorlds = 32;
constexpr std::size_t kChaosSessions = 1000;
constexpr unsigned kScaleWorkers = 8;
constexpr std::size_t kRestartWorlds = 16;

// ---------------------------------------------------------------------------
// Level result + JSON

/// One bench level, normalized across the blocking and staged engines so
/// run_benches.sh gates every mode with the same keys. Staged-only fields
/// stay zero for blocking levels.
struct Level {
  std::string mode;  // "blocking" | "staged" | "synthetic" | "chaos"
  unsigned workers = 0;
  std::size_t sessions = 0;
  std::size_t succeeded = 0;
  std::size_t failed = 0;
  std::size_t shed = 0;
  int unverified_accepts = 0;
  std::uint64_t kds_fetch_count_delta = 0;
  double virt_makespan_ms = 0.0;
  double sessions_per_virtual_sec = 0.0;
  double virt_p50_ms = 0.0;
  double virt_p95_ms = 0.0;
  double virt_p99_ms = 0.0;
  double wait_virt_ms = 0.0;
  double real_elapsed_ms = 0.0;
  double sessions_per_real_sec = 0.0;
  std::size_t peak_parked = 0;
  double parked_per_worker = 0.0;
  std::size_t peak_inflight_kds = 0;
  std::size_t peak_queue_depth = 0;
  double wake_p99_ms = 0.0;
  std::size_t engine_bytes = 0;
  double bytes_per_parked_session = 0.0;
  std::string transcript_digest;
  std::uint64_t batch_calls = 0;
  std::size_t max_stage_batch = 0;
  bool determinism_checked = false;
  bool deterministic = false;
  pki::ChainVerificationCache::Stats chain_stats;
  core::VcekCache::Stats vcek_stats;
  /// Per-stage wait-vs-service attribution (staged levels only).
  std::vector<core::SessionEngine::StagedReport::StageBreakdown> stages;
  std::size_t anomaly_dumps = 0;
  std::size_t recorder_bytes = 0;
};

void fill_from(Level& level, const core::SessionEngine::StagedReport& r) {
  level.sessions = r.sessions;
  level.succeeded = r.succeeded;
  level.failed = r.failed;
  level.shed = r.shed;
  level.virt_makespan_ms = r.virt_makespan_ms;
  level.sessions_per_virtual_sec = r.sessions_per_virtual_sec;
  level.virt_p50_ms = r.virt_p50_ms;
  level.virt_p95_ms = r.virt_p95_ms;
  level.virt_p99_ms = r.virt_p99_ms;
  level.wait_virt_ms = r.wait_virt_ms;
  level.real_elapsed_ms = r.real_elapsed_ms;
  level.sessions_per_real_sec = r.sessions_per_real_sec;
  level.peak_parked = r.peak_parked;
  level.parked_per_worker = r.parked_per_worker;
  level.peak_inflight_kds = r.peak_inflight_kds;
  level.peak_queue_depth = r.peak_queue_depth;
  level.wake_p99_ms = r.wake_p99_ms;
  level.engine_bytes = r.engine_bytes;
  level.bytes_per_parked_session = r.bytes_per_parked_session;
  level.transcript_digest = r.transcript_digest;
  level.batch_calls = r.batch_calls;
  level.max_stage_batch = r.max_stage_batch;
  level.chain_stats = r.chain_stats;
  level.vcek_stats = r.vcek_stats;
  level.stages = r.stage_breakdown;
  level.anomaly_dumps = r.anomaly_dumps.size();
  level.recorder_bytes = r.recorder_bytes;
}

std::string level_json(const Level& level) {
  std::string out =
      "{\"mode\":\"" + level.mode + "\"" +
      ",\"workers\":" + std::to_string(level.workers) +
      ",\"sessions\":" + std::to_string(level.sessions) +
      ",\"succeeded\":" + std::to_string(level.succeeded) +
      ",\"failed\":" + std::to_string(level.failed) +
      ",\"shed\":" + std::to_string(level.shed) +
      ",\"unverified_accepts\":" + std::to_string(level.unverified_accepts) +
      ",\"kds_fetch_count_delta\":" +
      std::to_string(level.kds_fetch_count_delta) +
      ",\"virt_makespan_ms\":" + obs::json_number(level.virt_makespan_ms) +
      ",\"sessions_per_virtual_sec\":" +
      obs::json_number(level.sessions_per_virtual_sec) +
      ",\"virt_p50_ms\":" + obs::json_number(level.virt_p50_ms) +
      ",\"virt_p95_ms\":" + obs::json_number(level.virt_p95_ms) +
      ",\"virt_p99_ms\":" + obs::json_number(level.virt_p99_ms) +
      ",\"wait_virt_ms\":" + obs::json_number(level.wait_virt_ms) +
      ",\"real_elapsed_ms\":" + obs::json_number(level.real_elapsed_ms) +
      ",\"sessions_per_real_sec\":" +
      obs::json_number(level.sessions_per_real_sec) +
      ",\"peak_parked\":" + std::to_string(level.peak_parked) +
      ",\"parked_per_worker\":" + obs::json_number(level.parked_per_worker) +
      ",\"peak_inflight_kds\":" + std::to_string(level.peak_inflight_kds) +
      ",\"peak_queue_depth\":" + std::to_string(level.peak_queue_depth) +
      ",\"wake_p99_ms\":" + obs::json_number(level.wake_p99_ms) +
      ",\"engine_bytes\":" + std::to_string(level.engine_bytes) +
      ",\"bytes_per_parked_session\":" +
      obs::json_number(level.bytes_per_parked_session) +
      ",\"transcript_digest\":\"" + level.transcript_digest + "\"" +
      ",\"batch_calls\":" + std::to_string(level.batch_calls) +
      ",\"max_stage_batch\":" + std::to_string(level.max_stage_batch);
  if (level.determinism_checked) {
    out += std::string(",\"deterministic\":") +
           (level.deterministic ? "true" : "false");
  }
  out += ",\"chain\":{\"hits\":" + std::to_string(level.chain_stats.hits) +
         ",\"misses\":" + std::to_string(level.chain_stats.misses) +
         ",\"evictions\":" + std::to_string(level.chain_stats.evictions) +
         ",\"window_rejects\":" +
         std::to_string(level.chain_stats.window_rejects) +
         ",\"store_hits\":" + std::to_string(level.chain_stats.store_hits) +
         ",\"store_write_failures\":" +
         std::to_string(level.chain_stats.store_write_failures) + "}";
  out += ",\"vcek\":{\"hits\":" + std::to_string(level.vcek_stats.hits) +
         ",\"fetches\":" + std::to_string(level.vcek_stats.fetches) +
         ",\"coalesced\":" + std::to_string(level.vcek_stats.coalesced) +
         ",\"failures\":" + std::to_string(level.vcek_stats.failures) +
         ",\"store_hits\":" + std::to_string(level.vcek_stats.store_hits) +
         ",\"store_write_failures\":" +
         std::to_string(level.vcek_stats.store_write_failures) +
         ",\"evictions\":" + std::to_string(level.vcek_stats.evictions) + "}";
  // Per-stage tail attribution: where a session's virtual time goes, split
  // into I/O wait vs service, with log-bucket p50/p99 per stage. This is
  // what run_benches.sh gates stage tails against.
  out += ",\"stages\":[";
  for (std::size_t i = 0; i < level.stages.size(); ++i) {
    const auto& row = level.stages[i];
    if (i > 0) out += ",";
    out += std::string("{\"stage\":\"") + core::to_string(row.stage) +
           "\",\"count\":" + std::to_string(row.count) +
           ",\"wait_p50_ms\":" + obs::json_number(row.wait_p50_ms) +
           ",\"wait_p99_ms\":" + obs::json_number(row.wait_p99_ms) +
           ",\"service_p50_ms\":" + obs::json_number(row.service_p50_ms) +
           ",\"service_p99_ms\":" + obs::json_number(row.service_p99_ms) +
           ",\"wait_total_ms\":" + obs::json_number(row.wait_total_ms) +
           ",\"service_total_ms\":" + obs::json_number(row.service_total_ms) +
           ",\"real_p50_ms\":" + obs::json_number(row.real_p50_ms) +
           ",\"real_p99_ms\":" + obs::json_number(row.real_p99_ms) +
           ",\"real_total_ms\":" + obs::json_number(row.real_total_ms) +
           ",\"batched\":" + std::to_string(row.batched) + "}";
  }
  out += "]";
  out += ",\"anomaly_dumps\":" + std::to_string(level.anomaly_dumps) +
         ",\"recorder_bytes\":" + std::to_string(level.recorder_bytes);
  out += "}";
  return out;
}

void print_level(const Level& level) {
  std::printf("%-9s %3uw %7zu  %5zu/%-6zu %12.1f %12.1f %9zu %10.1f\n",
              level.mode.c_str(), level.workers, level.sessions,
              level.succeeded, level.sessions, level.virt_makespan_ms,
              level.sessions_per_virtual_sec, level.peak_parked,
              level.bytes_per_parked_session);
}

// ---------------------------------------------------------------------------
// Blocking levels (the thread-per-session lane model)

Level run_blocking(Worlds worlds, unsigned workers) {
  core::SessionEngineConfig config;
  config.workers = workers;
  core::SessionEngine engine(config);
  const std::uint64_t kds_before =
      obs::metrics().counter_value("kds.fetch.count");

  Level level;
  level.mode = "blocking";
  level.workers = workers;
  core::WebExtensionConfig ext_config;
  ext_config.kds_address = {gateway::kKdsPrimary, 443};
  Sessions sessions(worlds, kFullSessions, ext_config);
  const auto report = sessions.run_blocking(engine);
  level.sessions = report.sessions;
  level.succeeded = report.succeeded;
  level.failed = report.failed;
  level.virt_p50_ms = report.virt_p50_ms;
  level.virt_p95_ms = report.virt_p95_ms;
  level.virt_p99_ms = report.virt_p99_ms;
  level.real_elapsed_ms = report.real_elapsed_ms;
  level.sessions_per_real_sec = report.sessions_per_real_sec;
  level.chain_stats = report.chain_stats;
  level.vcek_stats = report.vcek_stats;
  // The lane model: session i holds lane i % workers for its whole virtual
  // duration, and lanes run in parallel, so the makespan is the heaviest
  // lane's total.
  std::vector<double> lanes(std::min<std::size_t>(workers, kFullSessions),
                            0.0);
  for (std::size_t i = 0; i < kFullSessions; ++i) {
    lanes[i % lanes.size()] += report.session_virt_ms[i];
  }
  level.virt_makespan_ms = *std::max_element(lanes.begin(), lanes.end());
  if (level.virt_makespan_ms > 0.0) {
    level.sessions_per_virtual_sec = static_cast<double>(kFullSessions) /
                                     (level.virt_makespan_ms / 1000.0);
  }
  level.unverified_accepts = sessions.unverified_accepts();
  level.kds_fetch_count_delta =
      obs::metrics().counter_value("kds.fetch.count") - kds_before;
  return level;
}

// ---------------------------------------------------------------------------
// Staged full-crypto levels (the event-driven state-machine path)

Level run_staged_full(Worlds worlds, unsigned workers,
                      std::size_t sessions, int retry_attempts,
                      const core::AdmissionConfig& admission,
                      const char* mode, obs::AuditLog* audit = nullptr,
                      bool batch_verify = false,
                      store::KvStore* durable = nullptr,
                      RevocationSet* revocations = nullptr) {
  core::SessionEngineConfig config;
  config.workers = workers;
  config.audit_log = audit;  // shed sessions still get a rejected verdict
  core::SessionEngine engine(config);
  if (durable != nullptr) {
    // Restart levels: verified chain windows and fetched VCEK chains go
    // through the KV store, so a rebuilt engine starts warm.
    engine.chain_cache().attach_store(durable);
    engine.vcek_cache().attach_store(durable);
  }
  const std::uint64_t kds_before =
      obs::metrics().counter_value("kds.fetch.count");

  Level level;
  level.mode = mode;
  level.workers = workers;
  core::WebExtensionConfig ext_config;
  ext_config.kds_address = {gateway::kKdsPrimary, 443};
  ext_config.retry.max_attempts = retry_attempts;
  ext_config.audit_log = audit;
  ext_config.revocation_set = revocations;
  Sessions staged(worlds, sessions, ext_config);
  const auto report = staged.run(engine, admission, batch_verify);
  fill_from(level, report);
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    if (!report.outcomes[i].ok()) {  // surface the first failure per level
      std::fprintf(stderr, "  [%s] first failure: session %zu: %s\n", mode, i,
                   report.outcomes[i].error().to_string().c_str());
      break;
    }
  }
  level.unverified_accepts = staged.unverified_accepts();
  level.kds_fetch_count_delta =
      obs::metrics().counter_value("kds.fetch.count") - kds_before;
  return level;
}

// ---------------------------------------------------------------------------
// Synthetic scale levels (1k / 10k / 100k parked sessions)

/// Deterministic per-(session, stage) duration in [1.0, 10.6] ms —
/// a splitmix-style mixer, no RNG state, so re-runs are bit-identical.
double synth_ms(std::uint64_t index, std::uint64_t stage, std::uint64_t salt) {
  std::uint64_t x = index * 0x9E3779B97F4A7C15ull + stage * 0xBF58476D1CE4E5B9ull +
                    salt * 0x94D049BB133111EBull;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  return 1.0 + static_cast<double>(x % 97) / 10.0;
}

core::SessionEngine::StagedReport run_synthetic_once(std::size_t sessions,
                                                     bool recorder = false) {
  core::SessionEngineConfig config;
  config.workers = kScaleWorkers;
  config.flight_recorder = recorder;
  core::SessionEngine engine(config);
  core::AdmissionConfig admission;
  admission.max_inflight_kds = 512;
  return engine.run_staged(
      sessions,
      [](core::StagedContext& ctx) -> core::SessionState {
        const auto stage = static_cast<std::uint64_t>(ctx.state);
        ctx.stage_virt_ms = synth_ms(ctx.index, stage, /*salt=*/29);
        switch (ctx.state) {
          case core::SessionState::kHandshake:
            return core::SessionState::kEvidenceFetch;
          case core::SessionState::kEvidenceFetch:
            return core::SessionState::kKdsFetch;
          case core::SessionState::kKdsFetch:
            return core::SessionState::kVerify;
          case core::SessionState::kVerify:
            return core::SessionState::kPageFetch;
          case core::SessionState::kPageFetch:
            return core::SessionState::kDone;
          default:
            return core::SessionState::kFailed;
        }
      },
      admission, [](std::size_t i) { return i % kWorlds; });
}

Level run_synthetic(std::size_t sessions, bool check_determinism) {
  Level level;
  level.mode = "synthetic";
  level.workers = kScaleWorkers;
  const auto report = run_synthetic_once(sessions);
  fill_from(level, report);
  if (check_determinism) {
    const auto replay = run_synthetic_once(sessions);
    level.determinism_checked = true;
    level.deterministic =
        replay.transcript_digest == report.transcript_digest &&
        replay.virt_makespan_ms == report.virt_makespan_ms;
  }
  return level;
}

/// Recorder-overhead level: the 10k synthetic run again with every session
/// carrying a live flight-recorder ring. The virtual schedule must not
/// move at all (observation must not perturb the simulation — the ratio
/// the bench gate holds at <= 1.05 is virtual time), and the real-time
/// cost is reported for information.
Level run_recorder(std::size_t sessions) {
  Level level;
  level.mode = "recorder";
  level.workers = kScaleWorkers;
  fill_from(level, run_synthetic_once(sessions, /*recorder=*/true));
  return level;
}

// ---------------------------------------------------------------------------

/// Everything the restart levels learned, exported under "restart" in the
/// JSON document for run_benches.sh to gate on.
struct RestartInfo {
  bool ran = false;
  std::string backend;  // "mem" | "real"
  double cold_p50_ms = 0.0;
  double warm_p50_ms = 0.0;
  std::uint64_t cold_fetches = 0;
  std::uint64_t warm_fetches = 0;
  std::uint64_t warm_vcek_store_hits = 0;
  std::uint64_t warm_chain_store_hits = 0;
  std::uint64_t store_write_failures = 0;
  std::uint64_t audit_restored_records = 0;
  bool audit_reverified = false;
  std::uint64_t recovery_generation = 0;
  std::size_t recovery_wal_frames = 0;
  bool recovery_truncated_tail = false;
};

int run_gateway_bench(const char* out_path, const char* audit_path,
                      const char* store_dir, bool quick) {
  std::fprintf(stderr, "building %zu world replicas...\n", kWorlds);
  const auto worlds = gateway::build_worlds(kWorlds, "gw-bench-1");

  std::vector<Level> levels;
  std::printf("%-9s %4s %7s  %12s %12s %12s %9s %10s\n", "mode", "wrk",
              "sess", "ok/total", "makespan(ms)", "sess/vsec", "parked",
              "B/parked");

  // Blocking vs staged on the same 64 full-crypto sessions.
  for (const unsigned workers : {1u, 4u}) {
    levels.push_back(run_blocking(worlds, workers));
    print_level(levels.back());
  }
  // Staged vs staged_batch run on their own FRESH world sets built from
  // the same seed: worlds are stateful (caches, tickets, DRBG draws), so
  // digest parity is only meaningful when both modes start from identical
  // state. Within a set the 1w level's mutations carry into the 4w level
  // the same way for both modes.
  {
    const auto staged_worlds = gateway::build_worlds(kWorlds, "gw-bench-1");
    for (const unsigned workers : {1u, 4u}) {
      levels.push_back(run_staged_full(staged_worlds, workers, kFullSessions,
                                       /*retry_attempts=*/1, {}, "staged"));
      print_level(levels.back());
    }
  }

  // The same staged levels with batched verify dispatch: wavefronts of
  // sessions parked at verify go through ONE ecdsa_verify_batch. Gated
  // against "staged": bit-identical transcript digest, zero unverified
  // accepts, and less real verify time.
  {
    const auto batch_worlds = gateway::build_worlds(kWorlds, "gw-bench-1");
    for (const unsigned workers : {1u, 4u}) {
      levels.push_back(run_staged_full(batch_worlds, workers, kFullSessions,
                                       /*retry_attempts=*/1, {},
                                       "staged_batch", nullptr,
                                       /*batch_verify=*/true));
      print_level(levels.back());
    }
  }

  // Warm-restart levels (PR 9): the durable state tier under a full
  // gateway restart. Per-index seeds give every world a DISTINCT chip, so
  // a cold engine pays kRestartWorlds KDS round trips; after tearing the
  // whole gateway down and reopening the store, the warm engine must pay
  // zero — every VCEK chain and verified chain window comes back through
  // the KV read-through, and the audit chain re-verifies its persisted
  // history before accepting new verdicts.
  RestartInfo restart;
  {
    std::unique_ptr<store::MemStorageEnv> mem_env;
    std::unique_ptr<store::RealStorageEnv> real_env;
    store::StorageEnv* env = nullptr;
    if (store_dir != nullptr) {
      auto opened = store::RealStorageEnv::open(store_dir);
      if (!opened.ok()) {
        std::fprintf(stderr, "cannot open --store-dir %s: %s\n", store_dir,
                     opened.error().to_string().c_str());
        return 1;
      }
      real_env = std::move(*opened);
      env = real_env.get();
      restart.backend = "real";
    } else {
      mem_env = std::make_unique<store::MemStorageEnv>();
      env = mem_env.get();
      restart.backend = "mem";
    }

    // Opens the whole durable tier: KV store, append-through audit chain
    // (history re-verified before any append), store-backed revocations.
    struct DurableTier {
      std::unique_ptr<store::KvStore> kv;
      std::optional<obs::DurableAudit> audit;
      std::unique_ptr<RevocationSet> revocations;
    };
    const auto open_tier = [&](DurableTier& tier) -> bool {
      auto kv = store::KvStore::open(*env);
      if (!kv.ok()) {
        std::fprintf(stderr, "restart: KvStore::open failed: %s\n",
                     kv.error().to_string().c_str());
        return false;
      }
      tier.kv = std::move(*kv);
      auto audit_opened = obs::open_durable_audit(*tier.kv);
      if (!audit_opened.ok()) {
        std::fprintf(stderr, "restart: open_durable_audit failed: %s\n",
                     audit_opened.error().to_string().c_str());
        return false;
      }
      tier.audit = std::move(*audit_opened);
      auto revocations = RevocationSet::open(*tier.kv);
      if (!revocations.ok()) {
        std::fprintf(stderr, "restart: RevocationSet::open failed: %s\n",
                     revocations.error().to_string().c_str());
        return false;
      }
      tier.revocations = std::move(*revocations);
      return true;
    };
    const auto build_restart_worlds = [] {
      std::vector<std::unique_ptr<GatewayWorld>> store;
      for (std::size_t i = 0; i < kRestartWorlds; ++i) {
        store.push_back(std::make_unique<GatewayWorld>(
            "gw-restart-" + std::to_string(i)));
        // AMD's KDS is a throttled WAN service, not a LAN neighbour:
        // charge its link a realistic 25 ms one-way latency (set after
        // construction so fleet provisioning is unaffected). The cold
        // phase pays this round trip once per world; the warm phase
        // reads the persisted chains and never touches the KDS.
        store.back()->network.set_link_latency_ms(
            "laptop", gateway::kKdsPrimary, 25.0);
      }
      return store;
    };

    std::fprintf(stderr, "building %zu per-seed restart worlds...\n",
                 kRestartWorlds);
    {  // Cold phase: empty store, every world pays its own KDS fetch.
      DurableTier tier;
      if (!open_tier(tier)) return 1;
      const auto restart_worlds = build_restart_worlds();
      levels.push_back(run_staged_full(
          restart_worlds, /*workers=*/1, kRestartWorlds, /*retry_attempts=*/1,
          {}, "restart_cold", tier.audit->log.get(), /*batch_verify=*/false,
          tier.kv.get(), tier.revocations.get()));
      print_level(levels.back());
      restart.cold_p50_ms = levels.back().virt_p50_ms;
      restart.cold_fetches = levels.back().vcek_stats.fetches;
      restart.store_write_failures =
          levels.back().vcek_stats.store_write_failures +
          levels.back().chain_stats.store_write_failures;
    }  // <- the restart: engine, caches, audit log, and worlds all die here
    {  // Warm phase: same seeds, reopened store, rebuilt everything else.
      DurableTier tier;
      if (!open_tier(tier)) return 1;
      restart.audit_restored_records = tier.audit->restored_records;
      restart.recovery_generation = tier.kv->recovery().generation;
      restart.recovery_wal_frames = tier.kv->recovery().wal_frames_replayed;
      restart.recovery_truncated_tail = tier.kv->recovery().truncated_tail;
      const auto restart_worlds = build_restart_worlds();
      levels.push_back(run_staged_full(
          restart_worlds, /*workers=*/1, kRestartWorlds, /*retry_attempts=*/1,
          {}, "restart_warm", tier.audit->log.get(), /*batch_verify=*/false,
          tier.kv.get(), tier.revocations.get()));
      print_level(levels.back());
      restart.warm_p50_ms = levels.back().virt_p50_ms;
      restart.warm_fetches = levels.back().vcek_stats.fetches;
      restart.warm_vcek_store_hits = levels.back().vcek_stats.store_hits;
      restart.warm_chain_store_hits = levels.back().chain_stats.store_hits;
      restart.store_write_failures +=
          levels.back().vcek_stats.store_write_failures +
          levels.back().chain_stats.store_write_failures;
      restart.audit_reverified =
          obs::AuditLog::verify(tier.audit->log->serialize()).ok();
      restart.ran = true;
    }
    std::printf(
        "warm restart (%s store): cold p50 %.1fms / %llu fetches -> "
        "warm p50 %.1fms / %llu fetches, %llu audit records re-verified\n",
        restart.backend.c_str(), restart.cold_p50_ms,
        static_cast<unsigned long long>(restart.cold_fetches),
        restart.warm_p50_ms,
        static_cast<unsigned long long>(restart.warm_fetches),
        static_cast<unsigned long long>(restart.audit_restored_records));
  }

  // Parked-session scale: 1k / 10k / 100k synthetic state machines. The
  // 1k and 100k levels replay to prove same-seed bit-identical digests.
  const std::vector<std::size_t> scale =
      quick ? std::vector<std::size_t>{1000}
            : std::vector<std::size_t>{1000, 10000, 100000};
  for (const std::size_t sessions : scale) {
    const bool check = sessions == 1000 || sessions == 100000;
    levels.push_back(run_synthetic(sessions, check));
    print_level(levels.back());
  }

  // Flight-recorder overhead on the largest quick-safe synthetic level:
  // same sessions, rings armed on every one of them.
  const std::size_t recorder_sessions = quick ? 1000 : 10000;
  levels.push_back(run_recorder(recorder_sessions));
  print_level(levels.back());
  double recorder_overhead_virt = 0.0;
  for (const auto& level : levels) {
    if (level.mode == "synthetic" && level.sessions == recorder_sessions) {
      if (level.virt_makespan_ms > 0.0) {
        recorder_overhead_virt =
            levels.back().virt_makespan_ms / level.virt_makespan_ms;
      }
      break;
    }
  }
  std::printf("flight recorder virtual-time overhead at %zu sessions: %.4fx\n",
              recorder_sessions, recorder_overhead_virt);

  // Chaos soak: lossy links + retries over the first 32 worlds, with a
  // narrow KDS admission gate keeping the herd parked. Every verdict —
  // accepted, rejected, or shed — lands in the tamper-evident audit chain
  // that tools/audit_verify replays offline.
  obs::AuditLog audit(/*checkpoint_interval=*/64);
  if (!quick) {
    net::LinkFaultProfile lossy;
    lossy.drop_prob = 0.08;
    lossy.delay_prob = 0.2;
    lossy.delay_min_ms = 1.0;
    lossy.delay_max_ms = 6.0;
    for (std::size_t i = 0; i < kChaosWorlds; ++i) {
      net::FaultPlan plan(to_bytes("gw-bench-chaos-" + std::to_string(i)));
      plan.set_default_profile(lossy);
      worlds[i]->network.set_fault_plan(std::move(plan));
    }
    core::AdmissionConfig admission;
    admission.max_inflight_kds = 8;
    levels.push_back(run_staged_full(Worlds(worlds).first(kChaosWorlds),
                                     kScaleWorkers,
                                     kChaosSessions, /*retry_attempts=*/5,
                                     admission, "chaos", &audit));
    print_level(levels.back());
    if (audit_path != nullptr) {
      const Bytes stream = audit.serialize();
      std::FILE* af = std::fopen(audit_path, "wb");
      if (af == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n", audit_path);
        return 1;
      }
      std::fwrite(stream.data(), 1, stream.size(), af);
      std::fclose(af);
      std::fprintf(stderr, "audit chain (%llu records) written to %s\n",
                   static_cast<unsigned long long>(audit.records()),
                   audit_path);
    }
  }
  const auto audit_verified = obs::AuditLog::verify(audit.serialize());

  // Headline: virtual throughput of the staged engine vs the blocking
  // lane model at one worker — parked waits overlap, lanes don't.
  auto vsec = [&](const char* mode, unsigned workers) {
    for (const auto& level : levels) {
      if (level.mode == mode && level.workers == workers) {
        return level.sessions_per_virtual_sec;
      }
    }
    return 0.0;
  };
  const double blocking_1 = vsec("blocking", 1);
  const double staged_speedup_1w =
      blocking_1 > 0.0 ? vsec("staged", 1) / blocking_1 : 0.0;
  std::printf("staged vs blocking at 1 worker: %.1fx virtual throughput\n",
              staged_speedup_1w);

  // Batched-verify gates: real (steady-clock) time spent in the verify
  // stage (summed over both worker counts to damp scheduling noise), plus
  // transcript parity — batching must not move a single virtual-time bit.
  auto verify_real_total = [&](const char* mode) {
    double total = 0.0;
    for (const auto& level : levels) {
      if (level.mode != mode) continue;
      for (const auto& row : level.stages) {
        if (row.stage == core::SessionState::kVerify) {
          total += row.real_total_ms;
        }
      }
    }
    return total;
  };
  const double verify_real_staged = verify_real_total("staged");
  const double verify_real_batch = verify_real_total("staged_batch");
  const double batch_verify_speedup =
      verify_real_batch > 0.0 ? verify_real_staged / verify_real_batch : 0.0;
  // The bit-identical claim is gated on the single-worker pair, so any
  // digest delta there is the batch path's fault. run_benches.sh also
  // holds every 4-worker staged digest to the 1-worker one: the engine
  // runs all kds_fetch sessions on one lane in ready order, so the same
  // session pays the KDS fetch at any worker count.
  bool batch_digest_match = true;
  std::uint64_t batch_calls = 0;
  for (const auto& level : levels) {
    if (level.mode != "staged_batch") continue;
    batch_calls += level.batch_calls;
    if (level.workers != 1) continue;
    for (const auto& other : levels) {
      if (other.mode == "staged" && other.workers == level.workers) {
        batch_digest_match = batch_digest_match &&
                             other.transcript_digest ==
                                 level.transcript_digest;
      }
    }
  }
  std::printf(
      "batched verify: %.2fx less real verify time (%.1fms -> %.1fms), "
      "%llu batch calls, transcripts %s\n",
      batch_verify_speedup, verify_real_staged, verify_real_batch,
      static_cast<unsigned long long>(batch_calls),
      batch_digest_match ? "identical" : "DIVERGED");

  if (out_path == nullptr) return 0;
  std::string doc = "{\"worlds\":" + std::to_string(kWorlds) +
                    ",\"full_sessions_per_level\":" +
                    std::to_string(kFullSessions) + ",\"levels\":[";
  for (std::size_t i = 0; i < levels.size(); ++i) {
    if (i > 0) doc += ",";
    doc += level_json(levels[i]);
  }
  doc += "],\"staged_speedup_1worker\":" + obs::json_number(staged_speedup_1w);
  doc += ",\"verify_real_staged_ms\":" + obs::json_number(verify_real_staged) +
         ",\"verify_real_batch_ms\":" + obs::json_number(verify_real_batch) +
         ",\"batch_verify_speedup\":" + obs::json_number(batch_verify_speedup) +
         ",\"batch_calls\":" + std::to_string(batch_calls) +
         ",\"batch_digest_match\":" + (batch_digest_match ? "true" : "false");
  doc += ",\"recorder_overhead_virt\":" +
         obs::json_number(recorder_overhead_virt);
  doc += ",\"audit\":{\"records\":" + std::to_string(audit.records()) +
         ",\"checkpoints\":" + std::to_string(audit.checkpoints()) +
         ",\"ok\":" + (audit_verified.ok() ? "true" : "false") + "}";
  doc += ",\"restart\":{\"ran\":" + std::string(restart.ran ? "true" : "false") +
         ",\"backend\":\"" + restart.backend + "\"" +
         ",\"worlds\":" + std::to_string(kRestartWorlds) +
         ",\"cold_p50_ms\":" + obs::json_number(restart.cold_p50_ms) +
         ",\"warm_p50_ms\":" + obs::json_number(restart.warm_p50_ms) +
         ",\"cold_fetches\":" + std::to_string(restart.cold_fetches) +
         ",\"warm_fetches\":" + std::to_string(restart.warm_fetches) +
         ",\"warm_vcek_store_hits\":" +
         std::to_string(restart.warm_vcek_store_hits) +
         ",\"warm_chain_store_hits\":" +
         std::to_string(restart.warm_chain_store_hits) +
         ",\"store_write_failures\":" +
         std::to_string(restart.store_write_failures) +
         ",\"audit_restored_records\":" +
         std::to_string(restart.audit_restored_records) +
         ",\"audit_reverified\":" +
         (restart.audit_reverified ? "true" : "false") +
         ",\"recovery_generation\":" +
         std::to_string(restart.recovery_generation) +
         ",\"recovery_wal_frames\":" +
         std::to_string(restart.recovery_wal_frames) +
         ",\"recovery_truncated_tail\":" +
         (restart.recovery_truncated_tail ? "true" : "false") + "}";
  doc += "}";
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path);
    return 1;
  }
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
  std::printf("gateway load summary written to %s\n", out_path);
  return 0;
}

constexpr const char* kUsage =
    "usage: bench_gateway [--out BENCH_gateway.json]\n"
    "                     [--audit-out AUDIT_gateway.bin]\n"
    "                     [--store-dir DIR] [--quick]\n";

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = nullptr;
  const char* audit_path = nullptr;
  const char* store_dir = nullptr;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char** value = std::strcmp(arg, "--out") == 0         ? &out_path
                         : std::strcmp(arg, "--audit-out") == 0 ? &audit_path
                         : std::strcmp(arg, "--store-dir") == 0 ? &store_dir
                                                                : nullptr;
    if (value != nullptr && i + 1 < argc) {
      *value = argv[++i];
    } else if (std::strcmp(arg, "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(arg, "--help") == 0) {
      std::fputs(kUsage, stdout);
      return 0;
    } else {
      std::fprintf(stderr, value != nullptr ? "%s needs a value\n%s"
                                            : "unknown argument %s\n%s",
                   arg, kUsage);
      return 2;
    }
  }
  return run_gateway_bench(out_path, audit_path, store_dir, quick);
}
