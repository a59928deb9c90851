// Concurrent attestation gateway: the session engine.
//
// The paper evaluates one client attesting one Revelio VM; a deployment
// fronts *many* clients at once. SessionEngine drives N independent client
// sessions as explicit state machines over a deterministic virtual-time
// EventLoop (common/event_loop.hpp), dispatching ready stages over a
// task-queue thread pool (common/parallel.hpp), and owns the two caches
// its sessions share (DESIGN.md lists every structure sessions share, with
// its bound):
//
//  - a ChainVerificationCache (pki/chain_cache.hpp): certificate-chain
//    verdicts;
//  - a VcekCache (revelio/vcek_cache.hpp): VCEK chains from the KDS; a
//    cold cache costs ONE fetch no matter how many sessions stampede it.
//    Sessions at the kds stage run on one lane in ready order, so the
//    session that pays that fetch is the same at every worker count.
//
// Everything else is per-session. The simulation's core objects (Network,
// SimClock, TLS sessions) are single-threaded by design, so each session
// (or each lane) drives its own world replica; two per-thread bindings
// keep the worlds from bleeding into each other:
//
//  - SimClock resolution is thread-local (common/sim_clock.hpp) — a stage
//    binds its world's clock with ScopedClockCurrent;
//  - the engine binds the session's obs::SessionRecord
//    (obs/flight_recorder.hpp) around each dispatch: its flight ring, the
//    dispatch instant, and the virtual wait lower layers report.
//
// The engine calls nothing of the caller's between batches: work due at a
// virtual instant (the fleet soak's scheduled operations) runs inside a
// stage function, keyed off the dispatch instant its record carries.
//
// Metrics are not per-session: every stage writes straight into the one
// process registry (obs/metrics.hpp), whose counters, gauges and summaries
// are safe to update from any lane. Spans go to the process tracer from
// the calling lane only (obs/trace.hpp).
//
// One dispatched *stage* runs synchronously; the virtual time it consumes
// (network round trips, retry backoff, chaos timeouts) becomes the
// session's park interval, and the session costs a 32-byte heap event —
// not a blocked thread — until its wake. That is what lets one worker
// carry thousands of in-flight sessions (the 100k-session level in
// bench_gateway). A session may also run as a single stage (kHandshake ->
// kDone): bench_gateway's blocking baseline does exactly that. Admission
// control bounds the in-flight gated stages (evidence/KDS fetches) with
// park-or-shed overload policy, all exported as gw.* metrics.
//
// The StagedReport separates the two clocks: real_elapsed_ms is wall time
// of the whole run; the virtual-latency percentiles and makespan come from
// the deterministic schedule — benchmarks gate on them (see
// bench/bench_gateway.cpp). The engine counts virtual time in integer µs;
// the report's *_ms fields are each converted once from those exact sums.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "pki/chain_cache.hpp"
#include "revelio/vcek_cache.hpp"

namespace revelio::obs {
class AuditLog;  // obs/audit_log.hpp — engine links revelio_audit
}  // namespace revelio::obs

namespace revelio::core {

/// The session state machine driven by run_staged(). Stage order for a
/// full gateway session:
///
///   handshake -> evidence_fetch -> kds_fetch -> verify -> page_fetch
///     -> done | failed
///
/// The session function may skip stages (a monitored reconnect goes
/// handshake -> page_fetch) but may only move forward; kDone/kFailed are
/// terminal.
enum class SessionState : std::uint8_t {
  kHandshake,
  kEvidenceFetch,
  kKdsFetch,
  kVerify,
  kPageFetch,
  kDone,
  kFailed,
};

const char* to_string(SessionState state);
/// The SessionState overload above would otherwise hide the byte-level
/// to_string(ByteView) from the enclosing namespace for code inside core.
using revelio::to_string;

struct SessionEngineConfig {
  /// Worker lanes, the calling thread included (0 runs as 1).
  unsigned workers = 1;
  /// Per-session flight recorder (obs/flight_recorder.hpp). Every session
  /// continuously records its last 32 engine events in a fixed ring; only
  /// anomalous sessions (failed, shed, or in the p99 virtual-latency tail)
  /// dump their timeline into StagedReport::anomaly_dumps. The rings' fixed
  /// memory cost is reported in StagedReport::recorder_bytes and counted
  /// into engine_bytes, next to the parked-session budget.
  bool flight_recorder = false;
  /// Optional attestation audit chain. The engine appends a rejected
  /// verdict (failure_step "admission_shed") for every session shed by
  /// admission control — shed sessions never reach the web extension, yet
  /// the audit trail must still account for them. Stage functions append
  /// their own verdicts (see WebExtensionConfig::audit_log). Must outlive
  /// the run; appends are thread-safe.
  obs::AuditLog* audit_log = nullptr;
};

/// What one *stage* of a staged session sees. The cache pointers are the
/// engine's, shared with every other session and safe to use concurrently;
/// everything a session builds beyond them must be its own. Metrics go
/// straight to the process registry.
struct StagedContext {
  std::size_t index = 0;                      // session number in [0, N)
  SessionState state = SessionState::kHandshake;  // the stage to run NOW
  pki::ChainVerificationCache* chain_cache = nullptr;
  VcekCache* vcek_cache = nullptr;

  /// Out: virtual duration of this stage (e.g. the world clock's delta
  /// across it). The engine converts it once to integer µs
  /// (SimClock::from_ms) and parks the session for exactly that long
  /// before dispatching the returned state — the stage's I/O time IS the
  /// wake delay.
  double stage_virt_ms = 0.0;
  /// Out: why the session failed; read only when kFailed is returned.
  Status failure = Status::success();
};

/// Runs ctx.state and returns the NEXT state (kDone/kFailed to finish).
/// Called once per dispatch; must be safe to run concurrently with stages
/// of sessions on *other* tracks (sessions sharing a track never overlap).
using StagedSessionFn = std::function<SessionState(StagedContext&)>;

/// Maps a session to its event-loop track (= independence class; sessions
/// sharing a single-threaded world replica must share a track). Default:
/// every session its own track.
using TrackFn = std::function<std::size_t(std::size_t)>;

/// One session's slice of a batched stage dispatch. `ctx` carries exactly
/// what a per-session dispatch would see; the batch function fills
/// ctx.stage_virt_ms / ctx.failure and `next` for every item, as
/// StagedSessionFn would have.
struct StagedBatchItem {
  StagedContext ctx;
  SessionState next = SessionState::kFailed;
};

/// Runs one stage for a whole batch of sessions in a single pool task.
/// Items arrive in deterministic ready order. The function must be pure
/// compute plus shared-cache access — a batched stage cannot park
/// mid-stage, and the engine records zero I/O wait for it.
using StagedBatchFn = std::function<void(std::vector<StagedBatchItem>&)>;

/// Opt-in batched dispatch for ONE stage of run_staged. When every ready
/// session of a track group is parked at `stage`, the engine coalesces
/// those groups — across tracks — into a single pool task and hands them
/// to `fn` together instead of dispatching one stage per session. That is
/// what lets the verify stage amortize one multi-scalar ECDSA pass over
/// the whole wavefront. Track groups with any
/// session at a different stage keep per-session dispatch, so sessions
/// sharing a world replica still never run concurrently. Per-session
/// verdicts, audit records, and the transcript digest are bit-identical to
/// unbatched dispatch. A wavefront of one session dispatches per-session
/// (nothing to amortize).
struct BatchStageConfig {
  SessionState stage = SessionState::kVerify;
  StagedBatchFn fn;           // empty = batching off
};

/// Backpressure for the two remote-fetch stages. A gated stage holds one
/// unit of its gate's capacity from dispatch until the session's next wake
/// (the park IS the in-flight fetch); a session arriving at a full gate is
/// parked in the gate's unbounded FIFO (kPark) or failed closed with
/// "gw.admission.shed" (kShed).
struct AdmissionConfig {
  /// Max in-flight evidence/BN fetches (0 = unlimited).
  std::size_t max_inflight_evidence = 0;
  /// Max in-flight KDS fetches (0 = unlimited).
  std::size_t max_inflight_kds = 0;
  enum class Overload { kPark, kShed };
  Overload on_overload = Overload::kPark;
};

class SessionEngine {
 public:
  explicit SessionEngine(SessionEngineConfig config = {});

  struct StagedReport {
    std::size_t sessions = 0;
    std::size_t succeeded = 0;
    std::size_t failed = 0;  // includes shed
    std::size_t shed = 0;    // failed by admission control, never verified
    std::vector<Status> outcomes;
    std::vector<SessionState> final_states;
    std::vector<double> session_virt_ms;

    /// Wall-clock time of the whole run (not deterministic; not gated).
    double real_elapsed_ms = 0.0;
    double sessions_per_real_sec = 0.0;

    /// Virtual completion time of the last session — the event loop's last
    /// wake instant. It is *measured* from the schedule, so overlap is
    /// real: N sessions of latency L that overlap perfectly finish at L.
    double virt_makespan_ms = 0.0;
    double sessions_per_virtual_sec = 0.0;
    double virt_p50_ms = 0.0;
    double virt_p95_ms = 0.0;
    double virt_p99_ms = 0.0;
    /// Split of total session virtual time into I/O waits (reported by
    /// net/resilience via obs::note_wait_us) vs everything else.
    double wait_virt_ms = 0.0;
    double service_virt_ms = 0.0;

    // Event-loop shape.
    std::uint64_t events_dispatched = 0;
    std::uint64_t batches = 0;
    std::size_t max_batch = 0;
    /// High-water parked population (loop events + gate FIFOs) — the
    /// sessions simultaneously in flight without holding a thread.
    std::size_t peak_parked = 0;
    double parked_per_worker = 0.0;

    // Admission control.
    std::size_t peak_inflight_evidence = 0;
    std::size_t peak_inflight_kds = 0;
    std::size_t peak_queue_depth = 0;  // both gate FIFOs, summed
    /// p99 of time spent parked in a gate FIFO before capacity freed.
    double wake_p99_ms = 0.0;

    /// Engine-owned bytes per session in flight: session cells + the event
    /// heap + gate FIFO slots at their peaks. Flat in session count by
    /// construction; the bench gates on it.
    std::size_t engine_bytes = 0;
    double bytes_per_parked_session = 0.0;

    /// SHA-256 (hex) over every session's (index, final state, outcome
    /// code, virtual duration) — same seed, same digest, bit for bit.
    std::string transcript_digest;

    /// Per-stage tail-latency attribution: virtual time split into I/O
    /// wait vs service, with log-bucket quantiles (obs::Summary), one row
    /// per stage that ran at least once, in state-machine order. Also
    /// exported into the process registry as summaries
    /// gw.stage.{wait,service}.ms{stage=...}.
    struct StageBreakdown {
      SessionState stage = SessionState::kHandshake;
      std::uint64_t count = 0;  // dispatches of this stage
      double wait_p50_ms = 0.0;
      double wait_p99_ms = 0.0;
      double service_p50_ms = 0.0;
      double service_p99_ms = 0.0;
      double wait_total_ms = 0.0;
      double service_total_ms = 0.0;
      /// Measured wall-clock compute of the stage's dispatches — the cost
      /// the virtual clock cannot see (verify is pure compute and has zero
      /// virtual time). Batched dispatches attribute their batch's wall
      /// time evenly across members. Not deterministic; the batching gate
      /// in bench_gateway compares it batched-vs-unbatched within one run.
      double real_p50_ms = 0.0;
      double real_p99_ms = 0.0;
      double real_total_ms = 0.0;
      /// Dispatches of this stage that went through the batch hook.
      std::uint64_t batched = 0;
    };
    std::vector<StageBreakdown> stage_breakdown;

    /// Batch-hook shape: invocations of the batch fn and the largest
    /// wavefront it received (0 when no hook is installed).
    std::uint64_t batch_calls = 0;
    std::size_t max_stage_batch = 0;

    /// Flight-recorder anomaly dumps (JSON, one per anomalous session —
    /// failed/shed first, then the p99 virtual-latency tail), capped
    /// at 128 per run. Empty when the recorder is off.
    std::vector<std::string> anomaly_dumps;
    /// Fixed ring cost of all session recorders (0 when off); also
    /// included in engine_bytes.
    std::size_t recorder_bytes = 0;

    pki::ChainVerificationCache::Stats chain_stats;
    VcekCache::Stats vcek_stats;
  };

  /// Event-driven run: every session starts at virtual t=0 in kHandshake;
  /// ready stages are dispatched over the pool in deterministic batches
  /// (grouped by track — see TrackFn) and parked between stages on the
  /// event loop. Deterministic for fixed (sessions, fn behavior, admission,
  /// track, workers) — the transcript digest is the proof. Every track
  /// group holding a kds_fetch session runs in one task, in the order one
  /// worker runs them, so a session machine that touches the VCEK cache
  /// only at kds_fetch gives the one-worker digest at any worker count. Not
  /// re-entrant: one run at a time per engine (the shared caches persist
  /// across runs; construct a fresh engine for cold-cache measurements).
  StagedReport run_staged(std::size_t sessions, const StagedSessionFn& fn,
                          const AdmissionConfig& admission = {},
                          const TrackFn& track = {},
                          const BatchStageConfig& batching = {});

  /// Lanes the engine schedules on.
  unsigned workers() const;

  pki::ChainVerificationCache& chain_cache() { return chain_cache_; }
  VcekCache& vcek_cache() { return vcek_cache_; }

 private:
  SessionEngineConfig config_;
  pki::ChainVerificationCache chain_cache_;
  VcekCache vcek_cache_;
};

}  // namespace revelio::core
