#include "revelio/session_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <unordered_map>

#include "common/event_loop.hpp"
#include "common/hex.hpp"
#include "common/parallel.hpp"
#include "common/sim_clock.hpp"
#include "crypto/sha2.hpp"
#include "obs/audit_log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"

namespace revelio::core {

namespace {

using Micros = SimClock::Micros;

/// Nearest-rank percentile over a sorted sample (q in (0, 1]).
Micros percentile(const std::vector<Micros>& sorted, double q) {
  if (sorted.empty()) return 0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// The report's output edge: exact µs rendered as ms.
double to_ms(Micros us) { return static_cast<double>(us) / 1000.0; }

/// Both shared caches hold 512 entries: a fresh attest_cold engine fills
/// 64 chains and 32 VCEK keys, so no workload evicts.
constexpr std::size_t kCacheCapacity = 512;
/// A batch-stage wavefront needs this many sessions to be worth one task.
constexpr std::size_t kMinBatch = 2;
/// Anomaly dumps kept per run (failures first, then tail sessions).
constexpr std::size_t kMaxDumps = 128;
/// Flight-recorder ring per session: 32 events of 16 bytes.
constexpr std::size_t kRingEvents = 32;
/// Sessions at or beyond this virtual-latency quantile dump their ring.
constexpr double kTailQuantile = 0.99;

}  // namespace

const char* to_string(SessionState state) {
  switch (state) {
    case SessionState::kHandshake: return "handshake";
    case SessionState::kEvidenceFetch: return "evidence_fetch";
    case SessionState::kKdsFetch: return "kds_fetch";
    case SessionState::kVerify: return "verify";
    case SessionState::kPageFetch: return "page_fetch";
    case SessionState::kDone: return "done";
    case SessionState::kFailed: return "failed";
  }
  return "?";
}

SessionEngine::SessionEngine(SessionEngineConfig config)
    : config_(std::move(config)),
      chain_cache_(kCacheCapacity),
      vcek_cache_(kCacheCapacity) {}

unsigned SessionEngine::workers() const {
  return std::max(config_.workers, 1u);
}

namespace {

/// Which admission gate a stage passes through. 0 = ungated.
enum : std::uint8_t { kGateNone = 0, kGateEvidence = 1, kGateKds = 2 };

std::uint8_t gate_for(SessionState state, const AdmissionConfig& admission) {
  if (state == SessionState::kEvidenceFetch &&
      admission.max_inflight_evidence > 0) {
    return kGateEvidence;
  }
  if (state == SessionState::kKdsFetch && admission.max_inflight_kds > 0) {
    return kGateKds;
  }
  return kGateNone;
}

/// Everything the engine keeps per session — this struct (plus one pending
/// heap event) IS the cost of a parked session, which is why it stays
/// plain data.
struct Cell {
  SessionState next = SessionState::kHandshake;  // stage to run at wake
  std::uint8_t holds = kGateNone;  // gate capacity held through the park
  Micros total_us = 0;
  Micros wait_us = 0;
  Micros queued_at_us = 0;  // set while in a gate FIFO
};

/// What one dispatched stage produced (slot-indexed; written by exactly
/// one pool lane, read by the driver after the batch join).
struct StageResult {
  SessionState next = SessionState::kFailed;
  Micros stage_us = 0;
  Micros wait_us = 0;
  /// Wall-clock compute of this dispatch (an even share of the batch's
  /// wall time when batched).
  double real_ms = 0.0;
  bool batched = false;
  Status failure = Status::success();
};

}  // namespace

SessionEngine::StagedReport SessionEngine::run_staged(
    std::size_t sessions, const StagedSessionFn& fn,
    const AdmissionConfig& admission, const TrackFn& track,
    const BatchStageConfig& batching) {
  StagedReport report;
  report.sessions = sessions;
  report.outcomes.assign(sessions, Status::success());
  report.final_states.assign(sessions, SessionState::kFailed);
  report.session_virt_ms.assign(sessions, 0.0);
  if (sessions == 0) {
    report.transcript_digest = to_hex(crypto::Sha256().finish().view());
    return report;
  }

  const auto real_start = std::chrono::steady_clock::now();
  const auto track_of = [&](std::size_t i) { return track ? track(i) : i; };

  common::EventLoop loop;
  std::vector<Cell> cells(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    loop.schedule_at(0, track_of(i), i);
  }

  struct Gate {
    std::size_t limit = 0;
    std::size_t inflight = 0;
    std::deque<std::size_t> fifo;
    std::size_t peak_inflight = 0;
  };
  Gate gates[3];
  gates[kGateEvidence].limit = admission.max_inflight_evidence;
  gates[kGateKds].limit = admission.max_inflight_kds;

  auto& metrics = obs::metrics();
  obs::Gauge& parked_gauge = metrics.gauge("gw.sessions.parked");
  obs::Gauge& running_gauge = metrics.gauge("gw.sessions.running");
  obs::Gauge& queue_gauge = metrics.gauge("gw.admission.queue_depth");
  obs::Counter& park_counter = metrics.counter("gw.admission.park.count");
  obs::Counter& shed_counter = metrics.counter("gw.admission.shed.count");
  // Gate-FIFO waits span microseconds to whole chaos timeouts, and the
  // tail is the point: a log-bucketed summary keeps its relative error.
  obs::Summary& wake_summary = metrics.summary("gw.wake.latency.ms");
  std::vector<Micros> wake_latencies;

  // Per-session flight recorders: a fixed 16-byte/event ring each,
  // preallocated up front so recording never touches the heap. Stage-body
  // events arrive through the session record bound in run_stage, stamped
  // with the dispatch instant; driver-side events (park/wake/admission)
  // are stamped with the loop clock directly. A recording session's record
  // lives for the run, because a staged attestation keeps it for the batch
  // path; otherwise a record lives on one dispatch's stack.
  const bool recording = config_.flight_recorder;
  std::vector<obs::FlightRecorder> recorders;
  std::vector<obs::SessionRecord> records;
  if (recording) {
    recorders.reserve(sessions);
    records.resize(sessions);
    for (std::size_t i = 0; i < sessions; ++i) {
      recorders.emplace_back(kRingEvents);
      records[i].ring = &recorders[i];
    }
  }
  const auto flight = [&](std::size_t i, obs::FlightEventType type,
                          std::uint16_t arg, std::uint32_t value,
                          Micros t_us) {
    if (recording) recorders[i].record_at(t_us, type, arg, value);
  };

  // Per-stage wait-vs-service attribution, accumulated on the driver in
  // post-pass order (single-threaded — no summary lock contention while
  // stages run). kDone is the bound: only real stages index these.
  constexpr std::size_t kStageCount =
      static_cast<std::size_t>(SessionState::kDone);
  obs::Summary stage_wait[kStageCount];
  obs::Summary stage_service[kStageCount];
  obs::Summary stage_real[kStageCount];
  Micros stage_wait_total[kStageCount] = {};
  Micros stage_service_total[kStageCount] = {};
  double stage_real_total[kStageCount] = {};
  std::uint64_t stage_batched[kStageCount] = {};

  const auto finalize = [&](std::size_t i, SessionState state, Status st) {
    Cell& c = cells[i];
    if (c.holds != kGateNone) {  // terminal exit from a gated stage
      --gates[c.holds].inflight;
      c.holds = kGateNone;
    }
    report.final_states[i] = state;
    report.outcomes[i] = std::move(st);
  };

  common::ThreadPool pool(workers());
  std::vector<common::EventLoop::Event> batch;
  std::vector<std::size_t> ready;        // session indices to dispatch now
  std::vector<StageResult> results;      // slot-parallel with `ready`
  std::vector<std::vector<std::size_t>> groups;  // ready slots, by track
  std::vector<std::size_t> batch_slots;  // ready slots routed to the hook
  std::vector<std::size_t> kds_slots;    // ready slots on the KDS lane
  // Virtual completion time of the latest-finishing session, including its
  // final stage (which needs no wake and so never reaches the loop clock).
  Micros makespan_us = 0;

  while (true) {
    loop.next_batch(batch);
    if (batch.empty()) break;  // gate FIFOs are empty too: a non-empty
                               // FIFO implies a capacity holder, and every
                               // holder has a wake pending in the loop
    const Micros now_us = loop.now_us();
    ready.clear();

    // 1. Waking sessions release the gate capacity their park was holding
    //    (the in-flight fetch completed at this instant).
    for (const auto& e : batch) {
      Cell& c = cells[e.payload];
      if (c.holds != kGateNone) {
        --gates[c.holds].inflight;
        c.holds = kGateNone;
      }
      flight(e.payload, obs::FlightEventType::kWake,
             static_cast<std::uint16_t>(c.next), 0, now_us);
    }

    // 2. Freed capacity goes to gate-parked sessions first, FIFO.
    for (std::uint8_t g : {kGateEvidence, kGateKds}) {
      Gate& gate = gates[g];
      while (!gate.fifo.empty() && gate.inflight < gate.limit) {
        const std::size_t i = gate.fifo.front();
        gate.fifo.pop_front();
        ++gate.inflight;
        cells[i].holds = g;
        const Micros waited_us = now_us - cells[i].queued_at_us;
        wake_summary.observe(to_ms(waited_us));
        wake_latencies.push_back(waited_us);
        flight(i, obs::FlightEventType::kWake,
               static_cast<std::uint16_t>(cells[i].next), 0, now_us);
        ready.push_back(i);
      }
      gate.peak_inflight = std::max(gate.peak_inflight, gate.inflight);
    }

    // 3. Admission for the batch itself, in deterministic batch order.
    for (const auto& e : batch) {
      const std::size_t i = e.payload;
      Cell& c = cells[i];
      const std::uint8_t g = gate_for(c.next, admission);
      if (g == kGateNone) {
        ready.push_back(i);
        continue;
      }
      Gate& gate = gates[g];
      if (gate.inflight < gate.limit) {
        ++gate.inflight;
        c.holds = g;
        gate.peak_inflight = std::max(gate.peak_inflight, gate.inflight);
        flight(i, obs::FlightEventType::kAdmission, g, 0, now_us);
        ready.push_back(i);
      } else if (admission.on_overload == AdmissionConfig::Overload::kPark) {
        c.queued_at_us = now_us;
        gate.fifo.push_back(i);
        park_counter.inc();
        flight(i, obs::FlightEventType::kAdmission, g, 1, now_us);
      } else {
        // Shed: fail closed. The session never reaches verify, so it can
        // never be counted as an accepted (trusted) session.
        shed_counter.inc();
        ++report.shed;
        flight(i, obs::FlightEventType::kAdmission, g, 2, now_us);
        makespan_us = std::max(makespan_us, now_us);
        if (config_.audit_log != nullptr) {
          // Shed sessions never reach the web extension, so the engine
          // itself must leave their rejected verdict in the audit trail.
          obs::AuditRecord rec;
          rec.session = static_cast<std::uint64_t>(i);
          rec.virt_us = now_us;
          rec.accepted = false;
          rec.failure_step = "admission_shed";
          config_.audit_log->append(rec);
        }
        finalize(i, SessionState::kFailed,
                 Error::make("gw.admission.shed", to_string(c.next)));
      }
    }
    const std::size_t queued =
        gates[kGateEvidence].fifo.size() + gates[kGateKds].fifo.size();
    report.peak_queue_depth = std::max(report.peak_queue_depth, queued);
    queue_gauge.set(static_cast<double>(queued));
    running_gauge.set(static_cast<double>(ready.size()));

    // 4. Dispatch the ready stages over the pool, grouped by track so
    //    sessions sharing a world replica never run concurrently. Groups
    //    materialize in first-appearance order of the (track, seq)-ordered
    //    ready list, and each slot writes only results[slot] — the outcome
    //    is identical however lanes claim the groups.
    results.assign(ready.size(), StageResult{});
    const auto run_stage = [&](std::size_t slot) {
      const std::size_t i = ready[slot];
      Cell& c = cells[i];
      obs::SessionRecord dispatch_record;
      obs::SessionRecord& record = recording ? records[i] : dispatch_record;
      record.now_us = now_us;
      record.waited_us = 0;
      obs::ScopedSessionRecord bind(&record);

      StagedContext ctx;
      ctx.index = i;
      ctx.state = c.next;
      ctx.chain_cache = &chain_cache_;
      ctx.vcek_cache = &vcek_cache_;
      flight(i, obs::FlightEventType::kStageEnter,
             static_cast<std::uint16_t>(c.next), 0, now_us);
      StageResult r;
      const auto real_t0 = std::chrono::steady_clock::now();
      r.next = fn(ctx);
      r.real_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - real_t0)
                      .count();
      r.stage_us = SimClock::from_ms(ctx.stage_virt_ms);
      r.failure = std::move(ctx.failure);
      r.wait_us = record.waited_us;
      flight(i, obs::FlightEventType::kStageExit,
             static_cast<std::uint16_t>(c.next),
             static_cast<std::uint32_t>(r.stage_us), now_us + r.stage_us);
      results[slot] = std::move(r);
    };
    groups.clear();
    {
      std::unordered_map<std::size_t, std::size_t> group_of;
      for (std::size_t slot = 0; slot < ready.size(); ++slot) {
        const std::size_t t = track_of(ready[slot]);
        const auto [it, fresh] = group_of.emplace(t, groups.size());
        if (fresh) groups.emplace_back();
        groups[it->second].push_back(slot);
      }
    }
    // Group subsumption: when the groups `takes` selects hold at least
    // `min_slots` sessions, lift them whole, in first-appearance order,
    // into `out` — one pool task runs them sequentially, so track
    // isolation holds. Otherwise groups stay untouched.
    const auto subsume = [&](const auto& takes, std::size_t min_slots,
                             std::vector<std::size_t>& out) {
      std::size_t taken = 0;
      for (const auto& g : groups) {
        if (takes(g)) taken += g.size();
      }
      if (taken < min_slots) return;
      std::vector<std::vector<std::size_t>> kept;
      for (auto& g : groups) {
        if (takes(g)) {
          out.insert(out.end(), g.begin(), g.end());
        } else {
          kept.push_back(std::move(g));
        }
      }
      groups = std::move(kept);
    };
    // Batch hook: a track group whose EVERY ready member is parked at the
    // batch stage joins one cross-track batch task, when there is
    // something to amortize. Mixed groups keep per-session dispatch.
    batch_slots.clear();
    if (batching.fn) {
      subsume(
          [&](const std::vector<std::size_t>& g) {
            return std::all_of(g.begin(), g.end(), [&](std::size_t slot) {
              return cells[ready[slot]].next == batching.stage;
            });
          },
          kMinBatch, batch_slots);
    }
    // KDS lane: only the kds stage fills a shared cache with virtual cost,
    // so every group holding a kds session runs in one task, in the order
    // one lane runs them — the same session pays the fetch at any width.
    // A batch hook at the kds stage runs the lane inside its own task.
    kds_slots.clear();
    if (pool.width() > 1) {
      subsume(
          [&](const std::vector<std::size_t>& g) {
            return std::any_of(g.begin(), g.end(), [&](std::size_t slot) {
              return cells[ready[slot]].next == SessionState::kKdsFetch;
            });
          },
          1, kds_slots);
    }
    const bool lane_in_batch =
        batching.stage == SessionState::kKdsFetch && !batch_slots.empty();
    if (!lane_in_batch && !kds_slots.empty()) {
      groups.push_back(std::move(kds_slots));
      kds_slots.clear();
    }
    const auto run_batch = [&]() {
      const auto real_t0 = std::chrono::steady_clock::now();
      std::vector<StagedBatchItem> items(batch_slots.size());
      for (std::size_t k = 0; k < batch_slots.size(); ++k) {
        const std::size_t i = ready[batch_slots[k]];
        StagedContext& ctx = items[k].ctx;
        ctx.index = i;
        ctx.state = batching.stage;
        ctx.chain_cache = &chain_cache_;
        ctx.vcek_cache = &vcek_cache_;
        // The hook binds each session's own record around its share of
        // the batch; stamp that record with this dispatch's instant.
        if (recording) records[i].now_us = now_us;
        flight(i, obs::FlightEventType::kStageEnter,
               static_cast<std::uint16_t>(batching.stage), 1, now_us);
      }
      batching.fn(items);
      const double batch_real_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - real_t0)
              .count();
      const double share =
          batch_real_ms / static_cast<double>(batch_slots.size());
      for (std::size_t k = 0; k < batch_slots.size(); ++k) {
        const std::size_t slot = batch_slots[k];
        const std::size_t i = ready[slot];
        StageResult r;
        r.next = items[k].next;
        r.stage_us = SimClock::from_ms(items[k].ctx.stage_virt_ms);
        r.failure = std::move(items[k].ctx.failure);
        // wait_us stays 0: batched stages are pure compute by contract.
        r.real_ms = share;
        r.batched = true;
        flight(i, obs::FlightEventType::kStageExit,
               static_cast<std::uint16_t>(batching.stage),
               static_cast<std::uint32_t>(r.stage_us), now_us + r.stage_us);
        results[slot] = std::move(r);
      }
      for (const std::size_t slot : kds_slots) run_stage(slot);
    };
    // The batch, when there is one, is task 0: one lane runs it first.
    const std::size_t batch_tasks = batch_slots.empty() ? 0 : 1;
    pool.for_tasks(batch_tasks + groups.size(), [&](std::size_t t) {
      if (t < batch_tasks) {
        run_batch();
      } else {
        for (const std::size_t slot : groups[t - batch_tasks]) run_stage(slot);
      }
    });
    if (!batch_slots.empty()) {
      ++report.batch_calls;
      report.max_stage_batch =
          std::max(report.max_stage_batch, batch_slots.size());
    }

    // 5. Post-pass on the driver thread, in ready order: advance the state
    //    machines and schedule wakes. Single-threaded scheduling is what
    //    keeps event seq numbers — and the whole schedule — deterministic.
    for (std::size_t slot = 0; slot < ready.size(); ++slot) {
      const std::size_t i = ready[slot];
      StageResult& r = results[slot];
      Cell& c = cells[i];
      c.total_us += r.stage_us;
      const Micros wait_us = std::min(r.wait_us, r.stage_us);
      const Micros service_us = r.stage_us - wait_us;
      c.wait_us += wait_us;
      // c.next still names the stage that just ran (advanced below).
      const auto stage_idx = static_cast<std::size_t>(c.next);
      if (stage_idx < kStageCount) {
        stage_wait[stage_idx].observe(to_ms(wait_us));
        stage_service[stage_idx].observe(to_ms(service_us));
        stage_wait_total[stage_idx] += wait_us;
        stage_service_total[stage_idx] += service_us;
        stage_real[stage_idx].observe(r.real_ms);
        stage_real_total[stage_idx] += r.real_ms;
        if (r.batched) ++stage_batched[stage_idx];
      }
      if (r.next == SessionState::kDone || r.next == SessionState::kFailed) {
        makespan_us = std::max(makespan_us, now_us + r.stage_us);
      }
      if (r.next == SessionState::kDone) {
        finalize(i, SessionState::kDone, Status::success());
      } else if (r.next == SessionState::kFailed) {
        finalize(i, SessionState::kFailed,
                 r.failure.ok() ? Error::make("gw.session_failed",
                                              "stage reported failure")
                                : std::move(r.failure));
      } else {
        c.next = r.next;
        flight(i, obs::FlightEventType::kPark,
               static_cast<std::uint16_t>(r.next),
               static_cast<std::uint32_t>(r.stage_us), now_us);
        loop.schedule_after(r.stage_us, track_of(i), i);
      }
    }
    const std::size_t parked =
        loop.pending() + gates[kGateEvidence].fifo.size() +
        gates[kGateKds].fifo.size();
    report.peak_parked = std::max(report.peak_parked, parked);
    parked_gauge.set(static_cast<double>(parked));
  }
  running_gauge.set(0.0);
  const auto real_end = std::chrono::steady_clock::now();

  // ---- aggregation -------------------------------------------------------
  report.real_elapsed_ms =
      std::chrono::duration<double, std::milli>(real_end - real_start).count();
  if (report.real_elapsed_ms > 0.0) {
    report.sessions_per_real_sec =
        static_cast<double>(sessions) / (report.real_elapsed_ms / 1000.0);
  }
  for (const auto& st : report.outcomes) {
    if (st.ok()) {
      ++report.succeeded;
    } else {
      ++report.failed;
    }
  }

  const auto& stats = loop.stats();
  report.events_dispatched = stats.dispatched;
  report.batches = stats.batches;
  report.max_batch = stats.max_batch;
  report.virt_makespan_ms = to_ms(makespan_us);
  if (report.virt_makespan_ms > 0.0) {
    report.sessions_per_virtual_sec =
        static_cast<double>(sessions) / (report.virt_makespan_ms / 1000.0);
  }
  report.parked_per_worker =
      static_cast<double>(report.peak_parked) / static_cast<double>(workers());
  report.peak_inflight_evidence = gates[kGateEvidence].peak_inflight;
  report.peak_inflight_kds = gates[kGateKds].peak_inflight;

  Micros total_us = 0;
  Micros wait_total_us = 0;
  std::vector<Micros> sorted(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    sorted[i] = cells[i].total_us;
    report.session_virt_ms[i] = to_ms(cells[i].total_us);
    total_us += cells[i].total_us;
    wait_total_us += cells[i].wait_us;
  }
  std::sort(sorted.begin(), sorted.end());
  report.virt_p50_ms = to_ms(percentile(sorted, 0.50));
  report.virt_p95_ms = to_ms(percentile(sorted, 0.95));
  report.virt_p99_ms = to_ms(percentile(sorted, 0.99));
  std::sort(wake_latencies.begin(), wake_latencies.end());
  report.wake_p99_ms = to_ms(percentile(wake_latencies, 0.99));
  report.wait_virt_ms = to_ms(wait_total_us);
  report.service_virt_ms = to_ms(total_us - wait_total_us);

  // Per-stage wait-vs-service rows, state-machine order; fold the same
  // summaries into the process registry for exporters.
  for (std::size_t s = 0; s < kStageCount; ++s) {
    if (stage_wait[s].count() == 0) continue;
    StagedReport::StageBreakdown row;
    row.stage = static_cast<SessionState>(s);
    row.count = stage_wait[s].count();
    row.wait_p50_ms = stage_wait[s].quantile(0.50);
    row.wait_p99_ms = stage_wait[s].quantile(0.99);
    row.service_p50_ms = stage_service[s].quantile(0.50);
    row.service_p99_ms = stage_service[s].quantile(0.99);
    row.wait_total_ms = to_ms(stage_wait_total[s]);
    row.service_total_ms = to_ms(stage_service_total[s]);
    row.real_p50_ms = stage_real[s].quantile(0.50);
    row.real_p99_ms = stage_real[s].quantile(0.99);
    row.real_total_ms = stage_real_total[s];
    row.batched = stage_batched[s];
    report.stage_breakdown.push_back(row);
    const obs::Labels labels = {{"stage", to_string(row.stage)}};
    metrics.summary("gw.stage.wait.ms", labels).merge_from(stage_wait[s]);
    metrics.summary("gw.stage.service.ms", labels)
        .merge_from(stage_service[s]);
  }

  // Dump-on-anomaly: failed/shed sessions first (their timelines answer
  // "why did this fail"), then the virtual-latency tail at or beyond the
  // tail quantile, up to kMaxDumps total.
  if (recording) {
    for (const auto& rec : recorders) report.recorder_bytes += rec.bytes();
    const Micros tail_us = percentile(sorted, kTailQuantile);
    const auto dump = [&](std::size_t i, const char* reason) {
      if (report.anomaly_dumps.size() >= kMaxDumps) return;
      report.anomaly_dumps.push_back(
          recorders[i].to_json(static_cast<std::uint64_t>(i), reason));
    };
    for (std::size_t i = 0; i < sessions; ++i) {
      if (report.outcomes[i].ok()) continue;
      dump(i, report.outcomes[i].error().code == "gw.admission.shed"
                  ? "shed"
                  : "failed");
    }
    for (std::size_t i = 0; i < sessions; ++i) {
      if (!report.outcomes[i].ok()) continue;
      if (cells[i].total_us >= tail_us) dump(i, "p99_tail");
    }
  }

  report.engine_bytes = sessions * sizeof(Cell) + loop.peak_heap_bytes() +
                        report.peak_queue_depth * sizeof(std::size_t) +
                        report.recorder_bytes;
  if (report.peak_parked > 0) {
    report.bytes_per_parked_session =
        static_cast<double>(report.engine_bytes) /
        static_cast<double>(report.peak_parked);
  }

  // Transcript digest: the run's observable outcome, hashed in session
  // order. Two same-seed runs must produce the same hex string bit for bit.
  crypto::Sha256 digest;
  for (std::size_t i = 0; i < sessions; ++i) {
    std::uint8_t rec[17];
    std::uint64_t idx = static_cast<std::uint64_t>(i);
    std::memcpy(rec, &idx, 8);
    rec[8] = static_cast<std::uint8_t>(report.final_states[i]);
    std::memcpy(rec + 9, &cells[i].total_us, 8);
    digest.update(ByteView(rec, sizeof(rec)));
    if (!report.outcomes[i].ok()) {
      digest.update(to_bytes(report.outcomes[i].error().code));
    }
  }
  report.transcript_digest = to_hex(digest.finish().view());

  report.chain_stats = chain_cache_.stats();
  report.vcek_stats = vcek_cache_.stats();
  return report;
}

}  // namespace revelio::core
