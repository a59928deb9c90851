// PR 7 observability layer: log-bucket quantile summaries, the per-session
// flight recorder, the tamper-evident attestation audit chain, and the
// process tracer under pool fan-out (spans only on the calling lane).
// Companion to test_obs.cpp (tracer/metrics/log basics) — everything here
// is new surface.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/hex.hpp"
#include "common/parallel.hpp"
#include "common/sim_clock.hpp"
#include "obs/audit_log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pki/ca.hpp"
#include "revelio/session_engine.hpp"

namespace revelio {
namespace {

// ------------------------------------------------- quantile summaries

/// Deterministic 64-bit mix (splitmix64) — same stream on every platform,
/// so the estimator-vs-exact comparison is reproducible bit for bit.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Exact nearest-rank quantile over a sorted sample — the reference the
/// log-bucket estimator is gated against.
double exact_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (q <= 0.0) return sorted.front();
  if (q >= 1.0) return sorted.back();
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(rank == 0 ? 0 : rank - 1, sorted.size() - 1)];
}

TEST(Summary, EstimatorTracksExactNearestRankWithinBound) {
  // A heavy-tailed mix spanning ~6 decades: mostly sub-10ms with a long
  // tail into the tens of seconds, like real stage latencies.
  obs::Summary summary;
  std::vector<double> values;
  for (std::uint64_t i = 0; i < 20000; ++i) {
    const std::uint64_t r = mix64(i * 0x2545f4914f6cdd1dull + 17);
    double v = 0.05 + static_cast<double>(r % 10000) / 1000.0;  // 0.05..10ms
    if (r % 97 == 0) v *= 100.0;   // 1% tail: ~x100
    if (r % 997 == 0) v *= 1000.0; // 0.1% deep tail: ~x1000
    values.push_back(v);
    summary.observe(v);
  }
  std::sort(values.begin(), values.end());

  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const double exact = exact_quantile(values, q);
    const double est = summary.quantile(q);
    EXPECT_LE(std::abs(est - exact) / exact, 0.04)
        << "q=" << q << " exact=" << exact << " est=" << est;
  }
  // The edges are exact, not bucket midpoints.
  EXPECT_DOUBLE_EQ(summary.quantile(0.0), values.front());
  EXPECT_DOUBLE_EQ(summary.quantile(1.0), values.back());
  const auto snap = summary.snapshot();
  EXPECT_EQ(snap.count, values.size());
  EXPECT_DOUBLE_EQ(snap.min, values.front());
  EXPECT_DOUBLE_EQ(snap.max, values.back());
}

TEST(Summary, NonPositiveValuesLandInTheFloorBucket) {
  obs::Summary summary;
  summary.observe(0.0);
  summary.observe(-3.5);
  summary.observe(2.0);
  EXPECT_EQ(summary.count(), 3u);
  const auto snap = summary.snapshot();
  EXPECT_DOUBLE_EQ(snap.min, -3.5);
  EXPECT_DOUBLE_EQ(snap.max, 2.0);
  // Two of three observations are <= 0, so the median is clamped to the
  // floor side — never a fabricated positive midpoint.
  EXPECT_LE(snap.p50, 0.0);
}

TEST(Summary, MergeFromMatchesSingleSummaryExactly) {
  // Four threads each observe a private summary; the merge must be
  // bucket-wise identical to observing everything in one summary — run
  // with real threads so tsan checks the locking too.
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 5000;
  obs::Summary reference;
  for (int t = 0; t < kThreads; ++t) {
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      reference.observe(0.01 +
                        static_cast<double>(mix64(t * 1000003ull + i) % 100000) /
                            100.0);
    }
  }

  std::vector<obs::Summary> parts(kThreads);
  obs::Summary merged;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        parts[t].observe(
            0.01 +
            static_cast<double>(mix64(t * 1000003ull + i) % 100000) / 100.0);
      }
      merged.merge_from(parts[t]);  // merge_from is thread-safe
    });
  }
  for (auto& th : threads) th.join();

  const auto a = reference.snapshot();
  const auto b = merged.snapshot();
  EXPECT_EQ(a.count, b.count);
  // Bucket-wise the merge is exact; the running sums differ only by
  // float addition order.
  EXPECT_NEAR(a.sum, b.sum, 1e-6 * a.sum);
  EXPECT_DOUBLE_EQ(a.min, b.min);
  EXPECT_DOUBLE_EQ(a.max, b.max);
  EXPECT_DOUBLE_EQ(a.p50, b.p50);
  EXPECT_DOUBLE_EQ(a.p99, b.p99);
  EXPECT_DOUBLE_EQ(a.p999, b.p999);
}

TEST(Summary, RegistryExportsSummariesInJson) {
  obs::MetricsRegistry reg;
  reg.summary("stage.ms", {{"stage", "verify"}}).observe(4.0);
  reg.summary("stage.ms", {{"stage", "verify"}}).observe(8.0);
  reg.summary("stage.ms", {{"stage", "kds"}}).observe(1.0);
  EXPECT_EQ(reg.summary("stage.ms", {{"stage", "verify"}}).count(), 2u);

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"summaries\""), std::string::npos);
  EXPECT_NE(json.find("stage.ms{stage=verify}"), std::string::npos);
  EXPECT_NE(json.find("stage.ms{stage=kds}"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);

  // Every registry exports the same three sections, summaries or not.
  obs::MetricsRegistry counters_only;
  counters_only.counter("c").inc();
  EXPECT_EQ(counters_only.to_json(),
            "{\"counters\":{\"c\":1},\"gauges\":{},\"summaries\":{}}");
}

// --------------------------------------------------- flight recorder

TEST(FlightRecorder, RingWrapKeepsNewestAndCountsDrops) {
  obs::FlightRecorder rec(4);
  EXPECT_EQ(rec.bytes(), 4 * sizeof(obs::FlightRecorder::Event));
  for (std::uint32_t i = 0; i < 6; ++i) {
    rec.record_at(i * 10, obs::FlightEventType::kStageEnter,
                  static_cast<std::uint16_t>(i), i);
  }
  EXPECT_EQ(rec.recorded(), 6u);
  EXPECT_EQ(rec.dropped(), 2u);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first, and the two oldest (arg 0, 1) were overwritten.
  EXPECT_EQ(events.front().arg, 2u);
  EXPECT_EQ(events.back().arg, 5u);
  EXPECT_EQ(events.back().t_us, 50u);

  const std::string dump = rec.to_json(42, "failed");
  EXPECT_NE(dump.find("\"session\":42"), std::string::npos);
  EXPECT_NE(dump.find("\"reason\":\"failed\""), std::string::npos);
  EXPECT_NE(dump.find("\"dropped\":2"), std::string::npos);
  EXPECT_NE(dump.find("\"stage_enter\""), std::string::npos);
}

TEST(FlightRecorder, ThreadBindingMakesChargeSitesFree) {
  // Unbound: the charge sites are no-ops, not crashes.
  ASSERT_EQ(obs::session_record(), nullptr);
  obs::flight_record(obs::FlightEventType::kRetry, 1, 100);
  obs::note_wait_us(100);

  SimClock world_clock;  // a stage's world clock, far from engine time
  world_clock.advance_us(3'000'000);
  obs::FlightRecorder rec(8);
  obs::SessionRecord record;
  record.ring = &rec;
  record.now_us = 4200;
  {
    obs::ScopedSessionRecord scope(&record);
    EXPECT_EQ(obs::session_record(), &record);
    obs::flight_record(obs::FlightEventType::kCacheMiss, 1);
    obs::note_wait_us(300);
    obs::flight_record(obs::FlightEventType::kCacheHit, 1);
  }
  EXPECT_EQ(obs::session_record(), nullptr);
  obs::flight_record(obs::FlightEventType::kVerdict, 1);  // after unbind
  EXPECT_EQ(rec.recorded(), 2u);
  EXPECT_EQ(static_cast<obs::FlightEventType>(rec.events()[0].type),
            obs::FlightEventType::kCacheMiss);
  // Deep events carry the dispatch instant, not the bound world clock.
  for (const auto& e : rec.events()) EXPECT_EQ(e.t_us, 4200u);
  EXPECT_EQ(record.waited_us, 300u);

  // A ring-less record (recorder off) still collects waits.
  obs::SessionRecord waits_only;
  {
    obs::ScopedSessionRecord scope(&waits_only);
    obs::flight_record(obs::FlightEventType::kRetry, 1, 100);
    obs::note_wait_us(50);
  }
  EXPECT_EQ(waits_only.waited_us, 50u);
}

// --------------------------------------------------- audit hash chain

obs::AuditRecord sample_record(std::uint64_t i, bool accepted) {
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

TEST(AuditLog, RecordRoundTripsThroughTheWire) {
  const obs::AuditRecord rec = sample_record(9, false);
  const Bytes wire = rec.serialize();
  ASSERT_EQ(wire.size(), obs::AuditRecord::kWireSize);
  const auto parsed = obs::AuditRecord::parse(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  const obs::AuditRecord& back = *parsed;
  EXPECT_EQ(back.session, rec.session);
  EXPECT_EQ(back.virt_us, rec.virt_us);
  EXPECT_EQ(back.accepted, rec.accepted);
  EXPECT_EQ(back.checks, rec.checks);
  EXPECT_EQ(back.failure_step, rec.failure_step);
  EXPECT_EQ(back.measurement, rec.measurement);
  EXPECT_EQ(back.vcek_chain, rec.vcek_chain);
  EXPECT_EQ(back.tcb, rec.tcb);
  EXPECT_EQ(back.evidence_digest, rec.evidence_digest);
}

TEST(AuditLog, VerifyReplaysChainCheckpointsAndHead) {
  obs::AuditLog log(/*checkpoint_interval=*/4);
  for (std::uint64_t i = 0; i < 11; ++i) {
    log.append(sample_record(i, i % 3 != 0));
  }
  EXPECT_EQ(log.records(), 11u);
  EXPECT_EQ(log.checkpoints(), 2u);  // records 0-3 and 4-7; 8-10 still open

  const Bytes stream = log.serialize();
  const auto verified = obs::AuditLog::verify(stream);
  ASSERT_TRUE(verified.ok()) << verified.error().to_string();
  EXPECT_EQ(verified.value().records, 11u);
  EXPECT_EQ(verified.value().checkpoints, 2u);
  EXPECT_EQ(verified.value().accepted, 7u);
  EXPECT_EQ(verified.value().rejected, 4u);
  EXPECT_EQ(verified.value().head_hex, to_hex(log.head().view()));
}

TEST(AuditLog, AnySingleFlippedByteIsDetected) {
  obs::AuditLog log(/*checkpoint_interval=*/2);
  for (std::uint64_t i = 0; i < 5; ++i) log.append(sample_record(i, true));
  const Bytes stream = log.serialize();
  ASSERT_TRUE(obs::AuditLog::verify(stream).ok());

  // Flip one byte at a time across the whole stream — header, every
  // record, both checkpoints, the trailer. Every position must fail.
  for (std::size_t pos = 0; pos < stream.size(); ++pos) {
    Bytes tampered = stream;
    tampered[pos] ^= 0x01;
    const auto result = obs::AuditLog::verify(tampered);
    EXPECT_FALSE(result.ok()) << "flipped byte at offset " << pos;
    if (!result.ok() && pos >= 16) {
      EXPECT_EQ(result.error().code, "audit.tamper") << "offset " << pos;
    }
  }

  // Truncation (dropping the trailer or a whole frame) must also fail.
  EXPECT_FALSE(
      obs::AuditLog::verify(ByteView(stream).subspan(0, stream.size() - 33))
          .ok());
}

TEST(AuditLog, ConcurrentAppendsKeepTheChainConsistent) {
  obs::AuditLog log(/*checkpoint_interval=*/8);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 64;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        log.append(sample_record(t * kPerThread + i, true));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(log.records(), kThreads * kPerThread);
  const auto verified = obs::AuditLog::verify(log.serialize());
  ASSERT_TRUE(verified.ok()) << verified.error().to_string();
  EXPECT_EQ(verified.value().records, kThreads * kPerThread);
  EXPECT_EQ(verified.value().checkpoints, kThreads * kPerThread / 8);
}

TEST(AuditLog, ParseRejectsTruncatedAndOversizedWires) {
  const Bytes wire = sample_record(3, true).serialize();

  // Every strict prefix must be refused — no partial record ever parses.
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const auto short_parse =
        obs::AuditRecord::parse(ByteView(wire).subspan(0, len));
    ASSERT_FALSE(short_parse.ok()) << "prefix of " << len << " parsed";
    EXPECT_EQ(short_parse.error().code, "audit.record_truncated");
  }

  // Trailing garbage must be refused too: a record is exactly kWireSize.
  Bytes padded = wire;
  padded.push_back(0x00);
  const auto long_parse = obs::AuditRecord::parse(padded);
  ASSERT_FALSE(long_parse.ok());
  EXPECT_EQ(long_parse.error().code, "audit.record_oversized");
}

TEST(AuditLog, VerifyPrefixDistinguishesTruncationFromTampering) {
  obs::AuditLog log(/*checkpoint_interval=*/4);
  for (std::uint64_t i = 0; i < 6; ++i) log.append(sample_record(i, true));
  const Bytes stream = log.serialize();

  // Intact stream: complete, every frame valid.
  const auto whole = obs::AuditLog::verify_prefix(stream);
  ASSERT_TRUE(whole.ok());
  EXPECT_TRUE(whole->complete);
  EXPECT_FALSE(whole->truncated);
  EXPECT_EQ(whole->summary.records, 6u);
  EXPECT_EQ(whole->last_valid_record, 6u);

  // Chop the stream anywhere after the header: always reported as a
  // clean truncation (what a crash mid-append produces), never tamper,
  // and the verified prefix tells the auditor how much history stands.
  for (std::size_t len = 16; len < stream.size(); ++len) {
    const auto cut = obs::AuditLog::verify_prefix(
        ByteView(stream).subspan(0, len));
    ASSERT_TRUE(cut.ok()) << "cut at " << len;
    EXPECT_FALSE(cut->complete) << "cut at " << len;
    EXPECT_TRUE(cut->truncated) << "cut at " << len;
    EXPECT_LE(cut->summary.records, 6u);
    EXPECT_EQ(cut->last_valid_record, cut->summary.records);
  }

  // A flipped byte inside a *complete* stream is tampering, not truncation.
  Bytes tampered = stream;
  tampered[40] ^= 0x01;
  const auto flip = obs::AuditLog::verify_prefix(tampered);
  ASSERT_TRUE(flip.ok());
  EXPECT_FALSE(flip->complete);
  EXPECT_FALSE(flip->truncated);
  EXPECT_EQ(flip->failure_code, "audit.tamper");
}

TEST(AuditLog, RestoreRebuildsChainAndContinuesAppending) {
  obs::AuditLog original(/*checkpoint_interval=*/4);
  for (std::uint64_t i = 0; i < 9; ++i) {
    original.append(sample_record(i, i % 2 == 0));
  }
  const Bytes stream = original.serialize();

  obs::AuditLog revived(/*checkpoint_interval=*/4);
  ASSERT_TRUE(revived.restore(stream).ok());
  EXPECT_EQ(revived.records(), original.records());
  EXPECT_EQ(revived.checkpoints(), original.checkpoints());
  EXPECT_EQ(revived.head(), original.head());

  // Appends continue the chain seamlessly: both logs fed the same next
  // record reach the same head.
  revived.append(sample_record(9, true));
  original.append(sample_record(9, true));
  EXPECT_EQ(revived.head(), original.head());
  ASSERT_TRUE(obs::AuditLog::verify(revived.serialize()).ok());

  // A truncated stream restores nothing (fail closed) ...
  obs::AuditLog blank(/*checkpoint_interval=*/4);
  EXPECT_FALSE(
      blank.restore(ByteView(stream).subspan(0, stream.size() - 1)).ok());
  EXPECT_EQ(blank.records(), 0u);
  // ... and so does an interval mismatch.
  obs::AuditLog wrong_interval(/*checkpoint_interval=*/8);
  EXPECT_FALSE(wrong_interval.restore(stream).ok());

  // Restore is only for empty logs: the revived one must refuse.
  EXPECT_FALSE(revived.restore(stream).ok());
}

TEST(AuditLog, SinkSeesEveryFrameAndFailuresAreCounted) {
  obs::AuditLog log(/*checkpoint_interval=*/2);
  std::vector<std::uint8_t> types;
  int fail_after = 5;
  log.set_sink([&](std::uint8_t frame_type, ByteView) {
    if (static_cast<int>(types.size()) >= fail_after) {
      return Status(Error::make("store.io_crashed", "disk gone"));
    }
    types.push_back(frame_type);
    return Status::success();
  });

  for (std::uint64_t i = 0; i < 6; ++i) log.append(sample_record(i, true));
  // 6 records + 3 checkpoints (after records 2, 4, 6) = 9 frames; the sink
  // accepted 5 and then failed. The in-memory chain is unaffected.
  EXPECT_EQ(types.size(), 5u);
  EXPECT_EQ(log.sink_failures(), 4u);
  EXPECT_EQ(log.records(), 6u);
  ASSERT_TRUE(obs::AuditLog::verify(log.serialize()).ok());
}

// ------------------------------------------- process tracer, pool fan-out

/// Enables the process tracer for one test and restores it after.
class ProcessTracerOn {
 public:
  ProcessTracerOn() {
    obs::tracer().clear();
    obs::tracer().set_enabled(true);
  }
  ~ProcessTracerOn() {
    obs::tracer().set_enabled(false);
    obs::tracer().clear();
  }
};

TEST(Trace, PoolWorkerSpansStayOutOfTheProcessTracer) {
  ProcessTracerOn on;
  common::ThreadPool pool(4);
  ASSERT_GE(pool.width(), 2u);

  // Two tasks that must be in flight simultaneously: a two-party barrier
  // guarantees two *distinct* lanes participate, so at least one task runs
  // on a pool worker (lane != 0) no matter how claiming races.
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  std::vector<unsigned> lanes(2, 0);
  std::vector<std::uint64_t> ids(2, 0);

  pool.for_tasks(2, [&](std::size_t i) {
    {
      std::unique_lock<std::mutex> lock(mu);
      ++arrived;
      cv.notify_all();
      cv.wait(lock, [&] { return arrived == 2; });
    }
    lanes[i] = common::current_lane();
    obs::Span span("task");
    span.attr("task", static_cast<std::uint64_t>(i));
    ids[i] = span.id();
  });

  EXPECT_TRUE(lanes[0] != 0 || lanes[1] != 0)
      << "two concurrent tasks cannot both be the caller lane";
  std::size_t caller_tasks = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    if (lanes[i] == 0) {
      ++caller_tasks;
      EXPECT_NE(ids[i], 0u) << "the caller lane traces";
      ASSERT_FALSE(obs::tracer().finished_spans().empty());
      EXPECT_EQ(obs::tracer().finished_spans().front().attr("task"),
                std::to_string(i));
    } else {
      EXPECT_EQ(ids[i], 0u) << "a worker-lane span must be inactive";
    }
  }
  EXPECT_EQ(obs::tracer().finished_spans().size(), caller_tasks);
  EXPECT_EQ(obs::tracer().open_spans(), 0u);
}

// ------------------------------------------- engine integration (staged)

double synth_stage_ms(std::size_t index, int stage) {
  std::uint64_t x = static_cast<std::uint64_t>(index) * 2654435761ull +
                    static_cast<std::uint64_t>(stage) * 40503ull + 11;
  x = mix64(x);
  return 1.0 + static_cast<double>(x % 97) / 10.0;
}

core::SessionState advance(core::StagedContext& ctx) {
  using core::SessionState;
  switch (ctx.state) {
    case SessionState::kHandshake: return SessionState::kEvidenceFetch;
    case SessionState::kEvidenceFetch: return SessionState::kKdsFetch;
    case SessionState::kKdsFetch: return SessionState::kVerify;
    case SessionState::kVerify: return SessionState::kPageFetch;
    case SessionState::kPageFetch: return SessionState::kDone;
    default: return SessionState::kFailed;
  }
}

TEST(StagedEngine, RecorderDumpsAnomaliesAndBreaksDownStages) {
  core::SessionEngineConfig config;
  config.workers = 4;
  config.flight_recorder = true;
  obs::AuditLog audit(/*checkpoint_interval=*/16);
  config.audit_log = &audit;
  core::SessionEngine engine(config);

  // The failing session walks a real chain through the engine's chain
  // cache first (a miss, then a hit), so its dump must show the walk.
  constexpr std::uint64_t kYearUs = 365ull * 24 * 3600 * 1000 * 1000;
  crypto::HmacDrbg drbg(to_bytes(std::string_view("recorder-chain")));
  auto root = pki::CertificateAuthority::create_root(
      crypto::p256(), {"Recorder Root", "TestOrg", "US"}, 0, kYearUs, drbg);
  const auto leaf_key = crypto::ec_generate(crypto::p256(), drbg);
  const auto leaf = root.issue(
      pki::make_csr(crypto::p256(), leaf_key,
                    {"site.example", "Leaf", "US"}, {"site.example"}),
      0, kYearUs);
  ASSERT_TRUE(leaf.ok());
  pki::ChainVerifyOptions chain_options;
  chain_options.now_us = kYearUs / 2;

  constexpr std::size_t kSessions = 256;
  core::AdmissionConfig admission;
  admission.max_inflight_kds = 2;
  admission.on_overload = core::AdmissionConfig::Overload::kShed;

  const auto report = engine.run_staged(
      kSessions, [&](core::StagedContext& ctx) -> core::SessionState {
        ctx.stage_virt_ms =
            synth_stage_ms(ctx.index, static_cast<int>(ctx.state));
        // Fail before the kds gate so the failure cannot be shed away.
        if (ctx.state == core::SessionState::kEvidenceFetch &&
            ctx.index == 7) {
          for (int i = 0; i < 2; ++i) {
            EXPECT_TRUE(ctx.chain_cache
                            ->verify(*leaf, {}, {root.certificate()},
                                     chain_options)
                            .ok());
          }
          ctx.failure = Error::make("test.evidence_rejected");
          return core::SessionState::kFailed;
        }
        return advance(ctx);
      },
      admission);

  EXPECT_EQ(report.sessions, kSessions);
  EXPECT_GT(report.shed, 0u) << "kds gate of 2 must shed under 256 sessions";

  // Every anomaly (the failed session, every shed session, the latency
  // tail) dumped a timeline; healthy sessions cost only ring bytes.
  EXPECT_FALSE(report.anomaly_dumps.empty());
  EXPECT_EQ(report.recorder_bytes,
            kSessions * 32 * sizeof(obs::FlightRecorder::Event));
  EXPECT_GE(report.engine_bytes, report.recorder_bytes);
  bool saw_failed = false;
  bool saw_shed = false;
  for (const auto& dump : report.anomaly_dumps) {
    if (dump.find("\"reason\":\"failed\"") != std::string::npos) {
      saw_failed = true;
      // The chain cache (cache id 2) recorded its miss, then its hit.
      const auto miss = dump.find("\"type\":\"cache_miss\",\"arg\":2");
      const auto hit = dump.find("\"type\":\"cache_hit\",\"arg\":2");
      ASSERT_NE(miss, std::string::npos) << dump;
      ASSERT_NE(hit, std::string::npos) << dump;
      EXPECT_LT(miss, hit);
    }
    if (dump.find("\"reason\":\"shed\"") != std::string::npos) saw_shed = true;
  }
  EXPECT_TRUE(saw_failed);
  EXPECT_TRUE(saw_shed);

  // Per-stage wait-vs-service attribution: rows in state-machine order,
  // every dispatched stage present, quantiles ordered and finite.
  ASSERT_FALSE(report.stage_breakdown.empty());
  EXPECT_EQ(report.stage_breakdown.front().stage,
            core::SessionState::kHandshake);
  for (const auto& row : report.stage_breakdown) {
    EXPECT_GT(row.count, 0u);
    EXPECT_LE(row.service_p50_ms, row.service_p99_ms);
    EXPECT_GE(row.service_total_ms, 0.0);
    EXPECT_GE(row.wait_total_ms, 0.0);
  }
  // Every session dispatched a handshake before any gate could shed it.
  EXPECT_EQ(report.stage_breakdown.front().count, kSessions);

  // Shed sessions never reach a web extension, but the audit chain still
  // accounts for them as rejected verdicts.
  EXPECT_EQ(audit.records(), report.shed);
  const auto verified = obs::AuditLog::verify(audit.serialize());
  ASSERT_TRUE(verified.ok()) << verified.error().to_string();
  EXPECT_EQ(verified.value().rejected, report.shed);

  // The process registry got the merged per-stage summaries.
  EXPECT_GT(obs::metrics()
                .summary("gw.stage.service.ms", {{"stage", "handshake"}})
                .count(),
            0u);
}

TEST(StagedEngine, RecorderOffCostsNothingAndStaysDeterministic) {
  core::SessionEngineConfig config;
  config.workers = 2;
  core::SessionEngine engine(config);

  const auto report = engine.run_staged(
      64, [&](core::StagedContext& ctx) -> core::SessionState {
        ctx.stage_virt_ms =
            synth_stage_ms(ctx.index, static_cast<int>(ctx.state));
        return advance(ctx);
      });

  EXPECT_TRUE(report.anomaly_dumps.empty());
  EXPECT_EQ(report.recorder_bytes, 0u);
  EXPECT_EQ(report.succeeded, 64u);

  // Same inputs with the recorder ON: the virtual schedule (and therefore
  // the transcript) must be bit-identical — observation must not perturb
  // the simulation.
  core::SessionEngineConfig config2 = config;
  config2.flight_recorder = true;
  core::SessionEngine engine2(config2);
  const auto report2 = engine2.run_staged(
      64, [&](core::StagedContext& ctx) -> core::SessionState {
        ctx.stage_virt_ms =
            synth_stage_ms(ctx.index, static_cast<int>(ctx.state));
        return advance(ctx);
      });
  EXPECT_EQ(report2.transcript_digest, report.transcript_digest);
  EXPECT_GT(report2.recorder_bytes, 0u);
}

TEST(Trace, FourWorkerEngineRunLeavesTheProcessTracerConsistent) {
  ProcessTracerOn on;
  core::SessionEngineConfig config;
  config.workers = 4;
  core::SessionEngine engine(config);
  std::atomic<std::size_t> opened{0};
  const auto report = engine.run_staged(
      64, [&](core::StagedContext& ctx) -> core::SessionState {
        obs::Span span("gw.test.stage");
        span.attr("index", static_cast<std::uint64_t>(ctx.index));
        if (span.id() != 0) opened.fetch_add(1);
        ctx.stage_virt_ms = 1.0;
        return advance(ctx);
      });
  EXPECT_EQ(report.succeeded, 64u);
  EXPECT_EQ(obs::tracer().open_spans(), 0u);
  // Only calling-lane stages traced; each of them left one finished span.
  EXPECT_EQ(obs::tracer().finished_spans().size(), opened.load());
}

}  // namespace
}  // namespace revelio
