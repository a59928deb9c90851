#!/usr/bin/env bash
# Runs the crypto benchmarks and emits a machine-readable summary.
#
#   bench/run_benches.sh [build-dir] [bench-name...]
#
# Defaults: build-dir = ./build, benches = bench_crypto_primitives.
# Output: BENCH_crypto.json at the repo root — a JSON array of
# {"bench": ..., "op": ..., "ns_per_op": ..., "iterations": ...}, one entry
# per benchmark, suitable for jq / CI regression tracking.
#
# Also writes BENCH_storage.json: the storage rows of the Figure 6 and 5
# binaries (bench_dmverity_read: dm-verity format, open, verify_all and
# block reads of one SHA-256 and compare each on a 16 MiB device;
# bench_dmcrypt_io: AES-XTS dm-crypt block I/O), diffed against the
# committed baseline bench/BENCH_storage.baseline.json — any op whose
# ns_per_op regresses by more than 2x fails the run (wall-clock micro-op noise on
# shared CI hosts swings 25-50% run to run; only wholesale regressions
# are detectable per op), and so does a missing binary or a baseline op
# that no binary reported.
#
# Also writes BENCH_attestation.json: per-stage virtual/real time breakdown
# of one attested GET (cold and VCEK-cached), from the tracing spans inside
# bench_client_attestation --stages-out. The virtual-clock stage totals are
# deterministic, so they are diffed against the committed baseline
# bench/BENCH_attestation.baseline.json; a stage whose virt_ms regresses by
# more than 25% fails the run.
#
# Also writes BENCH_gateway.json from bench_gateway, which drives every
# level through SessionEngine::run_staged: 64 full-crypto sessions at 1
# and 4 workers as staged state machines, and as one-stage "blocking"
# sessions whose lane-model makespan (session i on lane i % workers) the
# bench computes itself; 1k/10k/100k synthetic sessions; a 1000-session
# chaos soak; warm-restart levels. Gated: >= 3x staged-vs-blocking
# virtual throughput at one worker, exactly one KDS fetch per cold
# full-crypto level (shared VCEK cache), zero unverified-trust acceptances
# everywhere (chaos soak included), >= 1000 parked sessions per worker at
# the 100k-session level, bytes/parked-session flat (100k within 15% of
# 1k), bit-identical transcript digests on the replayed synthetic levels,
# and virtual makespan/latency percentiles within 25% of
# bench/BENCH_gateway.baseline.json, the chaos level included.
# A missing or malformed gateway baseline fails the run with a clear
# message — regenerate it by copying a trusted BENCH_gateway.json over
# bench/BENCH_gateway.baseline.json.
#
# PR 7 gates on top of the gateway bench: per-stage wait/service p99s are
# diffed against the baseline (25%, every level), the flight-recorder
# level's virtual-time overhead must stay <= 1.05x its recorder-off twin,
# and the chaos level's audit chain (AUDIT_gateway.bin) must verify with
# tools/audit_verify — and *stop* verifying after a single flipped byte.
#
# PR 8 gates (batch crypto): BENCH_crypto.json is diffed against
# bench/BENCH_crypto.baseline.json (2x per op — wall-clock micro-op noise
# on shared hosts makes anything tighter flap), batch ECDSA must cost
# >= 3x less per signature than a single verify at N=64
# (BM_EcdsaVerify/P384 vs BM_EcdsaVerifyBatch/P384/64). On the gateway
# side, the "staged_batch" levels must pass the same succeed-all and
# one-fetch gates as "staged", cut real verify-stage time by >= 1.5x
# (batch_verify_speedup), actually coalesce work (batch_calls > 0), and
# reproduce the unbatched transcript digest bit for bit at one worker
# (batch_digest_match). The 4-worker staged and staged_batch digests must
# equal the 1-worker staged digest as well.
#
# PR 9 gates (durable state tier): bench_gateway runs with --store-dir so
# the restart levels persist through real files. The warm-restart section
# must report ran=true, the cold phase must pay exactly one KDS fetch per
# restart world (distinct chips), the warm phase must pay ZERO KDS fetches
# (every VCEK chain comes back through the store read-through) with warm
# p50 session latency <= 0.5x cold, no durable write-throughs may fail,
# and the persisted audit chain must both re-verify on open
# (audit_reverified, restored_records > 0) and replay offline via
# tools/audit_verify --store against the store directory itself. A
# bench_gateway binary without the restart section fails with a clear
# message, as does a cold phase that produced no latency baseline.
#
# Each binary is run with --benchmark_out so the JSON stays clean even for
# benches that print their own human-readable tables to stdout.
#
# The crypto, storage, attestation and gateway sections run one after
# another even when an earlier one fails; the exit status is non-zero if
# any section failed, and the last lines name each failed section.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
shift || true
benches=("$@")
if [ "${#benches[@]}" -eq 0 ]; then
  benches=(bench_crypto_primitives)
fi

out_json="$repo_root/BENCH_crypto.json"
tmp_dir="$(mktemp -d)"
trap 'rm -rf "$tmp_dir"' EXIT

# Each section runs in its own errexit subshell, so a failing bench or
# gate fails that section and the next one still runs. The script exits
# non-zero at the end, naming every failed section.
failed_sections=()
run_section() {
  local name="$1"
  shift
  set +e
  (set -e; "$@")
  local rc=$?
  set -e
  if [ "$rc" -ne 0 ]; then
    echo "section $name failed (exit $rc); continuing" >&2
    failed_sections+=("$name")
  fi
}

# --- crypto primitives + batch ratio gate ---------------------------------
crypto_section() {
for bench in "${benches[@]}"; do
  bin="$build_dir/bench/$bench"
  if [ ! -x "$bin" ]; then
    echo "error: $bin not built (run: cmake --build $build_dir -j)" >&2
    exit 1
  fi
  echo "== $bench" >&2
  "$bin" --benchmark_out="$tmp_dir/$bench.json" \
         --benchmark_out_format=json >&2
done

crypto_baseline="$repo_root/bench/BENCH_crypto.baseline.json"
python3 - "$out_json" "$crypto_baseline" "$tmp_dir"/*.json <<'PY'
import json
import os
import sys

out_path, baseline_path = sys.argv[1], sys.argv[2]
scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
rows = []
for path in sys.argv[3:]:
    bench = os.path.splitext(os.path.basename(path))[0]
    with open(path) as f:
        report = json.load(f)
    for b in report.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        unit = scale.get(b.get("time_unit", "ns"), 1.0)
        rows.append({
            "bench": bench,
            "op": b["name"],
            "ns_per_op": round(b["real_time"] * unit, 1),
            "iterations": b["iterations"],
        })
with open(out_path, "w") as f:
    json.dump(rows, f, indent=2)
    f.write("\n")
print(f"wrote {out_path} ({len(rows)} entries)", file=sys.stderr)

failures = []
ns = {(r["bench"], r["op"]): r["ns_per_op"] for r in rows}

# Derived gate: one batched verify must amortize the shared doubling
# ladder into >= 3x less work per signature than N independent verifies.
single = ns.get(("bench_crypto_primitives", "BM_EcdsaVerify/P384"))
batch64 = ns.get(("bench_crypto_primitives", "BM_EcdsaVerifyBatch/P384/64"))
MIN_BATCH_ECDSA_SPEEDUP = 3.0
if single and batch64:
    per_sig = batch64 / 64.0
    ratio = single / per_sig
    print(f"  batch ECDSA @64: {per_sig:.0f} ns/sig vs {single:.0f} ns "
          f"single ({ratio:.2f}x)", file=sys.stderr)
    if ratio < MIN_BATCH_ECDSA_SPEEDUP:
        failures.append(f"batch ECDSA verify at N=64 is only {ratio:.2f}x "
                        f"a single verify (gate {MIN_BATCH_ECDSA_SPEEDUP}x)")
else:
    failures.append("BM_EcdsaVerify/P384 or BM_EcdsaVerifyBatch/P384/64 "
                    "missing from bench output")

# Per-op regression gate vs the committed baseline. Deliberately wide:
# these are single-op wall-clock numbers on whatever host runs CI, and
# back-to-back runs have been observed to swing 25-45% on shared
# single-core machines. The ratio gates above are the precise ones (noise
# cancels); this one only catches wholesale regressions — an accidentally
# disabled fast path shows up as 2-4x, never 1.4x.
try:
    with open(baseline_path) as f:
        baseline = {(r["bench"], r["op"]): r["ns_per_op"]
                    for r in json.load(f)}
except FileNotFoundError:
    print(f"no baseline at {baseline_path}; skipping regression gate",
          file=sys.stderr)
    baseline = None
except json.JSONDecodeError as e:
    print(f"error: crypto baseline {baseline_path} is not valid JSON "
          f"({e}); restore or regenerate it", file=sys.stderr)
    sys.exit(1)

THRESHOLD = 1.0
if baseline is not None:
    for row in rows:
        base = baseline.get((row["bench"], row["op"]))
        if base is None or base <= 0:
            continue
        delta = (row["ns_per_op"] - base) / base
        if delta > THRESHOLD:
            failures.append(f"{row['op']}: {base:.1f} -> "
                            f"{row['ns_per_op']:.1f} ns (+{delta*100:.0f}%)")
    print("crypto ops diffed against baseline (2x)", file=sys.stderr)

if failures:
    print("crypto benchmark gate failure(s):", file=sys.stderr)
    for f_ in failures:
        print(f"  {f_}", file=sys.stderr)
    sys.exit(1)
print("crypto batch gates green", file=sys.stderr)
PY
}

# --- storage fast path + regression gate ----------------------------------
storage_section() {
storage_json="$repo_root/BENCH_storage.json"
storage_baseline="$repo_root/bench/BENCH_storage.baseline.json"
# Each figure binary runs only its gated device rows (and BM_VerityOpen,
# which has no baseline yet).
storage_benches=(
  "bench_dmverity_read:^BM_Verity(Format|Open|VerifyAll|ReadCold|ReadWarm)$"
  "bench_dmcrypt_io:^BM_DmCrypt(Read|Write)Block$"
)
mkdir -p "$tmp_dir/storage"
for entry in "${storage_benches[@]}"; do
  bench="${entry%%:*}"
  bin="$build_dir/bench/$bench"
  if [ ! -x "$bin" ]; then
    echo "error: $bin not built (run: cmake --build $build_dir -j)" >&2
    exit 1
  fi
  echo "== $bench (storage rows)" >&2
  "$bin" --benchmark_filter="${entry#*:}" \
         --benchmark_out="$tmp_dir/storage/$bench.json" \
         --benchmark_out_format=json >&2
done
python3 - "$storage_json" "$storage_baseline" "$tmp_dir"/storage/*.json <<'PY'
import json
import os
import sys

out_path, baseline_path = sys.argv[1], sys.argv[2]
scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
rows = []
for report_path in sys.argv[3:]:
    with open(report_path) as f:
        report = json.load(f)
    for b in report.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        unit = scale.get(b.get("time_unit", "ns"), 1.0)
        rows.append({
            "bench": os.path.splitext(os.path.basename(report_path))[0],
            "op": b["name"],
            "ns_per_op": round(b["real_time"] * unit, 1),
            "iterations": b["iterations"],
        })
with open(out_path, "w") as f:
    json.dump(rows, f, indent=2)
    f.write("\n")
print(f"wrote {out_path} ({len(rows)} entries)", file=sys.stderr)

try:
    with open(baseline_path) as f:
        baseline = {r["op"]: r["ns_per_op"] for r in json.load(f)}
except FileNotFoundError:
    print(f"no baseline at {baseline_path}; skipping regression gate",
          file=sys.stderr)
    sys.exit(0)
except json.JSONDecodeError as e:
    print(f"error: storage baseline {baseline_path} is not valid JSON "
          f"({e}); restore or regenerate it", file=sys.stderr)
    sys.exit(1)

# Wide on purpose: per-op wall clock swings 25-50% between runs on the
# shared single-core CI hosts, so only a wholesale regression (a disabled
# fast path reads 2-4x) is detectable here.
THRESHOLD = 1.0
failures = []
reported = {row["op"] for row in rows}
for op in sorted(set(baseline) - reported):
    failures.append(f"{op}: in the baseline but reported by no binary")
for row in rows:
    base = baseline.get(row["op"])
    if base is None or base <= 0:
        print(f"  {row['op']:24s} {row['ns_per_op']:14.1f} ns  (no baseline)",
              file=sys.stderr)
        continue
    delta = (row["ns_per_op"] - base) / base
    flag = ""
    if delta > THRESHOLD:
        failures.append(f"{row['op']}: {base:.1f} -> {row['ns_per_op']:.1f} ns"
                        f" (+{delta*100:.0f}%)")
        flag = "  <-- REGRESSION"
    print(f"  {row['op']:24s} {row['ns_per_op']:14.1f} ns"
          f" (baseline {base:14.1f} ns, {delta*100:+5.1f}%){flag}",
          file=sys.stderr)
if failures:
    print("storage benchmark failure(s):", file=sys.stderr)
    for f_ in failures:
        print(f"  {f_}", file=sys.stderr)
    sys.exit(1)
print("storage benchmarks within 2x of baseline", file=sys.stderr)
PY
}

# --- per-stage attestation breakdown + regression gate --------------------
attestation_section() {
stages_bin="$build_dir/bench/bench_client_attestation"
stages_json="$repo_root/BENCH_attestation.json"
baseline_json="$repo_root/bench/BENCH_attestation.baseline.json"
if [ -x "$stages_bin" ]; then
  echo "== bench_client_attestation --stages-out" >&2
  "$stages_bin" --stages-out "$stages_json" >&2
  python3 - "$stages_json" "$baseline_json" <<'PY'
import json
import sys

current_path, baseline_path = sys.argv[1], sys.argv[2]
with open(current_path) as f:
    current = json.load(f)
try:
    with open(baseline_path) as f:
        baseline = json.load(f)
except FileNotFoundError:
    print(f"no baseline at {baseline_path}; skipping regression gate",
          file=sys.stderr)
    sys.exit(0)
except json.JSONDecodeError as e:
    print(f"error: attestation baseline {baseline_path} is not valid JSON "
          f"({e}); restore or regenerate it", file=sys.stderr)
    sys.exit(1)

# Only virtual-clock time is diffed: it is deterministic. Real time varies
# with the machine and is reported for information only.
THRESHOLD = 0.25
failures = []
for mode in ("cold", "cached"):
    cur, base = current.get(mode, {}), baseline.get(mode, {})
    rows = [("total", cur.get("total_virt_ms", 0.0),
             base.get("total_virt_ms", 0.0))]
    for name, stats in sorted(base.get("stages", {}).items()):
        cur_stats = cur.get("stages", {}).get(name, {})
        rows.append((name, cur_stats.get("virt_ms", 0.0),
                     stats.get("virt_ms", 0.0)))
    for name, cur_ms, base_ms in rows:
        delta = (cur_ms - base_ms) / base_ms if base_ms > 0 else 0.0
        flag = ""
        if base_ms > 0 and delta > THRESHOLD:
            failures.append(f"{mode}/{name}: {base_ms:.2f} -> {cur_ms:.2f} ms"
                            f" (+{delta*100:.0f}%)")
            flag = "  <-- REGRESSION"
        print(f"  {mode:7s} {name:28s} {cur_ms:9.2f} ms"
              f" (baseline {base_ms:9.2f} ms){flag}", file=sys.stderr)
if failures:
    print("attestation stage regression(s) beyond 25%:", file=sys.stderr)
    for f_ in failures:
        print(f"  {f_}", file=sys.stderr)
    sys.exit(1)
print("attestation stages within 25% of baseline", file=sys.stderr)

# Fault-free overhead of the resilience layer (retry/failover/deadline
# machinery armed but never firing) on a monitored GET. Hard gate: < 2%
# of virtual time, i.e. the layer must be free when nothing fails.
overhead = current.get("retry_overhead", {})
if overhead:
    pct = overhead.get("overhead_pct", 0.0)
    print(f"  retry-layer fault-free overhead: "
          f"{overhead.get('plain_virt_ms', 0.0):.2f} ms -> "
          f"{overhead.get('resilient_virt_ms', 0.0):.2f} ms "
          f"({pct:+.2f}%)", file=sys.stderr)
    if pct >= 2.0:
        print(f"retry-layer overhead {pct:.2f}% breaches the 2% gate",
              file=sys.stderr)
        sys.exit(1)
    print("retry-layer fault-free overhead within the 2% gate",
          file=sys.stderr)
PY
else
  echo "note: $stages_bin not built; skipping attestation stage breakdown" >&2
fi
}

# --- gateway load scaling + regression gate -------------------------------
gateway_section() {
gateway_bin="$build_dir/bench/bench_gateway"
gateway_json="$repo_root/BENCH_gateway.json"
gateway_baseline="$repo_root/bench/BENCH_gateway.baseline.json"
gateway_audit="$repo_root/AUDIT_gateway.bin"
gateway_store="$tmp_dir/gateway_store"
if [ -x "$gateway_bin" ]; then
  echo "== bench_gateway" >&2
  "$gateway_bin" --out "$gateway_json" --audit-out "$gateway_audit" \
                 --store-dir "$gateway_store" >&2
  python3 - "$gateway_json" "$gateway_baseline" <<'PY'
import json
import sys

current_path, baseline_path = sys.argv[1], sys.argv[2]
try:
    with open(current_path) as f:
        current = json.load(f)
except json.JSONDecodeError as e:
    print(f"error: {current_path} is not valid JSON ({e}); bench_gateway "
          f"output is corrupt", file=sys.stderr)
    sys.exit(1)

failures = []


def key(level):
    return f"{level['mode']}/w{level['workers']}/n{level['sessions']}"


# Correctness gates: these hold regardless of any baseline.
blocking = [l for l in current.get("levels", []) if l["mode"] == "blocking"]
staged = [l for l in current.get("levels", []) if l["mode"] == "staged"]
staged_batch = [l for l in current.get("levels", [])
                if l["mode"] == "staged_batch"]
synthetic = [l for l in current.get("levels", []) if l["mode"] == "synthetic"]
chaos = [l for l in current.get("levels", []) if l["mode"] == "chaos"]
restart_levels = [l for l in current.get("levels", [])
                  if l["mode"] in ("restart_cold", "restart_warm")]

# Every fully-verified path must succeed end to end, nothing may be served
# unverified (chaos included: sessions may fail closed, never open), and a
# cold cache costs exactly one KDS round trip per full-crypto level no
# matter how many sessions stampede it.
for level in blocking + staged + staged_batch + synthetic + restart_levels:
    if level["succeeded"] != level["sessions"]:
        failures.append(f"{key(level)}: {level['succeeded']}/"
                        f"{level['sessions']} sessions succeeded")
for level in current.get("levels", []):
    if level["unverified_accepts"] != 0:
        failures.append(f"{key(level)}: "
                        f"{level['unverified_accepts']} unverified accepts")
for level in blocking + staged + staged_batch + chaos:
    if level["vcek"]["fetches"] != 1:
        failures.append(f"{key(level)}: {level['vcek']['fetches']} KDS "
                        f"fetches on a cold cache (VCEK dedup broken)")
    if level["kds_fetch_count_delta"] != 1:
        failures.append(f"{key(level)}: kds.fetch.count rose by "
                        f"{level['kds_fetch_count_delta']}, expected 1")

# The tentpole: parked sessions scale past thread counts. The largest
# synthetic level must park >= 1000 sessions per worker with per-session
# memory flat relative to the smallest level, and every replayed level
# must reproduce its transcript digest bit for bit.
MIN_PARKED_PER_WORKER = 1000.0
MAX_MEMORY_GROWTH = 1.15
if not synthetic:
    failures.append("no synthetic scale levels in bench output")
else:
    largest = max(synthetic, key=lambda l: l["sessions"])
    smallest = min(synthetic, key=lambda l: l["sessions"])
    if largest["parked_per_worker"] < MIN_PARKED_PER_WORKER:
        failures.append(
            f"{key(largest)}: {largest['parked_per_worker']:.0f} parked "
            f"sessions/worker, below the {MIN_PARKED_PER_WORKER:.0f} gate")
    small_bytes = smallest["bytes_per_parked_session"]
    large_bytes = largest["bytes_per_parked_session"]
    if small_bytes > 0 and large_bytes > small_bytes * MAX_MEMORY_GROWTH:
        failures.append(
            f"bytes/parked-session grew {small_bytes:.1f} -> "
            f"{large_bytes:.1f} from {smallest['sessions']} to "
            f"{largest['sessions']} sessions (not flat)")
    for level in synthetic:
        if "deterministic" in level and not level["deterministic"]:
            failures.append(f"{key(level)}: replay produced a different "
                            f"transcript digest (nondeterministic)")

# Chaos soak: lossy links may fail sessions, but most must still land.
for level in chaos:
    if level["succeeded"] < 0.8 * level["sessions"]:
        failures.append(f"{key(level)}: only {level['succeeded']}/"
                        f"{level['sessions']} chaos sessions succeeded")

# Observability must not perturb the simulation: the recorder level re-runs
# a synthetic level with flight-recorder rings on every session, and its
# virtual makespan may grow at most 5%.
MAX_RECORDER_OVERHEAD = 1.05
recorder_overhead = current.get("recorder_overhead_virt", 0.0)
if recorder_overhead <= 0.0:
    failures.append("recorder_overhead_virt missing from bench output")
elif recorder_overhead > MAX_RECORDER_OVERHEAD:
    failures.append(f"flight recorder virtual-time overhead "
                    f"{recorder_overhead:.3f}x breaches the "
                    f"{MAX_RECORDER_OVERHEAD}x gate")
print(f"  recorder_overhead_virt = {recorder_overhead:.4f}x",
      file=sys.stderr)

# The audit chain self-verified in-process (the offline tools/audit_verify
# replay plus tamper probe runs below, in the shell).
audit = current.get("audit", {})
if chaos and not audit.get("ok", False):
    failures.append("in-process audit-chain verification failed")
if chaos and audit.get("records", 0) <= 0:
    failures.append("chaos level produced an empty audit chain")

MIN_STAGED_SPEEDUP = 3.0
speedup = current.get("staged_speedup_1worker", 0.0)
if speedup < MIN_STAGED_SPEEDUP:
    failures.append(f"staged_speedup_1worker = {speedup:.2f}x, below the "
                    f"{MIN_STAGED_SPEEDUP}x gate")

# Batched verify stage: the staged_batch levels hand whole wavefronts of
# verify-ready sessions to the batch crypto layer in one pool task. The
# batching must actually engage, must cut real verify-stage time, and must
# leave the observable outcome untouched — the one-worker staged_batch
# level reproduces the one-worker staged transcript digest bit for bit.
MIN_BATCH_VERIFY_SPEEDUP = 1.5
if not staged_batch:
    failures.append("no staged_batch levels in bench output")
batch_speedup = current.get("batch_verify_speedup", 0.0)
batch_calls = current.get("batch_calls", 0)
if batch_calls <= 0:
    failures.append("batch_calls = 0: the verify stage never batched")
if batch_speedup < MIN_BATCH_VERIFY_SPEEDUP:
    failures.append(f"batch_verify_speedup = {batch_speedup:.2f}x, below "
                    f"the {MIN_BATCH_VERIFY_SPEEDUP}x gate")
if not current.get("batch_digest_match", False):
    failures.append("staged_batch transcript digest diverged from the "
                    "unbatched staged run (1-worker pair)")
# Worker count must not move the transcript: the engine runs every
# kds_fetch session on one lane in ready order, so the 4-worker staged and
# staged_batch digests equal the 1-worker staged digest.
one_worker = [l["transcript_digest"] for l in staged if l["workers"] == 1]
four_worker = [l for l in staged + staged_batch if l["workers"] == 4]
if not one_worker or len(four_worker) != 2:
    failures.append("staged/staged_batch levels at 1 and 4 workers missing "
                    "from bench output")
for level in four_worker:
    if one_worker and level["transcript_digest"] != one_worker[0]:
        failures.append(f"{key(level)}: transcript digest "
                        f"{level['transcript_digest'][:8]} differs from the "
                        f"1-worker staged digest {one_worker[0][:8]}")
print(f"  batch_verify_speedup = {batch_speedup:.2f}x "
      f"({batch_calls} batch calls, digest_match="
      f"{current.get('batch_digest_match', False)})", file=sys.stderr)

# Durable state tier (PR 9): the warm-restart levels. A gateway rebuilt
# over a reopened store must serve every session without touching the KDS
# (the persisted VCEK/chain entries are the cache), must be at least 2x
# faster at the median, and must have re-verified its persisted audit
# chain before accepting a single new verdict. These gates have no
# baseline file — the contract is absolute — but a bench binary that
# never ran the restart section is itself a failure, not a skip.
MAX_WARM_COLD_RATIO = 0.5
restart = current.get("restart")
if restart is None or not restart.get("ran", False):
    failures.append("restart section missing from bench output "
                    "(bench_gateway predates the durable state tier, or "
                    "the restart levels never ran)")
else:
    worlds = restart.get("worlds", 0)
    cold_p50 = restart.get("cold_p50_ms", 0.0)
    warm_p50 = restart.get("warm_p50_ms", 0.0)
    if len(restart_levels) != 2:
        failures.append(f"expected restart_cold + restart_warm levels, "
                        f"found {len(restart_levels)}")
    if restart.get("cold_fetches", 0) != worlds:
        failures.append(f"restart cold phase paid "
                        f"{restart.get('cold_fetches', 0)} KDS fetches "
                        f"for {worlds} distinct-chip worlds, expected "
                        f"{worlds}")
    if restart.get("warm_fetches", -1) != 0:
        failures.append(f"restart warm phase paid "
                        f"{restart.get('warm_fetches', -1)} KDS fetches, "
                        f"expected 0 (store read-through broken)")
    if restart.get("warm_vcek_store_hits", 0) < worlds:
        failures.append(f"warm phase served only "
                        f"{restart.get('warm_vcek_store_hits', 0)} VCEK "
                        f"chains from the store, expected {worlds}")
    if restart.get("store_write_failures", 0) != 0:
        failures.append(f"{restart.get('store_write_failures', 0)} durable "
                        f"cache write-throughs failed during the restart "
                        f"levels")
    if cold_p50 <= 0.0:
        failures.append("restart cold phase produced no p50 latency "
                        "baseline (cold_p50_ms missing or zero); cannot "
                        "gate the warm/cold ratio")
    elif warm_p50 > MAX_WARM_COLD_RATIO * cold_p50:
        failures.append(f"warm restart p50 {warm_p50:.1f} ms vs cold "
                        f"{cold_p50:.1f} ms: ratio "
                        f"{warm_p50 / cold_p50:.2f} breaches the "
                        f"{MAX_WARM_COLD_RATIO}x gate")
    if not restart.get("audit_reverified", False):
        failures.append("persisted audit chain failed re-verification "
                        "across the restart")
    if restart.get("audit_restored_records", 0) <= 0:
        failures.append("warm restart restored no audit records; the "
                        "cold phase's verdicts did not persist")
    ratio = warm_p50 / cold_p50 if cold_p50 > 0 else 0.0
    print(f"  warm restart ({restart.get('backend', '?')} store): "
          f"p50 {cold_p50:.1f} -> {warm_p50:.1f} ms ({ratio:.2f}x), "
          f"fetches {restart.get('cold_fetches', 0)} -> "
          f"{restart.get('warm_fetches', 0)}, "
          f"{restart.get('audit_restored_records', 0)} audit records "
          f"re-verified", file=sys.stderr)

# Regression gate: virtual-clock makespan and latency vs the committed
# baseline. Real time is machine-dependent and reported only. The baseline
# is required: a missing or unreadable one is a failure, not a skip.
THRESHOLD = 0.25
try:
    with open(baseline_path) as f:
        baseline = json.load(f)
except FileNotFoundError:
    print(f"error: gateway baseline missing at {baseline_path}; copy a "
          f"trusted BENCH_gateway.json there to re-baseline", file=sys.stderr)
    sys.exit(1)
except json.JSONDecodeError as e:
    print(f"error: gateway baseline {baseline_path} is not valid JSON "
          f"({e}); restore or regenerate it", file=sys.stderr)
    sys.exit(1)

base_levels = {key(l): l for l in baseline.get("levels", [])}
for level in current.get("levels", []):
    base = base_levels.get(key(level))
    if base is None:
        print(f"  {key(level):26s} (no baseline entry)", file=sys.stderr)
        continue
    for metric in ("virt_makespan_ms", "virt_p50_ms", "virt_p95_ms",
                   "virt_p99_ms"):
        cur_ms = level.get(metric, 0.0)
        base_ms = base.get(metric, 0.0)
        delta = (cur_ms - base_ms) / base_ms if base_ms > 0 else 0.0
        flag = ""
        if base_ms > 0 and delta > THRESHOLD:
            failures.append(f"{key(level)} {metric}: {base_ms:.1f} -> "
                            f"{cur_ms:.1f} ms (+{delta*100:.0f}%)")
            flag = "  <-- REGRESSION"
        print(f"  {key(level):26s} {metric:18s} {cur_ms:9.1f} ms"
              f" (baseline {base_ms:9.1f} ms){flag}", file=sys.stderr)
    # Per-stage tail attribution: a stage whose wait or service p99 grows
    # past the threshold is a localized regression even when the end-to-end
    # percentiles absorb it.
    base_stages = {s["stage"]: s for s in base.get("stages", [])}
    for stage in level.get("stages", []):
        base_stage = base_stages.get(stage["stage"])
        if base_stage is None:
            continue
        for metric in ("wait_p99_ms", "service_p99_ms"):
            cur_ms = stage.get(metric, 0.0)
            base_ms = base_stage.get(metric, 0.0)
            delta = (cur_ms - base_ms) / base_ms if base_ms > 0 else 0.0
            if base_ms > 0 and delta > THRESHOLD:
                failures.append(
                    f"{key(level)} stage {stage['stage']} {metric}: "
                    f"{base_ms:.2f} -> {cur_ms:.2f} ms (+{delta*100:.0f}%)")
                print(f"  {key(level):26s} {stage['stage']}/{metric}: "
                      f"{base_ms:.2f} -> {cur_ms:.2f} ms  <-- REGRESSION",
                      file=sys.stderr)
print(f"  staged_speedup_1worker = {speedup:.2f}x", file=sys.stderr)

if failures:
    print("gateway gate failure(s):", file=sys.stderr)
    for f_ in failures:
        print(f"  {f_}", file=sys.stderr)
    sys.exit(1)
print("gateway engine, scale, memory, and determinism gates all green",
      file=sys.stderr)
PY

  # Offline audit replay: the standalone verifier (no gateway state) must
  # accept the chain the chaos level exported, and must reject it again
  # after a single flipped byte — the tamper-evidence property itself.
  audit_bin="$build_dir/tools/audit_verify"
  if [ ! -x "$audit_bin" ]; then
    echo "error: $audit_bin not built (run: cmake --build $build_dir -j)" >&2
    exit 1
  fi
  if [ ! -s "$gateway_audit" ]; then
    echo "error: $gateway_audit missing or empty; bench_gateway should" \
         "have written the chaos level's audit chain" >&2
    exit 1
  fi
  echo "== tools/audit_verify $gateway_audit" >&2
  "$audit_bin" "$gateway_audit" >&2
  tampered="$tmp_dir/audit_tampered.bin"
  python3 - "$gateway_audit" "$tampered" <<'PY'
import sys
with open(sys.argv[1], "rb") as f:
    data = bytearray(f.read())
data[len(data) // 2] ^= 0x01  # flip one bit mid-stream
with open(sys.argv[2], "wb") as f:
    f.write(data)
PY
  if "$audit_bin" "$tampered" >&2; then
    echo "error: audit_verify accepted a tampered chain" >&2
    exit 1
  fi
  echo "audit chain verified; single-byte tamper correctly rejected" >&2

  # Durable tier end-to-end: the restart levels persisted their audit
  # chain through the real-file store backend; the standalone verifier
  # must rebuild the stream from the store directory and re-verify the
  # whole hash chain offline.
  if [ ! -d "$gateway_store" ]; then
    echo "error: $gateway_store missing; bench_gateway --store-dir should" \
         "have persisted the restart levels' durable state" >&2
    exit 1
  fi
  echo "== tools/audit_verify --store $gateway_store" >&2
  "$audit_bin" --store "$gateway_store" >&2
  echo "store-backed audit chain verified offline" >&2
else
  echo "note: $gateway_bin not built; skipping gateway load bench" >&2
fi
}

run_section crypto crypto_section
run_section storage storage_section
run_section attestation attestation_section
run_section gateway gateway_section

if [ "${#failed_sections[@]}" -gt 0 ]; then
  echo "run_benches: failed section(s): ${failed_sections[*]}" >&2
  exit 1
fi
echo "run_benches: every section passed" >&2
