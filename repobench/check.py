#!/usr/bin/env python3
"""Checks the benchmark itself: run-to-run spread and seeded determinism.

    python3 repobench/check.py spread --workload attest_cold --seeds 1-10
    python3 repobench/check.py determinism [--seconds 4]

spread runs the workload once per seed through run.py and prints, per
end-to-end metric, the median and the quartile spread (q3 - q1) / median,
next to the metric's bound in BENCHMARK.json.

determinism runs every workload traced twice with seed 1 and once with
seed 2. The two seed-1 runs must print the same fingerprint: every
count-type per-layer metric and the virtual-time percentiles. Seed 2 must
change the generated inputs but neither the counts nor the virtual-time
percentiles. No count may vary between the rounds of one run. Metrics listed in NONDETERMINISTIC are reported, not
failed.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["attest_warm", "attest_cold", "cvm_node"]
# Counts whose value depends on real thread timing. Empty at present: the
# multi-worker workload (attest_warm) makes no KDS fetch once warm, so the
# single-flight leader race never runs in a timed round.
NONDETERMINISTIC: list = []


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.startswith("{")]
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
    return lines


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in parse_seeds(args.seeds):
        result = run(args.workload, seed, seconds, 0)[-1]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in sorted(result["metrics"].items())),
            flush=True)
    print(f"\n{args.workload}: {'metric':<18} {'median':>12} {'spread':>8} "
          f"{'bound':>6} {'spread/bound':>12}")
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / q2 if q2 else float("inf")
        print(f"{'':>{len(args.workload) + 1}} {metric['name']:<18} {q2:>12.6g} "
              f"{share:>8.4f} {metric['bound']:>6} {share / metric['bound']:>12.3f}")
    return 0


def determinism(args):
    failures = []
    for workload in WORKLOADS:
        a, b, c = (run(workload, seed, args.seconds, 1)
                   for seed in (1, 1, 2))
        fa, fb, fc = (next(l for l in x if "fingerprint" in l) for x in (a, b, c))
        for name in sorted(fa["fingerprint"]):
            same_seed = fa["fingerprint"][name] == fb["fingerprint"].get(name)
            other_seed = fa["fingerprint"][name] == fc["fingerprint"].get(name)
            if name in NONDETERMINISTIC:
                print(f"{workload} {name}: nondeterministic (seed 1 repeat "
                      f"{'equal' if same_seed else 'differs'})")
            elif not same_seed:
                failures.append(f"{workload} {name}: seed 1 runs differ "
                                f"({fa['fingerprint'][name]} vs {fb['fingerprint'].get(name)})")
            elif not other_seed:
                failures.append(f"{workload} {name}: moved with the seed")
        if fa["inputs_digest"] == fc["inputs_digest"]:
            failures.append(f"{workload}: seed 2 generated the same inputs as seed 1")
        for f in (fa, fb, fc):
            for name in f["varied"]:
                if name not in NONDETERMINISTIC:
                    failures.append(f"{workload} {name}: varied between rounds")
        print(f"{workload}: {len(fa['fingerprint'])} fingerprint entries checked",
              flush=True)
    for f in failures:
        print("FAIL", f)
    print("determinism:", "FAIL" if failures else "ok")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seeds", default="1-5")
    p.add_argument("--seconds", type=float, default=0)
    d = sub.add_parser("determinism")
    d.add_argument("--seconds", type=float, default=4)
    args = parser.parse_args()
    return spread(args) if args.mode == "spread" else determinism(args)


if __name__ == "__main__":
    sys.exit(main())
