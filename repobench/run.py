#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 repobench/run.py --workload attest_warm --seed 1 --seconds 10 --trace 0

The measuring program (repobench/cpp, a CMake project over ../src) is built
into .bench_build/ at the repository root, or into $CARGO_TARGET_DIR when
that is set. Its stdout is passed through; the last line is the result
object, checked here against the metric names and units BENCHMARK.json
declares (end_to_end with --trace 0, per_layer with --trace 1). With
--trace 1 the spans are written to .bench_build/traces/.
"""
import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    configured = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    base = configured if configured.is_absolute() else ROOT / configured
    return base / "repobench"


def build(out: Path) -> Path:
    """Configures (once) and builds the measuring program; returns it."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"repobench: no sources at {ROOT / 'src'}")
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Compiler scratch files stay inside the build tree too.
    (out / "tmp").mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(out / "tmp"))
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "--target", "repobench",
                      "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env).returncode:
                sys.exit("repobench: build failed: " + " ".join(cmd))
    return out / "repobench"


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line: str, trace: bool) -> str:
    """Returns an error message, or '' when the result line is well formed."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    want = declared_metrics(trace)
    have = {name: m.get("unit") for name, m in result["metrics"].items()}
    if have != want:
        missing = sorted(set(want) - set(have))
        extra = sorted(set(have) - set(want))
        units = sorted(n for n in set(want) & set(have) if want[n] != have[n])
        return f"metrics differ from BENCHMARK.json: missing {missing} extra {extra} units {units}"
    return ""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["attest_warm", "attest_cold", "cvm_node"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = out.parent / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.jsonl")]

    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)

    def stop_child(signum, _frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop_child)
    signal.signal(signal.SIGINT, stop_child)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        sys.exit(f"repobench: {args.workload} did not finish in {RUN_TIMEOUT_S} s")

    lines = stdout.rstrip("\n").split("\n")
    error = check_result(lines[-1], bool(args.trace)) if lines else "no output"
    if error:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.exit(f"repobench: {error}")
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
