#!/usr/bin/env python3
"""The repo benchmark: builds the harness from the checkout's sources, runs
one workload, checks the result and prints it as the last line.

    python3 perfbench/run.py --workload cnn-mnist --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The harness is built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the first run
builds the library, later runs only relink if a source changed. With
--trace 0 the last line carries every end_to_end metric of BENCHMARK.json,
with --trace 1 every per_layer metric; the traced run also writes the spans
of its last traced trial under the build directory. Exits nonzero, without
a result line, when the build, the harness or the result's shape fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
# A run must end within 180 s; the first one also builds and may take 900.
RUN_LIMIT_S = 170.0
FIRST_RUN_LIMIT_S = 880.0


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_step(cmd, deadline):
    """Runs a build step with its output on stderr; False on failure."""
    left = deadline - time.monotonic()
    if left <= 0:
        return False
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                             stderr=sys.stderr, timeout=left)
    except subprocess.TimeoutExpired:
        return False
    return res.returncode == 0


def build(out, deadline):
    """Configures (once) and builds the harness; returns its path."""
    if not (ROOT / "src" / "fl" / "simulation.h").is_file():
        fail("no library sources under src/: run from the root of a checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_step(cmd, deadline):
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_step(["cmake", "--build", str(out), "-j", jobs], deadline):
        fail("build failed")
    return out / "perfbench_harness"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return spec, {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, expected):
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        fail("harness printed no result line")
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has keys {sorted(res)}")
    if not isinstance(res["correct"], bool):
        fail("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(res[key], int) or res[key] < 0:
            fail(f"{key} is not a whole number")
    if res["attempted"] < 1:
        fail("no operation attempted")
    got = {name: m.get("unit") for name, m in res["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}, or a unit differs")
    for name, m in res["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            fail(f"metric {name} has no numeric value")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    start = time.monotonic()
    out = build_dir()
    first = not (out / "perfbench_harness").is_file()
    deadline = start + (FIRST_RUN_LIMIT_S if first else RUN_LIMIT_S)
    if not (ROOT / "BENCHMARK.json").is_file():
        fail("BENCHMARK.json not found at the checkout root")
    spec, expected = expected_metrics(args.trace)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    harness = build(out, deadline)
    spans = out / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    cmd = [str(harness), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", repr(args.seconds), "--trace",
           str(args.trace), "--out-dir", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("harness ran past the time limit and was stopped")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"harness exited with code {proc.returncode}")
    check_result(lines[-1], expected)
    print("\n".join(lines[:-1]))
    print(f"wall {time.monotonic() - start:.1f} s")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
