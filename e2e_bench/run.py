#!/usr/bin/env python3
"""AIDB end-to-end benchmark.

Builds the engine and the benchmark program from source (CMake, Release),
runs one workload and prints one JSON result line last:

    python3 e2e_bench/run.py --workload oltp|analytics|ingest --seed N \
        --seconds S --trace 0|1

--trace 0 reports the end-to-end metrics BENCHMARK.json lists. Two
processes set up and run the workload with the same seed: setup_s is the
median of their set-ups, every other metric the better of the two (lower
or higher, as BENCHMARK.json's "better" says), because contention from
outside the process only ever adds time.
--trace 1 reports the per-layer metrics of one traced process; its tracing
overhead is measured against an untraced process of the same seed. Build
output, databases and span files stay inside the checkout: .bench_build/,
.bench_data/, .bench_out/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "e2e"
DATA = ROOT / ".bench_data"
OUT = ROOT / ".bench_out"
# Processes that set up and run the workload, per end-to-end run. Two keep
# 48 runs of the listed workloads under an hour even when a busy host
# doubles their time (about 45 s and 50 s per run then).
RUNS = 2
UNTRACED_REFERENCE = 1  # untraced processes behind trace.overhead_pct
RUN_BUDGET_S = 170  # all workload processes of one invocation, after the build


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"engine sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        die("cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(BENCH), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))
    selftest = BUILD / "e2e_selftest"
    if selftest.exists():
        if subprocess.run([str(selftest)], stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            die("benchmark arithmetic self-test failed")
    return BUILD / "aidb_e2e"


def source_digest():
    """SHA-256 over the engine and benchmark sources (works without git)."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH):
        for p in sorted(top.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    # Only the checkout's own repository: git would otherwise search the
    # parent directories.
    if not (ROOT / ".git").exists():
        return "none"
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["oltp", "analytics", "ingest"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    stamp = ["--git-sha", git_sha(), "--src-digest", source_digest()]
    deadline = time.monotonic() + RUN_BUDGET_S

    def child(trace=False, out=sys.stdout):
        cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", "1" if trace else "0",
               "--data-root", str(DATA), "--out-dir", str(OUT)] + stamp
        try:
            p = subprocess.run(cmd, capture_output=True, text=True,
                               timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            die(f"workload processes exceeded {RUN_BUDGET_S} s")
        sys.stderr.write(p.stderr)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            die(f"workload run failed with exit code {p.returncode}")
        for line in lines[:-1]:
            print(line, file=out)
        return json.loads(lines[-1])

    if args.trace:
        runs = [child(out=sys.stderr) for _ in range(UNTRACED_REFERENCE)]
        result = child(trace=True)
        runs.append(result)
        ref = statistics.median(r["metrics"]["throughput_ops_s"]["value"]
                                for r in runs[:-1])
        traced = result["metrics"]["throughput_ops_s"]["value"]
        overhead = (ref / traced - 1.0) * 100.0
        result["metrics"]["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        print(f"layer      {'trace.overhead_pct':40s} {overhead:16.6g} %      "
              f"untraced {ref:.6g} stmt/s vs traced {traced:.6g} stmt/s")
    else:
        runs = [child(out=sys.stdout if i == RUNS - 1 else sys.stderr)
                for i in range(RUNS)]
        result = {"metrics": {}}
        for m in wanted:
            values = [r["metrics"][m["name"]]["value"] for r in runs
                      if m["name"] in r["metrics"]]
            if len(values) != len(runs):
                die(f"metric {m['name']} missing from a run")
            if m["name"] == "setup_s":
                how, value = "median", statistics.median(values)
            else:
                how, value = "best", (min if m["better"] == "lower" else max)(values)
            result["metrics"][m["name"]] = {
                "value": value, "unit": runs[0]["metrics"][m["name"]]["unit"]}
            print(f"{how:10s} {m['name']:40s} {value:16.6g} {m['unit']:6s} of "
                  + ", ".join(f"{v:.6g}" for v in values))
        result["attempted"] = sum(r["attempted"] for r in runs)
        result["failed"] = sum(r["failed"] for r in runs)

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            die(f"metric {m['name']} missing or not in {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
