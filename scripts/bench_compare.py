#!/usr/bin/env python3
"""Bench-regression gate: diff fresh BENCH_*.json against committed baselines.

Reads google-benchmark JSON files produced by scripts/bench_json.sh and
compares each benchmark's p50 real_time against the committed baseline in
bench/baselines/.  Two gates:

  1. Regression: a benchmark whose p50 grew by more than the threshold
     (default 15%, override with AIDB_BENCH_REGRESSION_THRESHOLD=0.15 or
     --threshold) fails the run.  Benchmarks without a baseline entry are
     reported but do not fail (they are new); baseline entries without a
     fresh counterpart fail (a benchmark silently disappeared).  Benchmarks
     listed in REQUIRED_GATES must additionally be present in BOTH the
     baseline and the fresh results — a gated benchmark that vanishes from
     either side is a hard failure with a named report line, never a silent
     pass.  TIGHT_THRESHOLDS narrows the budget per benchmark (the
     short-statement p50 gate is 10%).

  2. Speedup: paired <name>_Volcano / <name>_Vectorized entries in the same
     file must show the vectorized engine ahead by at least the required
     ratio (default 5x for the gated pairs, override with
     AIDB_BENCH_SPEEDUP_MIN or --speedup-min).  Only the acceptance pair
     (BM_ScanFilterAgg) is gated; other pairs are reported for visibility.

  3. Reader isolation: in BENCH_service.json, BM_ServiceMixedReadWrite's
     reader_p95_us with concurrent writers must stay within a bounded factor
     (default 10x, override with AIDB_BENCH_READER_P95_MULT or
     --reader-p95-mult) of the writer-free run.  MVCC snapshot reads take no
     lock any writer holds; a regression to reader-blocking (writers
     serializing readers behind whole transactions) shows up as an
     orders-of-magnitude jump, while CPU scheduling noise stays well under
     the bound.

  4. Self-monitoring overhead: in BENCH_observability.json, the p50 of
     BM_ExecuteSelfMonitorOn (KPI sampler + span collector both live) must
     stay within 2% of BM_ExecuteSelfMonitorOff (override with
     AIDB_BENCH_SELF_MONITOR_OVERHEAD or --self-monitor-overhead).  The
     sampler-only and spans-only legs are reported for attribution but not
     gated individually — the bound is on the total always-on price.

Usage:
  scripts/bench_compare.py BENCH_vectorized.json BENCH_service.json
  scripts/bench_compare.py              # all BENCH_*.json in the repo root
  scripts/bench_compare.py --update     # rewrite baselines from fresh results

Exit status: 0 all gates pass, 1 any gate fails, 2 usage/IO error.
"""

import argparse
import glob
import json
import os
import shutil
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BASELINE_DIR = os.path.join(REPO_ROOT, "bench", "baselines")

# Volcano/Vectorized pairs that must meet the speedup gate (ROADMAP item 1:
# >= 5x on the 1M-row scan+filter+aggregate).  The grouped and join pairs are
# reported for visibility, not gated.
GATED_SPEEDUP_PAIRS = ("BM_ScanFilterAgg",)

# Benchmarks whose presence is load-bearing: each listed name must appear in
# BOTH the committed baseline and the fresh results of the named file (any
# /arg variant counts).  A missing entry is a hard failure with its own
# report line — a gated benchmark that silently vanishes (renamed, filtered
# out, crashed before registering) would otherwise pass every gate it was
# supposed to enforce.
REQUIRED_GATES = {
    "BENCH_vectorized.json": ("BM_ScanFilterAgg_Volcano",
                              "BM_ScanFilterAgg_Vectorized"),
    "BENCH_service.json": ("BM_ServiceMixedReadWrite",
                           "BM_ServiceShortStatement"),
    "BENCH_observability.json": ("BM_ExecuteSelfMonitorOff",
                                 "BM_ExecuteSelfMonitorOn",
                                 "BM_SelfMonitorOverhead"),
    "BENCH_monitoring.json": ("BM_ForecastPredict",
                              "BM_Diagnose"),
    "BENCH_storage.json": ("BM_LsmFlushThroughput",
                           "BM_LsmColdPointReads",
                           "BM_LsmCompactionPolicy",
                           "BM_LsmTunerMeasured"),
}

# Per-benchmark p50 regression limits tighter than the global threshold,
# keyed by the name's head (text before the first '/').  The short-statement
# benchmark exists to bound the per-statement MVCC tax, so it gets a 10%
# budget instead of the general 15%.
TIGHT_THRESHOLDS = {
    "BM_ServiceShortStatement": 0.10,
}


def load_benchmarks(path):
    """Returns {benchmark name: p50 real_time} for one google-benchmark JSON.

    Prefers *_median aggregates (present when --benchmark_repetitions is
    used); otherwise the per-benchmark real_time is the only point estimate
    available and stands in for the p50.
    """
    with open(path) as f:
        doc = json.load(f)
    medians = {}
    singles = {}
    for b in doc.get("benchmarks", []):
        name = b.get("name", "")
        run_type = b.get("run_type", "iteration")
        time = b.get("real_time")
        if time is None:
            continue
        if run_type == "aggregate":
            if b.get("aggregate_name") == "median":
                medians[name.replace("_median", "")] = float(time)
        else:
            singles[name] = float(time)
    merged = dict(singles)
    merged.update(medians)
    return merged


def base_name(bench_name):
    """BM_Foo_Volcano/real_time -> (BM_Foo, 'Volcano') or (name, None)."""
    head = bench_name.split("/")[0]
    for leg in ("Volcano", "Vectorized"):
        suffix = "_" + leg
        if head.endswith(suffix):
            return head[: -len(suffix)], leg
    return head, None


def check_regressions(fresh, baseline, threshold, label):
    failures = []
    for name, base_time in sorted(baseline.items()):
        if name not in fresh:
            failures.append(f"{label}: {name} present in baseline but missing "
                            f"from fresh results")
            continue
        new_time = fresh[name]
        if base_time <= 0:
            continue
        limit = TIGHT_THRESHOLDS.get(name.split("/")[0], threshold)
        delta = (new_time - base_time) / base_time
        status = "FAIL" if delta > limit else "ok"
        print(f"  [{status}] {name}: {base_time:.3f} -> {new_time:.3f} "
              f"({delta * 100:+.1f}%, limit +{limit * 100:.0f}%)")
        if delta > limit:
            failures.append(f"{label}: {name} regressed {delta * 100:+.1f}% "
                            f"(limit +{limit * 100:.0f}%)")
    for name in sorted(set(fresh) - set(baseline)):
        print(f"  [new ] {name}: {fresh[name]:.3f} (no baseline entry)")
    return failures


def check_required_gates(fresh, baseline, label):
    """Hard-fails when a gated benchmark is absent from either side.

    `baseline` is None when no baseline file exists at all — which is itself
    a failure for a file that carries required gates.
    """
    failures = []

    def present(names, req):
        return any(n == req or n.startswith(req + "/") for n in names)

    for req in REQUIRED_GATES.get(label, ()):
        for side, names in (("baseline", baseline), ("fresh results", fresh)):
            if names is None or not present(names, req):
                print(f"  [FAIL] required gate {req}: missing from {side}")
                failures.append(f"{label}: required gated benchmark {req} "
                                f"missing from {side}")
    return failures


def check_speedups(fresh, speedup_min, label):
    """Pairs <base>_Volcano with <base>_Vectorized and checks gated ratios."""
    volcano, vectorized = {}, {}
    for name, time in fresh.items():
        base, leg = base_name(name)
        if leg == "Volcano":
            volcano[base] = time
        elif leg == "Vectorized":
            vectorized[base] = time
    failures = []
    for base in sorted(set(volcano) & set(vectorized)):
        if vectorized[base] <= 0:
            continue
        ratio = volcano[base] / vectorized[base]
        gated = base in GATED_SPEEDUP_PAIRS
        status = "ok"
        if gated and ratio < speedup_min:
            status = "FAIL"
        gate_note = f"gate >= {speedup_min:.1f}x" if gated else "ungated"
        print(f"  [{status:4}] {base}: volcano/vectorized = {ratio:.2f}x "
              f"({gate_note})")
        if status == "FAIL":
            failures.append(f"{label}: {base} speedup {ratio:.2f}x below the "
                            f"required {speedup_min:.1f}x")
    return failures


def check_reader_isolation(path, mult, label):
    """Gate 3: reader p95 under concurrent writers vs the writer-free run.

    Reads the raw google-benchmark JSON (the reader_p95_us user counter is
    not part of load_benchmarks' real_time view).  Like load_benchmarks, it
    prefers the *_median aggregate (present when --benchmark_repetitions is
    used) over a single run.  Quietly returns when the benchmark is absent
    (non-service files).
    """
    with open(path) as f:
        doc = json.load(f)
    singles, medians = {}, {}  # writer count -> p95
    for b in doc.get("benchmarks", []):
        name = b.get("name", "")
        if not name.startswith("BM_ServiceMixedReadWrite/"):
            continue
        p95 = b.get("reader_p95_us")
        writers = b.get("writers")
        if p95 is None or writers is None:
            continue
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") == "median":
                medians[int(writers)] = float(p95)
        else:
            singles[int(writers)] = float(p95)
    loaded = dict(singles)
    loaded.update(medians)
    baseline_p95 = loaded.pop(0, None)
    if baseline_p95 is None and not loaded:
        return []
    failures = []
    if baseline_p95 is None or baseline_p95 <= 0:
        failures.append(f"{label}: BM_ServiceMixedReadWrite writer-free run "
                        f"missing or degenerate; cannot gate reader isolation")
        return failures
    for writers, p95 in sorted(loaded.items()):
        ratio = p95 / baseline_p95
        status = "FAIL" if ratio > mult else "ok"
        print(f"  [{status:4}] reader p95 with {writers} writers: "
              f"{baseline_p95:.1f}us -> {p95:.1f}us ({ratio:.2f}x, "
              f"gate <= {mult:.1f}x)")
        if ratio > mult:
            failures.append(f"{label}: reader p95 with {writers} writers grew "
                            f"{ratio:.2f}x over the writer-free run "
                            f"(limit {mult:.1f}x) — readers are blocking "
                            f"behind writers")
    if not loaded:
        failures.append(f"{label}: BM_ServiceMixedReadWrite has no "
                        f"with-writers run to gate")
    return failures


def check_self_monitor_overhead(path, limit, label):
    """Gate 4: total self-monitoring overhead vs the all-off loop.

    Reads the raw google-benchmark JSON for BM_SelfMonitorOverhead's
    overhead_pct user counter: the median over per-pair ratios of
    monitoring-off vs monitoring-on block minima, where the two blocks of a
    pair run back to back under the same ambient machine state (the
    BM_Execute* matrix legs run minutes apart and carry drift, so they are
    reported but not gated).  Quietly returns when the benchmark is absent
    (files other than BENCH_observability.json); check_required_gates
    separately guarantees it cannot vanish from the observability file.
    """
    with open(path) as f:
        doc = json.load(f)
    overhead_pct = off = on = None
    found = False
    for b in doc.get("benchmarks", []):
        if not b.get("name", "").startswith("BM_SelfMonitorOverhead"):
            continue
        if b.get("run_type") == "aggregate":
            continue
        found = True
        overhead_pct = b.get("overhead_pct")
        off = b.get("p50_off_us")
        on = b.get("p50_on_us")
    if not found:
        return []
    if overhead_pct is None:
        return [f"{label}: BM_SelfMonitorOverhead is missing its "
                f"overhead_pct counter; cannot gate"]
    overhead = float(overhead_pct) / 100.0
    status = "FAIL" if overhead > limit else "ok"
    ctx = ""
    if off is not None and on is not None:
        ctx = f" (p50 {float(off):.1f}us -> {float(on):.1f}us)"
    print(f"  [{status:4}] self-monitor overhead, paired block-min median: "
          f"{overhead * 100:+.2f}%{ctx}, gate <= +{limit * 100:.0f}%")
    if overhead > limit:
        failures = [f"{label}: self-monitoring overhead "
                    f"{overhead * 100:+.2f}% exceeds the "
                    f"{limit * 100:.0f}% budget (sampler + spans on)"]
        return failures
    return []


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*",
                        help="fresh BENCH_*.json files (default: repo root glob)")
    parser.add_argument("--baseline-dir", default=DEFAULT_BASELINE_DIR)
    parser.add_argument("--threshold",
                        type=float,
                        default=float(os.environ.get(
                            "AIDB_BENCH_REGRESSION_THRESHOLD", "0.15")),
                        help="max allowed fractional p50 growth (default 0.15)")
    parser.add_argument("--speedup-min",
                        type=float,
                        default=float(os.environ.get(
                            "AIDB_BENCH_SPEEDUP_MIN", "5.0")),
                        help="required volcano/vectorized ratio for gated pairs")
    parser.add_argument("--reader-p95-mult",
                        type=float,
                        default=float(os.environ.get(
                            "AIDB_BENCH_READER_P95_MULT", "10.0")),
                        help="max reader p95 growth factor with writers on "
                             "(default 10.0)")
    parser.add_argument("--self-monitor-overhead",
                        type=float,
                        default=float(os.environ.get(
                            "AIDB_BENCH_SELF_MONITOR_OVERHEAD", "0.02")),
                        help="max fractional p50 overhead of sampler+spans "
                             "over the all-off loop (default 0.02)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite baselines from the fresh results and exit")
    args = parser.parse_args()

    files = args.files or sorted(glob.glob(os.path.join(REPO_ROOT,
                                                        "BENCH_*.json")))
    if not files:
        print("error: no BENCH_*.json files found; run scripts/bench_json.sh "
              "first", file=sys.stderr)
        return 2

    if args.update:
        os.makedirs(args.baseline_dir, exist_ok=True)
        for path in files:
            load_benchmarks(path)  # validate JSON before committing it
            dest = os.path.join(args.baseline_dir, os.path.basename(path))
            shutil.copyfile(path, dest)
            print(f"baseline updated: {dest}")
        return 0

    failures = []
    for path in files:
        label = os.path.basename(path)
        try:
            fresh = load_benchmarks(path)
        except (OSError, ValueError) as e:
            print(f"error: cannot read {path}: {e}", file=sys.stderr)
            return 2
        print(f"== {label}")

        baseline_path = os.path.join(args.baseline_dir, label)
        baseline = None
        if os.path.exists(baseline_path):
            baseline = load_benchmarks(baseline_path)
            failures += check_regressions(fresh, baseline, args.threshold,
                                          label)
        else:
            print(f"  (no baseline at {baseline_path}; regression check "
                  f"skipped)")
        failures += check_required_gates(fresh, baseline, label)
        failures += check_speedups(fresh, args.speedup_min, label)
        failures += check_reader_isolation(path, args.reader_p95_mult, label)
        failures += check_self_monitor_overhead(path,
                                                args.self_monitor_overhead,
                                                label)

    if failures:
        print("\nbench gate FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nbench gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
