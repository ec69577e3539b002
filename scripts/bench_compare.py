#!/usr/bin/env python3
"""Soft-gate comparison of fresh benchmark snapshots against committed
baseline BENCH_<topic>.json files.

Two modes:

  bench_compare.py BASELINE.json FRESH.json [--tolerance 0.25]
      Compare one pair of snapshot files.

  bench_compare.py --all BASELINE_DIR FRESH_DIR
      Compare every BENCH_<topic>.json present in *both* directories,
      using the per-topic tolerance table below (override everything
      with --tolerance). Topics whose fresh snapshot is missing are
      listed but never fatal — a topic that failed to record on a busy
      runner must not mask real regressions elsewhere.

Per-topic tolerances: microbenchmarks of pure CPU code (phase2) can be
held tight; topics that measure thread pools, schedulers or wall-clock
shaped workloads (par, serve) need slack on shared runners. The table
is the single place that encodes how noisy each topic inherently is.

Compares per-benchmark real_time for every name present in both files
(run_type "iteration" only; aggregates and BigO fits are skipped) and
reports the ratio fresh/baseline. Regressions beyond the tolerance band
are listed and reflected in the exit code -- but the gate is *soft* by
design: CI runs it with warn-don't-fail semantics because shared
runners are noisy and the committed baselines may come from different
hardware. The hard gate remains a human re-recording the baseline via
scripts/bench_snapshot.sh on quiet hardware.

Exit codes: 0 all compared benchmarks within tolerance (or nothing to
compare), 1 at least one regression beyond tolerance, 2 usage/IO error.
"""

import argparse
import glob
import json
import os
import sys

# Allowed fractional slowdown per topic before a benchmark is flagged.
# Keep in sync with the topics scripts/bench_snapshot.sh knows about.
TOPIC_TOLERANCE = {
    "phase2": 0.25,        # pure CPU, low variance
    "obs": 0.50,           # sink setup inside the timed loop
    "fault": 0.35,
    "partition": 0.35,
    "par": 0.50,           # thread pool: scheduler noise
    "dynamic": 0.35,
    "survivability": 0.35,
    "serve": 0.60,         # wall-clock shaped load, sleeps + threads
    "dist": 0.50,          # 1e5-1e6-node rounds: memory-bandwidth noise
}
DEFAULT_TOLERANCE = 0.25


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def iteration_times(doc):
    """name -> real_time (ns) for plain iteration runs."""
    out = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        t = b.get("real_time")
        name = b.get("name")
        if name and isinstance(t, (int, float)) and t > 0:
            out[name] = float(t)
    return out


def provenance(doc):
    ctx = doc.get("context", {})
    sha = ctx.get("mcds_git_sha", "unknown")
    date = ctx.get("mcds_snapshot_date", ctx.get("date", "unknown"))
    return f"{sha} @ {date}"


def compare_pair(baseline_path, fresh_path, tolerance):
    """Prints the comparison; returns (regressions, compared_count)."""
    base_doc, fresh_doc = load(baseline_path), load(fresh_path)
    base, fresh = iteration_times(base_doc), iteration_times(fresh_doc)
    common = sorted(base.keys() & fresh.keys())

    print(f"baseline: {baseline_path} ({provenance(base_doc)})")
    print(f"fresh:    {fresh_path} ({provenance(fresh_doc)})")
    if not common:
        print("bench_compare: no common iteration benchmarks; nothing to do")
        return [], 0

    width = max(len(n) for n in common)
    regressions = []
    for name in common:
        ratio = fresh[name] / base[name]
        flag = ""
        if ratio > 1.0 + tolerance:
            flag = "  << REGRESSION"
            regressions.append((name, ratio))
        elif ratio < 1.0 / (1.0 + tolerance):
            flag = "  (faster)"
        print(
            f"  {name:<{width}}  {base[name]:>14.1f} -> {fresh[name]:>14.1f} ns"
            f"  x{ratio:.3f}{flag}"
        )

    skipped = sorted((base.keys() | fresh.keys()) - set(common))
    if skipped:
        print(f"  (not in both files, skipped: {', '.join(skipped)})")
    return regressions, len(common)


def topic_of(path):
    name = os.path.basename(path)
    if name.startswith("BENCH_") and name.endswith(".json"):
        return name[len("BENCH_"):-len(".json")]
    return None


def run_all(baseline_dir, fresh_dir, tolerance_override):
    baselines = sorted(glob.glob(os.path.join(baseline_dir, "BENCH_*.json")))
    if not baselines:
        print(f"bench_compare: no BENCH_*.json under {baseline_dir}",
              file=sys.stderr)
        return 2
    all_regressions = []
    compared_topics = 0
    for baseline in baselines:
        topic = topic_of(baseline)
        fresh = os.path.join(fresh_dir, os.path.basename(baseline))
        if not os.path.isfile(fresh):
            print(f"-- topic {topic}: fresh snapshot missing, skipped")
            continue
        tol = (tolerance_override if tolerance_override is not None
               else TOPIC_TOLERANCE.get(topic, DEFAULT_TOLERANCE))
        print(f"-- topic {topic} (tolerance +{tol:.0%})")
        regressions, compared = compare_pair(baseline, fresh, tol)
        if compared:
            compared_topics += 1
        all_regressions += [(topic, n, r) for n, r in regressions]
    print(f"bench_compare: compared {compared_topics} topic(s)")
    if all_regressions:
        print("bench_compare: regressions beyond per-topic tolerance:")
        for topic, name, ratio in all_regressions:
            print(f"  [{topic}] {name}: x{ratio:.3f}")
        print(
            "bench_compare: soft gate -- investigate, and re-record the "
            "baseline with scripts/bench_snapshot.sh if the change is "
            "intentional."
        )
        return 1
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline", help="baseline file, or directory with --all")
    ap.add_argument("fresh", help="fresh file, or directory with --all")
    ap.add_argument(
        "--all",
        action="store_true",
        help="treat the two arguments as directories and compare every "
        "BENCH_<topic>.json present in both, with per-topic tolerances",
    )
    ap.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="allowed fractional slowdown before a benchmark is flagged "
        "(default: per-topic table with --all, else 0.25)",
    )
    args = ap.parse_args()

    if args.all:
        return run_all(args.baseline, args.fresh, args.tolerance)

    tol = args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
    regressions, compared = compare_pair(args.baseline, args.fresh, tol)
    if regressions:
        print(
            f"bench_compare: {len(regressions)} benchmark(s) slower than "
            f"baseline by more than {tol:.0%}:"
        )
        for name, ratio in regressions:
            print(f"  {name}: x{ratio:.3f}")
        print(
            "bench_compare: soft gate -- investigate, and re-record the "
            "baseline with scripts/bench_snapshot.sh if the change is "
            "intentional."
        )
        return 1
    print(f"bench_compare: all {compared} benchmark(s) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
