#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the four user paths.

Run it from the repository root:

    python3 perfbench/run.py --workload {solve,churn,serve,dist,all} \\
        --seed N --seconds S --trace {0,1}

It configures and builds perfbench/ (a CMake project that compiles the
library sources under src/) in Release mode into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs one workload, or all four in
turn. Build output goes to stderr. Each workload's stdout ends with one
JSON line with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1. The exit code is non-zero when a build step fails, an
output is invalid, or the run did not measure what BENCHMARK.json lists.
See perfbench/NOTES.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solve", "churn", "serve", "dist")
DEFAULT_SEED = 1
HELD_OUT_SEED = 90210  # reserved for confirming claims; never tune on it
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def git_sha():
    # Only a checkout with its own .git is asked: git must not search the
    # directories above the checkout.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() or "none"


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j",
                    str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "mcds_perfbench")


def contract_line(result, trace):
    """Reduces the binary's result to the metrics BENCHMARK.json lists.

    Untraced: every end-to-end metric, each of which the run must have
    measured. Traced: every per-layer metric; one the workload never calls
    did no work and reads 0. A traced run that failed a check (such as a
    differential guard) reports no per-layer numbers.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if trace else "end_to_end"]
    measured = result["metrics"]
    metrics = {}
    for m in spec:
        got = measured.get(m["name"])
        if got is not None and got["unit"] != m["unit"]:
            raise ValueError(f"{m['name']} measured in {got['unit']}, "
                             f"BENCHMARK.json says {m['unit']}")
        if got is None and not trace:
            raise ValueError(f"end-to-end metric {m['name']} not measured")
        metrics[m["name"]] = {"value": got["value"] if got else 0,
                              "unit": m["unit"]}
    if trace and not result["correct"]:
        metrics = {}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def run_one(binary, workload, args, build_dir):
    """Runs one workload; prints its log and the BENCHMARK.json line."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha()]
    if args.trace:
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, f"{workload}-seed{args.seed}.tsv")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish in {RUN_TIMEOUT_S} s")
        return 3
    lines = run.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    try:
        line = contract_line(json.loads(lines[-1]), args.trace)
    except (ValueError, KeyError) as e:
        log(f"bad result line: {e}")
        return 4
    print(json.dumps(line), flush=True)
    return run.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all four in turn")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}; seed "
                    f"{HELD_OUT_SEED} is held out for confirming claims)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_one(binary, w, args, build_dir) for w in workloads)


if __name__ == "__main__":
    sys.exit(main())
