#!/usr/bin/env bash
# Records a performance snapshot into BENCH_<topic>.json at the repo
# root (google-benchmark JSON). Convention: BENCH_<topic>.json snapshots
# are committed alongside the PR that moves the needle, so future PRs
# have a baseline to compare against — see README.md.
#
# Snapshots are only meaningful from an optimized build, so this script
# configures its build tree with CMAKE_BUILD_TYPE=Release and refuses to
# write a snapshot whose recorded context says otherwise (a debug-built
# harness is 5-20x slower and would poison every later comparison).
#
# Usage: scripts/bench_snapshot.sh [extra perf_scaling args...]
#   BUILD_DIR=...     build tree to use (default: build-bench, configured
#                     Release by this script)
#   BENCH_TOPIC=...   snapshot topic: phase2 (default), fault, obs,
#                     partition, par, dynamic, survivability, serve or
#                     dist (the distributed runtime's round loop)
#   BENCH_FILTER=...  benchmark regex (default: per-topic selection)
#   ALLOW_DEBUG_LIBBENCHMARK=1
#                     accept a google-benchmark *library* that reports
#                     library_build_type "debug". Distro packages (e.g.
#                     Debian's libbenchmark) are compiled -O2 but without
#                     NDEBUG, so they self-report "debug" even though the
#                     harness and the code under test are Release; the
#                     harness's own flags are recorded separately as
#                     mcds_build_type, which is always enforced.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-bench}"
BENCH_TOPIC="${BENCH_TOPIC:-phase2}"
case "$BENCH_TOPIC" in
  phase2) default_filter="BM_GreedyCds|BM_GreedyConnectorsIncremental|BM_GreedyConnectorsReference|BM_BuildUdg/" ;;
  fault)  default_filter="BM_FaultFreeRuntime|BM_FaultInjectedRuntime|BM_ReliableWaf" ;;
  obs)    default_filter="BM_GreedyConnectorsIncremental|BM_GreedyConnectorsObserved|BM_CausalTracedRuntime" ;;
  partition) default_filter="BM_HeartbeatRuntime|BM_PartitionedRuntime" ;;
  par)    default_filter="BM_BatchSolve|BM_BuildUdgParallel|BM_GreedyConnectorsCsr" ;;
  dynamic) default_filter="BM_DynamicChurn|BM_DynamicRebuild" ;;
  survivability) default_filter="BM_SurvivabilityBuild|BM_SurvivabilityMassacre" ;;
  serve)  default_filter="BM_ServeRoundTrip|BM_ServeOverloadedThroughput" ;;
  dist)   default_filter="BM_DistMisRounds|BM_DistConnectorRounds" ;;
  *)      default_filter=".*" ;;
esac
BENCH_FILTER="${BENCH_FILTER:-$default_filter}"
OUT="BENCH_${BENCH_TOPIC}.json"
BIN="$BUILD_DIR/bench/perf_scaling"

# Always (re)configure the snapshot tree as Release: an existing tree
# configured RelWithDebInfo or Debug must not silently become the
# baseline recorder.
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" --target perf_scaling -j "$(nproc)"
# Fail loudly rather than writing a partial/empty snapshot: a missing
# binary here means the build above was skipped or failed.
if [[ ! -x "$BIN" ]]; then
  echo "bench_snapshot.sh: benchmark binary not built: $BIN" >&2
  echo "bench_snapshot.sh: refusing to write $OUT" >&2
  exit 1
fi

# Provenance: the recording commit and a wall-clock date are stamped
# into the snapshot context below, so every committed BENCH_*.json says
# what code produced it (bench_compare.py prints both when a comparison
# drifts). The commit's dirty state is taken before the run, which
# rewrites the tracked $OUT and would make every checkout look dirty.
GIT_SHA="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
GIT_DIRTY=""
if ! git diff --quiet HEAD 2>/dev/null; then GIT_DIRTY="-dirty"; fi

"$BIN" \
  --benchmark_filter="$BENCH_FILTER" \
  --benchmark_out="$OUT" \
  --benchmark_out_format=json \
  "$@"

SNAP_DATE="$(date -u +%Y-%m-%dT%H:%M:%SZ)"

# Gate on the recorded context before declaring the snapshot good.
# mcds_build_type is stamped by perf_scaling's main() from its own
# compile flags (NDEBUG + __OPTIMIZE__) and must say "release";
# library_build_type is what the google-benchmark library says about
# itself and is overridable for distro packages (see header comment).
python3 - "$OUT" "$GIT_SHA$GIT_DIRTY" "$SNAP_DATE" <<'EOF' || { rm -f "$OUT"; exit 1; }
import json, os, sys
doc = json.load(open(sys.argv[1]))
ctx = doc["context"]
mcds = ctx.get("mcds_build_type")
if mcds != "release":
    print(f"bench_snapshot.sh: harness built without optimization "
          f"(mcds_build_type: {mcds!r}); refusing to record a snapshot. "
          f"This script configures Release itself -- a stale BUILD_DIR "
          f"or CXXFLAGS override is forcing a debug build.",
          file=sys.stderr)
    sys.exit(1)
lib = ctx.get("library_build_type")
if lib != "release" and os.environ.get("ALLOW_DEBUG_LIBBENCHMARK") != "1":
    print(f"bench_snapshot.sh: google-benchmark library reports "
          f"library_build_type: {lib!r}. If this is a distro package "
          f"built without NDEBUG (harness code itself is verified "
          f"optimized above), re-run with ALLOW_DEBUG_LIBBENCHMARK=1.",
          file=sys.stderr)
    sys.exit(1)
ctx["mcds_git_sha"] = sys.argv[2]
ctx["mcds_snapshot_date"] = sys.argv[3]
with open(sys.argv[1], "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
EOF

echo "wrote $OUT"
