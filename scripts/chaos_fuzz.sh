#!/usr/bin/env bash
# Open-ended chaos fuzzing across the three randomized fault suites:
#   partition  tests/test_dist_partition_chaos  PartitionChaos.RandomizedPartitionSchedules
#   dist       tests/test_dist_chaos            Chaos.RandomizedFaultGrid
#   km         tests/test_km_chaos              KmChaos.RandomizedCrashSchedulesHoldInvariants
#   serve      tests/test_serve_chaos           ServeChaos.SustainedOverloadHoldsInvariants
# The time budget is shared: iterations round-robin over the suites with
# a fresh base seed each, so a 300 s run splits roughly evenly between
# partition schedules, the protocol fault grid and the (k,m) crash
# invariants. A failing scenario is delta-debugged down to a minimal
# FaultPlan by the owning test and the minimized plan JSON is archived
# (CHAOS_FUZZ_OUT) for replay; the per-suite replay line printed on
# failure reproduces the run exactly.
#
# Usage: scripts/chaos_fuzz.sh [budget_seconds]
#   BUILD_DIR=...        build tree to use (default: build)
#   CHAOS_BUDGET=...     time budget in seconds (default: 300; the
#                        positional argument wins when both are given)
#   CHAOS_FUZZ_SEED=...  starting base seed (default: derived from date,
#                        printed so any run can be reproduced exactly)
#   CHAOS_FUZZ_OUT=...   directory for minimized repro plans
#                        (default: chaos-artifacts)
#   CHAOS_SUITES=...     comma-separated subset of partition,dist,km,
#                        serve (default: all four)
#
# Exit status: 0 if every iteration passed, 1 on the first failure (the
# failing suite, seed and any minimized plan files are reported).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
BUDGET="${1:-${CHAOS_BUDGET:-300}}"
SEED="${CHAOS_FUZZ_SEED:-$(date +%s)}"
OUT="${CHAOS_FUZZ_OUT:-chaos-artifacts}"
SUITES="${CHAOS_SUITES:-partition,dist,km,serve}"

declare -A BIN FILTER
BIN[partition]="$BUILD_DIR/tests/test_dist_partition_chaos"
FILTER[partition]='PartitionChaos.RandomizedPartitionSchedules'
BIN[dist]="$BUILD_DIR/tests/test_dist_chaos"
FILTER[dist]='Chaos.RandomizedFaultGrid'
BIN[km]="$BUILD_DIR/tests/test_km_chaos"
FILTER[km]='KmChaos.RandomizedCrashSchedulesHoldInvariants'
BIN[serve]="$BUILD_DIR/tests/test_serve_chaos"
FILTER[serve]='ServeChaos.SustainedOverloadHoldsInvariants'

IFS=',' read -r -a suites <<<"$SUITES"
for suite in "${suites[@]}"; do
  if [[ -z "${BIN[$suite]:-}" ]]; then
    echo "chaos_fuzz.sh: unknown suite '$suite' (want partition,dist,km,serve)" >&2
    exit 2
  fi
  if [[ ! -x "${BIN[$suite]}" ]]; then
    if [[ ! -d "$BUILD_DIR" ]]; then
      cmake -B "$BUILD_DIR" -S .
    fi
    cmake --build "$BUILD_DIR" --target "$(basename "${BIN[$suite]}")" \
      -j "$(nproc)"
  fi
  if [[ ! -x "${BIN[$suite]}" ]]; then
    echo "chaos_fuzz.sh: test binary not built: ${BIN[$suite]}" >&2
    exit 1
  fi
done

mkdir -p "$OUT"
echo "chaos_fuzz: budget ${BUDGET}s over suites ${SUITES}," \
  "base seed $SEED, artifacts in $OUT/"

deadline=$((SECONDS + BUDGET))
iteration=0
while (( SECONDS < deadline )); do
  iteration=$((iteration + 1))
  seed=$((SEED + iteration))
  suite="${suites[$(( (iteration - 1) % ${#suites[@]} ))]}"
  echo "chaos_fuzz: iteration $iteration, suite $suite" \
    "(CHAOS_FUZZ_SEED=$seed)"
  if ! CHAOS_FUZZ_SEED="$seed" CHAOS_FUZZ_OUT="$OUT" "${BIN[$suite]}" \
      --gtest_filter="${FILTER[$suite]}" --gtest_brief=1; then
    echo "chaos_fuzz: FAILURE at iteration $iteration in suite $suite" >&2
    echo "chaos_fuzz: replay with CHAOS_FUZZ_SEED=$seed ${BIN[$suite]}" \
      "--gtest_filter=${FILTER[$suite]}" >&2
    if compgen -G "$OUT/*.json" >/dev/null; then
      echo "chaos_fuzz: minimized plans:" >&2
      ls -l "$OUT"/*.json >&2
    fi
    exit 1
  fi
done
echo "chaos_fuzz: $iteration iteration(s) passed inside the ${BUDGET}s budget"
