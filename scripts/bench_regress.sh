#!/usr/bin/env bash
# Bench regression gate: run the fast benches with the observability
# exporters on, reduce each critpath artifact to its compact analysis
# summary (geomap-obsctl analyze --json — events dropped, per-run
# makespan + component decomposition kept), and `geomap-obsctl check`
# every summary against the blessed copy in bench/baselines/. The gate
# fails (exit 1) when any watched leaf — a run's makespan or one of its
# alpha / beta / contention / fault / local components — grows more than
# the threshold over its baseline.
#
# Usage:
#   scripts/bench_regress.sh [--build-dir DIR] [--out-dir DIR]
#                            [--threshold PCT] [--bless]
#
#   --bless   regenerate bench/baselines/ from this machine's run instead
#             of checking (commit the result; review the diff like code).
#
# The run metadata header is pinned (GEOMAP_TIMESTAMP, and a fixed
# GEOMAP_GIT_DESCRIBE under --bless) so blessed baselines only diff when
# the numbers do. Checks ignore the header entirely.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build
OUT_DIR=bench-regress-artifacts
BASELINE_DIR=bench/baselines
THRESHOLD=10
BLESS=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) BUILD_DIR=$2; shift 2 ;;
    --out-dir) OUT_DIR=$2; shift 2 ;;
    --threshold) THRESHOLD=$2; shift 2 ;;
    --bless) BLESS=1; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

OBSCTL=$BUILD_DIR/src/apps/geomap-obsctl
[[ -x $OBSCTL ]] || { echo "missing $OBSCTL — build first" >&2; exit 2; }

export GEOMAP_TIMESTAMP=${GEOMAP_TIMESTAMP:-1970-01-01T00:00:00Z}
if [[ $BLESS -eq 1 ]]; then
  export GEOMAP_GIT_DESCRIBE=blessed-baseline
else
  export GEOMAP_GIT_DESCRIBE=${GEOMAP_GIT_DESCRIBE:-$(git describe --always --dirty 2>/dev/null || echo unknown)}
fi

mkdir -p "$OUT_DIR" "$BASELINE_DIR"
FAILED=0

# run_gate <name> <bench binary> [bench flags...]
run_gate() {
  local name=$1 bench=$2
  shift 2
  echo "== $name =="
  mkdir -p "$OUT_DIR/$name"
  "$BUILD_DIR/bench/$bench" "$@" --obs-dir "$OUT_DIR/$name" \
    > "$OUT_DIR/$name/stdout.json"
  "$OBSCTL" analyze --json "$OUT_DIR/$name/critpath.json" \
    > "$OUT_DIR/$name/critpath.summary.json"
  if [[ $BLESS -eq 1 ]]; then
    cp "$OUT_DIR/$name/critpath.summary.json" \
       "$BASELINE_DIR/$name.critpath.json"
    echo "blessed $BASELINE_DIR/$name.critpath.json"
  elif [[ -f $BASELINE_DIR/$name.critpath.json ]]; then
    "$OBSCTL" check --threshold "$THRESHOLD" \
      "$BASELINE_DIR/$name.critpath.json" \
      "$OUT_DIR/$name/critpath.summary.json" || FAILED=1
  else
    echo "no baseline $BASELINE_DIR/$name.critpath.json — run with --bless" >&2
    FAILED=1
  fi
}

# run_detector_gate <name>: the closed-loop detector bench. Detection
# precision/recall are higher-is-better, so the watch patterns carry the
# '-' prefix and the gate fails on a *drop* past the (laxer) threshold.
# The faulted runtime's virtual times are reproducible only up to
# link-queueing order, so the same artifact's makespans and costs are
# reported as context but never fatal. The rendered timeline must also
# parse — a timeline artifact obsctl cannot read is a gate failure.
run_detector_gate() {
  local name=$1
  shift
  echo "== $name =="
  mkdir -p "$OUT_DIR/$name"
  "$BUILD_DIR/bench/bench_fault_recovery" "$@" --detector \
    --obs-dir "$OUT_DIR/$name" > "$OUT_DIR/$name/stdout.json"
  "$OBSCTL" timeline "$OUT_DIR/$name/timeline.json" > /dev/null || FAILED=1
  if [[ $BLESS -eq 1 ]]; then
    cp "$OUT_DIR/$name/stdout.json" "$BASELINE_DIR/$name.detection.json"
    echo "blessed $BASELINE_DIR/$name.detection.json"
  elif [[ -f $BASELINE_DIR/$name.detection.json ]]; then
    "$OBSCTL" check --threshold "${DETECTOR_THRESHOLD:-20}" \
      --watch '-cells.*.detection.precision,-cells.*.detection.recall' \
      "$BASELINE_DIR/$name.detection.json" \
      "$OUT_DIR/$name/stdout.json" || FAILED=1
  else
    echo "no baseline $BASELINE_DIR/$name.detection.json — run with --bless" >&2
    FAILED=1
  fi
}

# run_migrate_gate <name>: the migration-executor bench. Fully
# deterministic (single-threaded discrete-event executor), so every cell
# leaf is stable and the default threshold applies; the watched leaves
# are the migration outcomes the engine exists to bound. The bench also
# certifies each run's protocol journal — a nonzero exit is an invariant
# violation and fails the gate outright, baseline or not. The exported
# timeline (with its migration lanes) must parse.
run_migrate_gate() {
  local name=$1
  shift
  echo "== $name =="
  mkdir -p "$OUT_DIR/$name"
  "$BUILD_DIR/bench/bench_fault_recovery" "$@" --migrate \
    --obs-dir "$OUT_DIR/$name" > "$OUT_DIR/$name/stdout.json" \
    || { echo "migration invariant violation" >&2; FAILED=1; }
  "$OBSCTL" timeline "$OUT_DIR/$name/timeline.json" > /dev/null || FAILED=1
  if [[ $BLESS -eq 1 ]]; then
    cp "$OUT_DIR/$name/stdout.json" "$BASELINE_DIR/$name.migration.json"
    echo "blessed $BASELINE_DIR/$name.migration.json"
  elif [[ -f $BASELINE_DIR/$name.migration.json ]]; then
    "$OBSCTL" check --threshold "$THRESHOLD" \
      --watch 'cells.*.migration_seconds,cells.*.app_makespan,cells.*.max_downtime,cells.*.rollbacks,cells.*.violations,total_violations' \
      "$BASELINE_DIR/$name.migration.json" \
      "$OUT_DIR/$name/stdout.json" || FAILED=1
  else
    echo "no baseline $BASELINE_DIR/$name.migration.json — run with --bless" >&2
    FAILED=1
  fi
}

# run_multitenant_gate <name>: the shared-substrate fairness sweep.
# Deterministic end to end (seeded substrate, discrete-event storm), so
# the fair-share cell's fairness leaves are stable. jain_index is
# higher-is-better ('-' watch prefix: fail on a drop); stretch, drain
# time and violations fail on growth. A nonzero bench exit is a
# cross-tenant invariant violation and fails the gate outright. The
# tenant-labeled timeline must render.
run_multitenant_gate() {
  local name=$1
  shift
  echo "== $name =="
  mkdir -p "$OUT_DIR/$name"
  "$BUILD_DIR/bench/bench_multitenant" "$@" \
    --obs-dir "$OUT_DIR/$name" > "$OUT_DIR/$name/stdout.json" \
    || { echo "cross-tenant invariant violation" >&2; FAILED=1; }
  "$OBSCTL" timeline "$OUT_DIR/$name/timeline.json" > /dev/null || FAILED=1
  if [[ $BLESS -eq 1 ]]; then
    cp "$OUT_DIR/$name/stdout.json" "$BASELINE_DIR/$name.fairness.json"
    echo "blessed $BASELINE_DIR/$name.fairness.json"
  elif [[ -f $BASELINE_DIR/$name.fairness.json ]]; then
    "$OBSCTL" check --threshold "$THRESHOLD" \
      --watch '-fairness.jain_index,fairness.p99_stretch,fairness.storm_drain_seconds,fairness.violations,total_violations' \
      "$BASELINE_DIR/$name.fairness.json" \
      "$OUT_DIR/$name/stdout.json" || FAILED=1
  else
    echo "no baseline $BASELINE_DIR/$name.fairness.json — run with --bless" >&2
    FAILED=1
  fi
}

# run_profile_gate <name>: the mapper profile watch. The bench runs with
# GEOMAP_PROFILE_DETERMINISTIC=1, so profile.json is byte-stable: clocks
# read zero and the watched leaves — phase wall seconds (zero unless
# deterministic mode breaks), work counters, call counts, instrumented
# peak bytes — are pure functions of the workload. The rendered report
# and the collapsed stacks must both come out of obsctl.
run_profile_gate() {
  local name=$1
  shift
  echo "== $name =="
  mkdir -p "$OUT_DIR/$name"
  GEOMAP_PROFILE_DETERMINISTIC=1 "$BUILD_DIR/bench/bench_fig7_scale" "$@" \
    --obs-dir "$OUT_DIR/$name" > "$OUT_DIR/$name/stdout.txt"
  "$OBSCTL" profile "$OUT_DIR/$name/profile.json" > /dev/null || FAILED=1
  "$OBSCTL" profile "$OUT_DIR/$name/profile.json" --collapse \
    > "$OUT_DIR/$name/profile.collapsed" || FAILED=1
  [[ -s "$OUT_DIR/$name/profile.collapsed" ]] \
    || { echo "empty $OUT_DIR/$name/profile.collapsed" >&2; FAILED=1; }
  if [[ $BLESS -eq 1 ]]; then
    cp "$OUT_DIR/$name/profile.json" "$BASELINE_DIR/$name.profile.json"
    echo "blessed $BASELINE_DIR/$name.profile.json"
  elif [[ -f $BASELINE_DIR/$name.profile.json ]]; then
    "$OBSCTL" check --threshold "$THRESHOLD" \
      --watch '*.wall_seconds,*.counters.*,*.calls,memory.accounts.*.peak_bytes' \
      "$BASELINE_DIR/$name.profile.json" \
      "$OUT_DIR/$name/profile.json" || FAILED=1
  else
    echo "no baseline $BASELINE_DIR/$name.profile.json — run with --bless" >&2
    FAILED=1
  fi
}

# run_slo_gate <name>: SLO error budgets over the multi-tenant soak's
# event stream. The soak is deterministic end to end and the export runs
# under GEOMAP_PROFILE_DETERMINISTIC=1, so events.jsonl is byte-stable
# and every slo.json leaf is a pure function of the workload. Two-fold:
# `obsctl slo --gate` fails outright when any error budget is blown, and
# `obsctl check` fails when a burn leaf grows (or a compliance leaf
# drops) past the threshold over the blessed copy — a run can regress
# toward the budget edge without crossing it, and the check catches that
# drift before the gate ever would.
run_slo_gate() {
  local name=$1
  shift
  echo "== $name =="
  mkdir -p "$OUT_DIR/$name"
  GEOMAP_PROFILE_DETERMINISTIC=1 "$BUILD_DIR/bench/bench_multitenant" "$@" \
    --obs-dir "$OUT_DIR/$name" > "$OUT_DIR/$name/stdout.json" \
    || { echo "cross-tenant invariant violation" >&2; FAILED=1; }
  "$OBSCTL" slo "$OUT_DIR/$name/events.jsonl" --gate \
    || { echo "an SLO blew its error budget" >&2; FAILED=1; }
  "$OBSCTL" slo "$OUT_DIR/$name/events.jsonl" --json \
    > "$OUT_DIR/$name/slo.json"
  if [[ $BLESS -eq 1 ]]; then
    cp "$OUT_DIR/$name/slo.json" "$BASELINE_DIR/$name.slo.json"
    echo "blessed $BASELINE_DIR/$name.slo.json"
  elif [[ -f $BASELINE_DIR/$name.slo.json ]]; then
    "$OBSCTL" check --threshold "$THRESHOLD" \
      --watch 'slos.*.burn,-slos.*.compliance,slos.*.worst' \
      "$BASELINE_DIR/$name.slo.json" \
      "$OUT_DIR/$name/slo.json" || FAILED=1
  else
    echo "no baseline $BASELINE_DIR/$name.slo.json — run with --bless" >&2
    FAILED=1
  fi
}

# run_attribution_gate <name>: blame quality over the chaos soak's
# incident reconstruction. The soak is deterministic end to end and the
# export runs under GEOMAP_PROFILE_DETERMINISTIC=1, so incidents.json is
# byte-stable and the attribution block is a pure function of the seeded
# faults. Three-fold: the structural linter must pass, `obsctl explain`
# must render every incident's chain (rc 0/1 — 1 just means the probed
# SLO blew; >=2 is a real failure), and `obsctl check` fails when
# attribution precision/recall drop (higher-is-better '-' watch) or the
# onset error / stage-latency means drift past the threshold.
run_attribution_gate() {
  local name=$1
  shift
  echo "== $name =="
  mkdir -p "$OUT_DIR/$name"
  GEOMAP_PROFILE_DETERMINISTIC=1 "$BUILD_DIR/bench/bench_multitenant" "$@" \
    --obs-dir "$OUT_DIR/$name" > "$OUT_DIR/$name/stdout.json" \
    || { echo "cross-tenant invariant violation" >&2; FAILED=1; }
  python3 scripts/check_incidents.py "$OUT_DIR/$name/incidents.json" \
    || FAILED=1
  "$OBSCTL" incidents "$OUT_DIR/$name" > /dev/null || FAILED=1
  local rc=0
  "$OBSCTL" explain "$OUT_DIR/$name" placement_stretch > /dev/null || rc=$?
  [[ $rc -le 1 ]] || { echo "obsctl explain failed (rc $rc)" >&2; FAILED=1; }
  if [[ $BLESS -eq 1 ]]; then
    cp "$OUT_DIR/$name/incidents.json" "$BASELINE_DIR/$name.attribution.json"
    echo "blessed $BASELINE_DIR/$name.attribution.json"
  elif [[ -f $BASELINE_DIR/$name.attribution.json ]]; then
    "$OBSCTL" check --threshold "$THRESHOLD" \
      --watch '-attribution.precision,-attribution.recall,attribution.mean_onset_error,attribution.misblamed,attribution.missed,stage_summary.*.mean' \
      "$BASELINE_DIR/$name.attribution.json" \
      "$OUT_DIR/$name/incidents.json" || FAILED=1
  else
    echo "no baseline $BASELINE_DIR/$name.attribution.json — run with --bless" >&2
    FAILED=1
  fi
}

# run_recovery_gate <name>: the exhaustive crash-matrix soak. Every
# registered WAL crash point is armed in turn, the killed control plane
# recovered in a fresh "process", and the recovered digest asserted
# equal to the uninterrupted baseline's — the bench itself exits
# non-zero unless every point is clean, which fails the gate outright.
# The blessed comparison watches only the exactly-deterministic count
# leaves (threshold 0): catalog size, points fired, points clean and
# violation counts. Wall-clock replay/recovery timings ride along in the
# artifact as context but are never fatal. Growing the catalog (new
# crash points) passes the higher-is-better watches; rebless to pin the
# new counts.
run_recovery_gate() {
  local name=$1
  shift
  echo "== $name =="
  mkdir -p "$OUT_DIR/$name"
  GEOMAP_PROFILE_DETERMINISTIC=1 "$BUILD_DIR/bench/bench_multitenant" "$@" \
    --wal-dir "$OUT_DIR/$name/wal" > "$OUT_DIR/$name/stdout.json" \
    || { echo "crash matrix not clean" >&2; FAILED=1; }
  if [[ $BLESS -eq 1 ]]; then
    cp "$OUT_DIR/$name/stdout.json" "$BASELINE_DIR/$name.crash_matrix.json"
    echo "blessed $BASELINE_DIR/$name.crash_matrix.json"
  elif [[ -f $BASELINE_DIR/$name.crash_matrix.json ]]; then
    "$OBSCTL" check --threshold 0 \
      --watch '-points,-points_fired,-points_clean,violations,cases.*.violations' \
      "$BASELINE_DIR/$name.crash_matrix.json" \
      "$OUT_DIR/$name/stdout.json" || FAILED=1
  else
    echo "no baseline $BASELINE_DIR/$name.crash_matrix.json — run with --bless" >&2
    FAILED=1
  fi
}

# The gate set: one healthy contention-replay bench, one faulted
# remap-on-outage bench, the closed-loop detector head-to-head, and the
# migration executor carrying a remap out — all small enough to finish in
# seconds.
run_gate fig6_sim_improvement bench_fig6_sim_improvement \
  --ranks=16 --trials=3 --contention
run_gate fault_recovery bench_fault_recovery --ranks=16
run_detector_gate detector_closed_loop --ranks=16
run_migrate_gate fault_recovery_migrate --ranks=16
run_multitenant_gate multitenant --tenants 12 --sweep 3
run_profile_gate fig7_scale --min-scale=64 --max-scale=128 --trials=3
run_slo_gate multitenant_soak --soak 2 --soak-tenants 12
run_attribution_gate chaos_soak --soak 50 --soak-tenants 8
run_recovery_gate recovery --crash-matrix --sites 4 --soak-tenants 8 \
  --seed 17 --wal-fsync=false

if [[ $BLESS -eq 1 ]]; then
  echo "baselines written to $BASELINE_DIR/"
  exit "$FAILED"  # nonzero: a bench failed outright (e.g. invariant violation)
fi
if [[ $FAILED -ne 0 ]]; then
  echo "bench-regress: FAILED (see tables above)" >&2
  exit 1
fi
echo "bench-regress: all gates passed"
