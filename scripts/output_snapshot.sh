#!/usr/bin/env bash
# Writes the stdout of a fixed list of `cloudlb` and bench commands, one
# file per command, so the user-visible output of two builds can be
# compared byte for byte:
#
#   scripts/output_snapshot.sh parent/build /tmp/snap-parent
#   scripts/output_snapshot.sh build /tmp/snap-change
#   diff -r /tmp/snap-parent /tmp/snap-change
#
# Every command is deterministic (fixed seeds, per-cell RNGs; the bench
# grids give the same bytes for any --jobs value), so any difference is a
# behaviour change. The list covers `penalty` for every app × balancer,
# alone and against 8 bursty tenants, plus the estimator stages on the
# tenant runs; `penalty` on the partitioned runtime (--shards=4), with and
# without a fault plan; `sweep`, `timeline`, `record` + `replay`; the four paper
# figures; and the strategy, forecast, fault, multi-tenant and
# migration-cost ablations.
#
# BUILD_DIR is a configured and built tree (tools/cloudlb, bench/*).
# SNAPSHOT_JOBS (default 2) sets the bench grids' worker count. Exits
# non-zero if any command fails; its stderr is then in OUT_DIR/<name>.err.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BUILD_DIR OUT_DIR" >&2
  exit 2
fi
build=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
cli="$build/tools/cloudlb"
jobs="${SNAPSHOT_JOBS:-2}"
failed=0

# run NAME COMMAND...: stdout to OUT_DIR/NAME.txt. Commands run inside
# OUT_DIR so relative file arguments (the recorded trace) land there and
# print the same path for every build.
run() {
  local name=$1
  shift
  if (cd "$out" && "$@") >"$out/$name.txt" 2>"$out/$name.err"; then
    rm -f "$out/$name.err"
  else
    echo "FAILED: $name ($*)" >&2
    failed=1
  fi
}

mapfile -t balancers < <("$cli" balancers)
for app in jacobi2d wave2d mol3d; do
  for balancer in "${balancers[@]}"; do
    run "penalty_${app}_${balancer}" \
      "$cli" penalty --app="$app" --balancer="$balancer"
    run "penalty_${app}_${balancer}_tenants8" \
      "$cli" penalty --app="$app" --balancer="$balancer" --tenants=8
  done
  # The full estimator pipeline: outlier clamp, then trend forecast, then
  # (for the preset) smoothing.
  for balancer in ia-refine ia-refine-ewma; do
    run "penalty_${app}_${balancer}_tenants8_trend_window5" \
      "$cli" penalty --app="$app" --balancer="$balancer" --tenants=8 \
      --estimator=trend --estimator-window=5
  done
done

# The partitioned runtime (4 shards over 8 quad-core nodes). Each of these
# files must equal the same command with --shards=1 byte for byte.
for app in jacobi2d wave2d mol3d; do
  run "penalty_${app}_cores32_shards4" \
    "$cli" penalty --app="$app" --cores=32 --shards=4 --jobs="$jobs"
done
run penalty_jacobi2d_cores32_shards4_spike \
  "$cli" penalty --app=jacobi2d --cores=32 --shards=4 --jobs="$jobs" \
  --faults="spike(core=2,start=0.5,duration=1);seed(value=7)"

run sweep "$cli" sweep --jobs="$jobs"
run timeline "$cli" timeline --app=jacobi2d --balancer=ia-refine --cores=4
run record "$cli" record --out=record.lbstats --app=jacobi2d --cores=8
for balancer in ia-refine ia-refine-ewma greedy; do
  run "replay_${balancer}" "$cli" replay --trace=record.lbstats \
    --balancer="$balancer"
done

for bench in fig1_interference_timeline fig2_timing_penalty \
  fig3_dynamic_interference fig4_power_energy ablation_strategies \
  ablation_forecast ablation_faults ablation_multitenant \
  ablation_migration_cost; do
  run "$bench" "$build/bench/$bench" --jobs "$jobs"
done

exit "$failed"
