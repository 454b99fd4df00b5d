#!/usr/bin/env bash
# Smoke run of the performance benchmark (perfbench/): builds it from the
# current sources and runs every workload for one second, untraced and
# with per-layer tracing. Fails unless each run's last line reports
# "correct": true, i.e. the benchmark still builds against the simulator's
# API and its output checks (task conservation, pass-to-pass bit identity,
# serial stencil references, traced-vs-untraced equality) hold.
#
#   scripts/perfbench_smoke.sh
#
# Deliberately not gated on "failed": scale1k_sharded carries a known
# partitioned-vs-legacy mismatch that counts one failed run per pass
# (perfbench/README.md).
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"

run() {
  local last
  last="$(python3 "${root}/perfbench/run.py" --seed default --seconds 1 "$@" |
    tail -n 1)"
  echo "$* -> ${last}"
  python3 -c 'import json, sys
sys.exit(0 if json.loads(sys.argv[1]).get("correct") is True else 1)' \
    "${last}" || { echo "perfbench: $* is not correct" >&2; return 1; }
}

for workload in paper32 cloud128 scale1k_sharded; do
  run --workload "${workload}" --trace 0
done
# Traced runs rebuild every scenario from the public constructors and must
# reproduce run_scenario bit for bit on both engines: the legacy engine
# with a tenant field (cloud128) and the partitioned runtime
# (scale1k_sharded).
for workload in paper32 cloud128 scale1k_sharded; do
  run --workload "${workload}" --trace 1
done
