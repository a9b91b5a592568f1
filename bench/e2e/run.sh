#!/usr/bin/env bash
# Configures, builds (Release) and runs the end-to-end benchmark.
#
#   bench/e2e/run.sh [--workload W] [--seed S] [--seconds N] [--trace 0|1]
#                    [--smoke] [--json OUT] [--trace-out DIR]
#
# Without --workload every workload runs, each in its own process; without
# --trace each workload runs untraced (end-to-end metrics) and then traced
# (per-layer metrics). --json appends one provenance-stamped JSON object per
# run to OUT; --trace-out writes DIR/<workload>.trace.json. Build output goes
# to stderr, so the last line of stdout is the last run's result. Exits
# non-zero if the build fails or any output check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build/e2e"

workloads=(mix_serial mix_threads cfbench_long monkey_taint)
modes=(0 1)
args=()
json=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workloads=("$2"); shift 2 ;;
    --trace) modes=("$2"); shift 2 ;;
    --json) json="$2"; args+=(--json "$2"); shift 2 ;;
    --trace-out) mkdir -p "$2"; args+=("$1" "$2"); shift 2 ;;
    --seed | --seconds) args+=("$1" "$2"); shift 2 ;;
    --smoke) args+=(--smoke); shift ;;
    *) echo "run.sh: unknown option $1" >&2; exit 2 ;;
  esac
done

{
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build" -j "$(( $(nproc) < 4 ? $(nproc) : 4 ))"
} >&2

sha=unknown
if [[ -e "$root/.git" ]]; then
  sha="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
if [[ -n "$json" ]]; then
  : > "$json"
fi
status=0
for w in "${workloads[@]}"; do
  for t in "${modes[@]}"; do
    "$build/e2e_bench" --workload "$w" --trace "$t" --git-sha "$sha" \
      ${args[@]+"${args[@]}"} || status=1
  done
done
exit "$status"
