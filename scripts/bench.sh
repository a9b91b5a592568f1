#!/usr/bin/env bash
# Runs the performance suite and writes machine-readable results:
#   BENCH_micro.json   — google-benchmark JSON from bench_micro (ns/insn,
#                        insns/sec, TB hit rate per benchmark)
#   BENCH_cfbench.json — Fig. 10 CF-Bench slowdowns + shape checks
#   BENCH_farm.json    — farm throughput at 1/2/4/8 workers plus the
#                        crash-isolated process-pool rows (p=2 without the
#                        zygote template, bare, cold persistent store, warm
#                        persistent store) + cache/store hit rates (see
#                        bench_farm.cc for the shape checks: topology-
#                        identical digests, template setup_ms saving, warm
#                        store static_ms saving)
#
# Usage: scripts/bench.sh [build-dir] [--engine TIER]
#   build-dir        defaults to ./build-bench
#   --engine TIER    CPU execution tier for the farm rows and the engine
#                    stamp in every JSON:
#                    interp | threaded | jit
#                    (default threaded, the production tier; jit degrades
#                    to threaded on hosts without host-code emission)
#
# The build directory is configured and built here with
# CMAKE_BUILD_TYPE=Release — perf numbers from unoptimised binaries are not
# comparable, so this script refuses to inherit whatever build type a
# pre-existing directory happens to carry. (The "library_build_type" field
# google-benchmark emits describes the *system benchmark library*, which may
# itself be a debug build; the "repo_build_type" stamped below is ours.)
# Every JSON gets the producing git SHA stamped into its context.
#
# BENCH_micro.json records two acceptance ratios (compare items_per_second):
#   * Block tiers:  BM_EmulatorNativeMips vs BM_EmulatorNativeMipsInterp
#                   (taint-free native loop, threaded tier vs interpreter,
#                   target >= 3x).
#   * Summary gate: the live-taint gating trio
#                   BM_EmulatorNativeMipsTracedTaintedSummary (summary-gated)
#                   vs BM_EmulatorNativeMipsTracedTainted (liveness-only)
#                   vs BM_EmulatorNativeMipsTracedTaintedFull (full trace).
#                   Taint is live in r4, so liveness-only cannot skip and
#                   lands within noise of full trace; summary-gated must
#                   clearly beat both (~3-4x in EXPERIMENTS.md).
#   * Threaded:     BM_EmulatorNativeMipsTraced must land within noise of
#                   BM_EmulatorNativeMips (clean blocks pay no taint cost).
#                   BM_ThreadedDispatch isolates the dispatch loop itself.
#   * Template JIT: BM_JitNativeMips (host x86-64 emission) vs
#                   BM_EmulatorNativeMips (threaded tier), target >= 1.3x
#                   on x86-64 hosts; BM_JitDispatch isolates the dispatch
#                   loop under patched host jumps.
#   * Taint-fused JIT: BM_JitTracedTainted (taint-live blocks on the
#                   traced host stream: inlined Table V transfers, shadow-
#                   TLB label probes, deferred bookkeeping resync) vs
#                   BM_EmulatorNativeMipsTracedTainted (threaded fused-
#                   trace tier), target >= 3x on x86-64 hosts. Its
#                   jit_traced_blocks / jit_fallback_blocks counters prove
#                   which tier executed and are copied into every
#                   artifact's context alongside the code-arena statistics
#                   from BM_JitNativeMips (blocks, bytes, link patches,
#                   arena flushes) as "jit_tier" below.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="build-bench"
ENGINE="threaded"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --engine)
      ENGINE="$2"
      shift 2
      ;;
    *)
      BUILD_DIR="$1"
      shift
      ;;
  esac
done
case "$ENGINE" in
  interp|threaded|jit) ;;
  *)
    echo "unknown engine tier: $ENGINE (expected interp|threaded|jit)" >&2
    exit 2
    ;;
esac
GIT_SHA="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export GIT_SHA

cmake -S . -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)" --target \
  bench_micro bench_fig10_cfbench bench_farm ndroid-scan

# Static-precision counters for this revision (aggregated PrecisionReport
# over the synthetic corpus): stamped into every artifact's context so a
# perf number can always be read next to the precision the static layer
# delivered when it was produced.
PRECISION_JSON="$("$BUILD_DIR/tools/ndroid-scan" --precision)"
export PRECISION_JSON

# The bundled google-benchmark predates the "0.3s" suffix syntax.
"$BUILD_DIR/bench/bench_micro" \
  --benchmark_min_time=0.3 \
  --benchmark_format=json \
  --benchmark_out=BENCH_micro.json \
  --benchmark_out_format=json

# 9 reps: the shape checks compare wall-clock medians, which need headroom
# against scheduler noise (EXPERIMENTS.md records this 9-rep median).
"$BUILD_DIR/bench/bench_fig10_cfbench" 9 --json BENCH_cfbench.json

# 12 reps: enough corpus repetition that the summary cache's hit rate must
# exceed 90% (~15 distinct libraries across ~430 acquires).
"$BUILD_DIR/bench/bench_farm" 12 --json BENCH_farm.json --engine "$ENGINE"

# Stamp provenance into the artifacts bench_farm doesn't already stamp
# (the producing git SHA and the build type of this repo's code), plus the
# static-precision counters and the JIT tier's code-arena statistics
# (scraped from BM_JitNativeMips's counters in BENCH_micro.json) into all
# three, so any perf number can be read next to how much host code backed it.
python3 - "$GIT_SHA" "$ENGINE" BENCH_micro.json BENCH_cfbench.json BENCH_farm.json <<'EOF'
import json, os, sys
sha, engine = sys.argv[1], sys.argv[2]
precision = json.loads(os.environ["PRECISION_JSON"])

with open("BENCH_micro.json") as f:
    micro = json.load(f)
jit_tier = {}
for b in micro.get("benchmarks", []):
    if b.get("name") == "BM_JitNativeMips":
        jit_tier = {k: b[k] for k in
                    ("jit_blocks", "jit_bytes", "jit_links", "jit_patches",
                     "jit_arena_flushes") if k in b}
for b in micro.get("benchmarks", []):
    if b.get("name") == "BM_JitTracedTainted":
        jit_tier.update({k: b[k] for k in
                         ("jit_traced_blocks", "jit_fallback_blocks")
                         if k in b})
# jit_blocks == 0 means the host has no code emission and the jit tier
# degraded to threaded: record that explicitly.
jit_tier["jit_available"] = bool(jit_tier.get("jit_blocks", 0))

for path in sys.argv[3:]:
    with open(path) as f:
        doc = json.load(f)
    doc.setdefault("context", {})
    if path != "BENCH_farm.json":
        doc["context"]["git_sha"] = sha
        doc["context"]["repo_build_type"] = "release"
        doc["context"]["engine"] = engine
    doc["context"]["static_precision"] = precision
    doc["context"]["jit_tier"] = jit_tier
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
EOF

echo
echo "wrote BENCH_micro.json, BENCH_cfbench.json and BENCH_farm.json ($GIT_SHA, $ENGINE engine)"
