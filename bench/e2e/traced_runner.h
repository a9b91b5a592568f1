// The traced replay: runs a batch through a copy of farm/worker.cc's run_job
// that records a span around every public call and reads each layer's
// counters after the run. Spans live in per-thread vectors until the
// benchmark writes them out.
#pragma once

#include <chrono>
#include <vector>

#include "farm/farm.h"

namespace e2e {

using ndroid::u32;
using ndroid::u64;
using Clock = std::chrono::steady_clock;

/// Span names. kJob is the parent of the others, which a job opens in
/// kLayerSpans order.
inline constexpr const char* kJob = "job";
inline constexpr const char* kDeviceBuild = "android.device_build";
inline constexpr const char* kNdroidAttach = "core.ndroid_attach";
inline constexpr const char* kAppBuild = "apps.app_build";
inline constexpr const char* kStaticAttach = "static.attach";
inline constexpr const char* kRun = "run";
inline constexpr const char* kTeardown = "android.teardown";
inline constexpr const char* kLayerSpans[] = {
    kDeviceBuild, kNdroidAttach, kAppBuild, kStaticAttach, kRun, kTeardown,
};

struct Span {
  const char* name = nullptr;
  double start_us = 0;  // since the replay's epoch
  double end_us = 0;
  int parent = -1;  // index in the same thread's vector; -1 for a job span
  u32 job = 0;
  ndroid::farm::JobKind kind{};
  u32 thread = 0;

  [[nodiscard]] double us() const { return end_us - start_us; }
};

/// Work counts read from public accessors after a job's run call.
struct JobCounters {
  u64 bytecodes = 0;            // Dvm::bytecodes_executed
  u64 insns = 0;                // Cpu::instructions_retired
  u64 translations = 0;         // PerfCounters::tb_translations
  u64 jit_blocks = 0;           // PerfCounters::jit_blocks
  u64 fastpath_insns = 0;       // PerfCounters::fastpath_insns
  u64 jit_traced_blocks = 0;    // PerfCounters::jit_traced_blocks
  u64 jit_fallback_blocks = 0;  // PerfCounters::jit_fallback_blocks
  u64 insns_traced = 0;         // InstructionTracer::instructions_traced
  u64 propagations = 0;         // TaintEngine::propagations
  u64 models_applied = 0;       // SysLibHookEngine::models_applied
  u64 source_policies_applied = 0;
  u64 gate_skips = 0;           // NDroid::summary_gate_skips

  JobCounters& operator+=(const JobCounters& o) {
    bytecodes += o.bytecodes;
    insns += o.insns;
    translations += o.translations;
    jit_blocks += o.jit_blocks;
    fastpath_insns += o.fastpath_insns;
    jit_traced_blocks += o.jit_traced_blocks;
    jit_fallback_blocks += o.jit_fallback_blocks;
    insns_traced += o.insns_traced;
    propagations += o.propagations;
    models_applied += o.models_applied;
    source_policies_applied += o.source_policies_applied;
    gate_skips += o.gate_skips;
    return *this;
  }
};

struct TracedBatch {
  ndroid::farm::FarmReport report;  // aggregated and sorted like run_farm's
  std::vector<JobCounters> counters;  // by job id, like report.results
  std::vector<Span> spans;
  double wall_ms = 0;
};

/// Runs `jobs` (ids 0..n-1) on `workers` threads pulling from an atomic
/// index, or inline when `workers` is 0, with default FarmOptions and the
/// shared `cache`.
TracedBatch run_traced_batch(const std::vector<ndroid::farm::JobSpec>& jobs,
                             ndroid::static_analysis::SummaryCache& cache,
                             u32 workers, Clock::time_point epoch);

}  // namespace e2e
