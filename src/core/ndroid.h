// NDroid: the paper's dynamic taint analysis system (§V).
//
// Attaches four modules to the emulator's instrumentation surfaces
// (paper Fig. 4):
//   (1) DVM Hook Engine          — JNI-related function hooks;
//   (2) Instruction Tracer       — per-instruction Table V propagation in
//                                  third-party native code;
//   (3) System Lib Hook Engine   — Table VI models + Table VII sinks;
//   (4) Taint Engine             — shadow registers + byte-granular map.
// The OS-level view reconstructor (§V-F) is available as
// os::ViewReconstructor and is used to resolve module scopes.
//
// Configuration toggles expose the paper's design choices for the ablation
// benches, and allow building the comparison systems:
//   * NDroidConfig{}                          — NDroid as published;
//   * droidscope_mode()                       — whole-system instruction
//     tracing, no models, no JNI semantics (the DroidScope-style baseline);
//   * disabling everything ~ TaintDroid-only (just don't attach NDroid).
#pragma once

#include <memory>

#include "android/device.h"
#include "core/dvm_hook_engine.h"
#include "core/instruction_tracer.h"
#include "core/report.h"
#include "core/summary_gate.h"
#include "core/syslib_hook_engine.h"
#include "core/taint_engine.h"
#include "core/taint_guard.h"

namespace ndroid::static_analysis {
class SummaryCache;
class SummaryStore;
}

namespace ndroid::core {

struct NDroidConfig {
  /// Attach the DVM Hook Engine (JNI entry/exit, object creation, field
  /// access, exception hooks).
  bool dvm_hooks = true;
  /// Attach the per-instruction tracer.
  bool instruction_tracer = true;
  /// Model standard-library functions (Table VI) instead of tracing them.
  bool syslib_models = true;
  /// Guard dvmCallMethod*/dvmInterpret hooks with the T1..T6 precondition
  /// chains (Fig. 5). Off = hook every entry (ablation).
  bool multilevel_hooking = true;
  /// Cache instruction->handler classifications (§V-C). Off = re-classify
  /// every instruction (ablation).
  bool handler_cache = true;
  /// Check native sinks (Table VII).
  bool sink_checks = true;
  /// §VII extension: flag third-party stores into the DVM stack, libdvm, or
  /// kernel structures (taint tampering / trusted-function modification).
  bool taint_protection = false;
  /// Taint-liveness fast path: when the CPU executes translation blocks,
  /// NDroid's block gate skips all per-instruction work for blocks that
  /// provably cannot move taint (nothing tainted anywhere, or clean
  /// registers and no memory operations in the block), and the System Lib
  /// Hook Engine skips the Table VI models while no taint is live (they
  /// would only write clear over clear). Off = hook every instruction and
  /// apply every model regardless (ablation and the paper's Fig. 10
  /// policy; trace_disassembly also makes the block gate hook every
  /// in-scope instruction).
  bool taint_liveness_fastpath = true;
  /// Static pre-analysis feedback (attach_static_analysis): summaries of the
  /// app's native functions let the block gate skip taint-transparent code
  /// even while taint is live. Off = the attach call becomes a no-op
  /// (ablation: liveness-only gating).
  bool static_summaries = true;
  /// Optional shared cache of per-library static artifacts (the farm's
  /// cross-app amortisation, src/farm). When set, attach_static_analysis
  /// lifts each native library at most once per distinct content hash
  /// process-wide and shares the immutable snapshot; when null, every
  /// attach computes its own summaries (the pre-farm behaviour). The cache
  /// must outlive this NDroid. Thread-safe: many NDroid instances on
  /// different threads may point at the same cache.
  static_analysis::SummaryCache* summary_cache = nullptr;
  /// Optional persistent on-disk summary store. When `summary_cache` is
  /// set, attach the store to the cache instead (SummaryCache::set_store);
  /// this field covers the cache-less path: attach_static_analysis loads
  /// each library's artifact from disk when a hash-verified entry exists
  /// and writes back fresh lifts. This is how isolated farm worker
  /// *processes* — whose in-memory caches die with them — amortise static
  /// analysis across jobs, runs, and machines. Must outlive this NDroid.
  static_analysis::SummaryStore* summary_store = nullptr;

  enum class Scope {
    kThirdParty,          // app .so files only (NDroid, §V-C)
    kThirdPartyAndLibc,   // ablation: no models -> must trace libc loops
    kAll,                 // whole system (DroidScope-mode)
  };
  Scope scope = Scope::kThirdParty;

  bool echo_log = false;  // stream the trace log to stdout (figure benches)
  /// Log the disassembly of every traced instruction (debugging aid).
  bool trace_disassembly = false;

  /// The DroidScope-style configuration: instruction-level whole-system
  /// tracking without JNI semantic hooks or library models.
  static NDroidConfig droidscope_mode() {
    NDroidConfig cfg;
    cfg.dvm_hooks = false;
    cfg.syslib_models = false;
    cfg.multilevel_hooking = false;
    cfg.sink_checks = false;
    cfg.scope = Scope::kAll;
    // DroidScope-style tracing instruments every instruction unconditionally;
    // it has no taint-liveness gating. Keep the baseline honest.
    cfg.taint_liveness_fastpath = false;
    return cfg;
  }
};

class NDroid {
 public:
  explicit NDroid(android::Device& device, NDroidConfig config = {});
  ~NDroid();

  NDroid(const NDroid&) = delete;
  NDroid& operator=(const NDroid&) = delete;

  /// Leaks detected at native-context sinks.
  [[nodiscard]] const std::vector<NativeLeak>& leaks() const {
    return syslib_->leaks();
  }
  void clear_leaks() { syslib_->clear_leaks(); }

  TraceLog& log() { return log_; }
  TaintEngine& taint_engine() { return engine_; }
  DvmHookEngine& dvm_hooks() { return *dvm_hooks_; }
  SysLibHookEngine& syslib() { return *syslib_; }
  InstructionTracer& tracer() { return *tracer_; }
  /// Non-null only when config.taint_protection is on.
  [[nodiscard]] TaintGuard* guard() { return guard_.get(); }
  [[nodiscard]] const NDroidConfig& config() const { return config_; }

  /// Runs the static pre-analysis (§ tentpole): discovers the app's code
  /// regions through the OS view reconstructor, lifts CFGs from every
  /// registered native method, computes taint summaries, and feeds them
  /// back into the dynamic layer (summary-aware block gate on the finer
  /// taint-mutation epoch).
  /// Call after the app's native libraries are loaded and its methods
  /// registered. Returns the gate (nullptr when config.static_summaries is
  /// off). Safe to call again after more libraries load — rebuilds.
  const SummaryGate* attach_static_analysis();
  /// Non-null after a successful attach_static_analysis().
  [[nodiscard]] const SummaryGate* summary_gate() const {
    return summary_gate_.get();
  }

  /// Blocks the gate skipped on summary evidence while taint was live (each
  /// count is a fresh gate evaluation; epoch-memoised re-skips don't count).
  u64 summary_gate_skips = 0;

 private:
  [[nodiscard]] std::function<bool(GuestAddr)> scope_predicate() const;
  /// Decides once per translation block whether per-instruction hooks are
  /// needed (false = the taint-liveness fast path skips the whole block).
  bool block_gate(arm::TranslationBlock& tb);
  [[nodiscard]] bool block_in_scope(arm::TranslationBlock& tb);

  android::Device& device_;
  NDroidConfig config_;
  TaintEngine engine_;
  TraceLog log_;
  std::function<bool(GuestAddr)> scope_;  // tracer scope, used by the gate
  std::unique_ptr<InstructionTracer> tracer_;
  std::unique_ptr<DvmHookEngine> dvm_hooks_;
  std::unique_ptr<SysLibHookEngine> syslib_;
  std::unique_ptr<TaintGuard> guard_;
  std::unique_ptr<SummaryGate> summary_gate_;
  int branch_hook_id_ = 0;
  int insn_hook_id_ = 0;
};

}  // namespace ndroid::core
