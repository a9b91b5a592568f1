// NDroid's System Lib Hook Engine (paper §V-D).
//
// "Since the system standard functions will be frequently called by native
// libraries, instrumenting every instruction in these standard functions
// will take a long time and incur heavy overhead. Instead, we model the
// taint propagation operations for popular functions" (Table VI).
//
// Each modeled function gets an entry handler (and optionally an exit
// handler fired when control returns to the captured LR). The memcpy model
// is Listing 3 verbatim: per-byte addTaint(dst+i, getTaint(src+i)).
//
// Sink checking (Table VII): functions marked * in the paper — write*,
// send*, sendto*, fwrite*, fputc*, fputs* — plus fprintf (the Fig. 8
// SinkHandler). Kernel-level sinks are checked at SVC instructions; libc
// FILE* sinks at function entry.
//
// The hooked entry points come from the once-per-process libc image, so the
// address -> handler table is process-wide data too (hook_table); an engine
// owns only its per-invocation state: pending exits, leaks, counters.
//
// Liveness fast path (NDroidConfig::taint_liveness_fastpath): a Table VI
// model's entry handler only writes shadows and logs nothing while the data
// is clean, so while no taint is live anywhere (TaintEngine::has_live_taint)
// the models are skipped, and wants_branch() does not ask for their entry
// points. Sinks and TrustCall handlers always run, and a pending exit fires
// whether or not taint is still live.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/addr_filter.h"
#include "arm/cpu.h"
#include "core/report.h"
#include "core/taint_engine.h"
#include "libc/libc.h"
#include "os/kernel.h"

namespace ndroid::core {

class SysLibHookEngine {
 public:
  /// `skip_clean_models` turns on the liveness fast path (see above).
  SysLibHookEngine(libc::Libc& libc, os::Kernel& kernel, TaintEngine& engine,
                   TraceLog& log, bool models_enabled, bool skip_clean_models);

  /// One Table VI model or Table VII sink: a libc entry point and the
  /// handler that runs when control reaches it. Handlers capture nothing;
  /// the engine they act for is their first argument.
  struct EntryHook {
    GuestAddr addr;
    const char* name;
    void (*fn)(SysLibHookEngine&, arm::Cpu&);
    bool model;  // a Table VI model (shadow-only while the data is clean)
  };
  /// The entry hooks of one libc image, sorted by address, and the branch
  /// prefilters over their addresses: `targets` over every hook,
  /// `sink_targets` over the sinks and TrustCall handlers alone (the hooks
  /// that run while the models are skipped). Immutable once built.
  struct HookTable {
    std::vector<EntryHook> hooks;
    AddrBloom targets;
    AddrBloom sink_targets;
  };

  /// The table for libc images with `symbols`, with or without the Table VI
  /// models: built at first use, once per process (thread-safe), and shared
  /// by every engine.
  static const HookTable& hook_table(
      const std::map<std::string, GuestAddr>& symbols, bool models_enabled);

  /// The table this engine dispatches through.
  [[nodiscard]] const HookTable& table() const { return table_; }

  /// Branch-event dispatch (modeled-function entry/exit).
  void on_branch(arm::Cpu& cpu, GuestAddr from, GuestAddr to);

  /// Cheap prefilter: false means on_branch(to) is guaranteed to be a no-op.
  /// on_branch acts only on the innermost pending exit's return address and
  /// on hooked entry points (models only while models_live()), so a loop
  /// inside a hooked call (a guest strlen under a pending exit) stays quiet.
  /// The answer depends on taint liveness: a memo of it must be voided when
  /// liveness flips (TaintEngine::branch_epoch).
  [[nodiscard]] bool wants_branch(GuestAddr to) const {
    return (!exits_.empty() && exits_.back().ret_to == to) ||
           (models_live() ? table_.targets : table_.sink_targets).maybe(to);
  }

  /// False while the liveness fast path skips the Table VI models.
  [[nodiscard]] bool models_live() const {
    return !skip_clean_models_ || engine_.has_live_taint();
  }

  /// Drops the pending exits of hooked calls entered at or below guest
  /// stack pointer `sp`: a GuestFault unwound the native frames down to
  /// there, so those calls will never return.
  void drop_exits_below(GuestAddr sp);

  /// Instruction-event dispatch (SVC sink checks).
  void on_insn(arm::Cpu& cpu, const arm::Insn& insn, GuestAddr pc);

  [[nodiscard]] const std::vector<NativeLeak>& leaks() const {
    return leaks_;
  }
  void clear_leaks() { leaks_.clear(); }

  [[nodiscard]] u64 models_applied() const { return models_applied_; }

 private:
  static HookTable build_table(const std::map<std::string, GuestAddr>& symbols,
                               bool models_enabled);

  /// What a pending exit does when the hooked call returns; a, b, c and d
  /// are PendingExit's operands.
  enum class ExitKind : u8 {
    kCopyToResult,      // strdup: t[r0, r0+b) = t[a, a+b)
    kResultFromRange,   // strlen family: t(r0) = t[a, a+b)
    kResultFromRanges,  // strcmp family: t(r0) = t[a, a+c) | t[b, b+d)
    kResultAddTaint,    // strchr family: t(r0) |= a
    kResultSetTaint,    // libm: t(r0) = a
    kClearResult,       // malloc, calloc: t[r0, r0+a) = clear
    kRealloc,           // old block a, new size b, bytes kept c
  };
  /// Runs the exit `kind` when the hooked call returns to the current LR.
  void defer_exit(arm::Cpu& cpu, ExitKind kind, u32 a, u32 b = 0, u32 c = 0,
                  u32 d = 0);

  u32 guest_strlen(arm::Cpu& cpu, GuestAddr s);
  /// Renders a printf-style call and computes the taint union of its
  /// arguments (mirrors the libc helper's format logic).
  std::pair<std::string, Taint> format_taint(arm::Cpu& cpu,
                                             const std::string& fmt,
                                             u32 first_reg);
  void record_leak(std::string sink, std::string destination, Taint taint,
                   std::string data, GuestAddr pc);

  libc::Libc& libc_;
  os::Kernel& kernel_;
  TaintEngine& engine_;
  TraceLog& log_;
  const HookTable& table_;
  const bool skip_clean_models_;

  struct PendingExit {
    ExitKind kind;
    GuestAddr ret_to;
    GuestAddr sp;  // the guest SP when the hooked call was entered
    u32 a, b, c, d;
  };
  void run_exit(arm::Cpu& cpu, const PendingExit& exit);
  std::vector<PendingExit> exits_;

  std::vector<NativeLeak> leaks_;
  u64 models_applied_ = 0;
};

}  // namespace ndroid::core
