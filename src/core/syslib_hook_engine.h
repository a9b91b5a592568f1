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
#pragma once

#include <functional>
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
  SysLibHookEngine(libc::Libc& libc, os::Kernel& kernel, TaintEngine& engine,
                   TraceLog& log, bool models_enabled);

  /// One Table VI model or Table VII sink: a libc entry point and the
  /// handler that runs when control reaches it. Handlers capture nothing;
  /// the engine they act for is their first argument.
  struct EntryHook {
    GuestAddr addr;
    const char* name;
    void (*fn)(SysLibHookEngine&, arm::Cpu&);
  };
  /// The entry hooks of one libc image, sorted by address, and the branch
  /// prefilter over their addresses. Immutable once built.
  struct HookTable {
    std::vector<EntryHook> hooks;
    AddrBloom targets;
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
  [[nodiscard]] bool wants_branch(GuestAddr to) const {
    return !exits_.empty() || table_.targets.maybe(to);
  }

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

  /// Runs `fn` when the hooked call returns to the current LR.
  void defer_exit(arm::Cpu& cpu, std::function<void(arm::Cpu&)> fn);

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

  struct PendingExit {
    GuestAddr ret_to;
    std::function<void(arm::Cpu&)> fn;
  };
  std::vector<PendingExit> exits_;

  std::vector<NativeLeak> leaks_;
  u64 models_applied_ = 0;
};

}  // namespace ndroid::core
