// Per-function taint summaries over the lifted CFGs.
//
// Two result families, both consumed by the dynamic layer:
//
//  * A *skip certificate* for the summary-gated fast path: the set of
//    registers the function's taint rules can read or write
//    (`touched_regs`), and a classification of every memory access
//    (none / statically-known constant windows / stack-frame only /
//    opaque). When the live taint state provably cannot intersect either
//    set, running the instruction tracer over the function writes
//    clear-over-clear everywhere — skipping it leaves the shadow state
//    bit-identical (see NDroid::block_gate).
//
//  * *Arg-flow facts* for reporting: which argument
//    registers (r0-r3) can flow to the return value, to memory stores, or
//    to outgoing call arguments, computed by a forward register def-use
//    dataflow (joins at block entries, kills on definite writes) iterated
//    to a bounded fixed point over the call graph.
//    A function with no memory effects, no calls, no SVC and an
//    argument-independent return value is `transparent` (ndroid-scan and
//    the precision report count these).
//
// Everything degrades conservatively: indirect calls, truncated lifts and
// unmodelled instructions make a summary opaque, and opaque summaries are
// never used to skip anything.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "static/cfg.h"

namespace ndroid::static_analysis {

/// How a function touches guest memory, ordered by how much the dynamic
/// gate must know before skipping it (see NDroid::block_gate).
enum class MemKind : u8 {
  kNone,    // no loads or stores anywhere (pure register function)
  kStatic,  // every access within statically-known constant windows
  kStack,   // accesses confined to constant windows + SP-relative slots
  kOpaque,  // at least one unresolvable access (or unresolved callee)
};

struct Window {
  GuestAddr lo = 0;
  GuestAddr hi = 0;  // exclusive
};

struct TaintSummary {
  GuestAddr entry = 0;  // Thumb bit stripped
  std::string name;

  /// Registers this function's own Table V rules may read or write,
  /// including load/store bases (the address-taint rule). Deliberately
  /// function-local: callees' blocks carry their own summaries, and every
  /// call boundary ends a translation block, so the dynamic gate
  /// re-evaluates there (see NDroid::block_gate).
  u16 touched_regs = 0;
  MemKind mem_kind = MemKind::kOpaque;
  /// Merged constant-address windows (meaningful for kStatic; kept for
  /// kStack too, where they describe the non-stack accesses).
  std::vector<Window> windows;
  bool has_svc = false;
  /// Lift hit the instruction budget: the facts are not a superset of the
  /// function's behaviour, so the gate must never skip on them.
  bool truncated = false;
  /// Some call target could not be resolved inside the lifted program;
  /// the arg-flow facts below are conservative upper bounds.
  bool unresolved_calls = false;

  // Arg-flow facts (bit i = argument register ri, i in 0..3).
  u8 args_to_ret = 0;
  u8 args_to_mem = 0;
  u8 args_to_call = 0;
  bool ret_depends_on_mem = false;

  /// No memory effects, no calls, no SVC, return value independent of the
  /// arguments: hooking this JNI method can never observe or move taint.
  bool transparent = false;

  [[nodiscard]] bool opaque() const {
    return truncated || mem_kind == MemKind::kOpaque;
  }
};

class SummaryIndex {
 public:
  /// Keyed by function entry (Thumb bit stripped).
  std::map<GuestAddr, TaintSummary> summaries;

  [[nodiscard]] const TaintSummary* find(GuestAddr entry) const {
    auto it = summaries.find(entry & ~1u);
    return it == summaries.end() ? nullptr : &it->second;
  }
};

/// Number of whole-call-graph passes of the arg-flow fixed point. Chains of
/// depth > kCallGraphPasses simply stay conservative.
inline constexpr int kCallGraphPasses = 4;

[[nodiscard]] SummaryIndex summarize(const Program& program);

}  // namespace ndroid::static_analysis
