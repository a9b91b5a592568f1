// NDroid's DVM Hook Engine (paper §V-B): instruments the JNI-related
// functions through which information flows cross the Java/native boundary.
// Five groups:
//
//  (1) JNI entry — dvmCallJNIMethod. Builds the call's SourcePolicy from
//      the interleaved (value, taint) arguments on the DVM stack and the
//      guest Method struct; applies it when execution reaches the native
//      method's first instruction; captures the native return value's taint
//      and repairs the return-taint slot / returned object on bridge exit.
//  (2) JNI exit — Call*Method -> dvmCallMethod{V,A} -> dvmInterpret,
//      guarded by the multilevel hooking conditions T1..T6 (Fig. 5).
//      Collects indirect-ref arg taints at dvmCallMethod entry and writes
//      them into the freshly allocated DVM frame before dvmInterpret runs.
//  (3) Object creation — NOF/MAF pairs (Table III): correlates the real
//      object address (MAF return) with the indirect reference (NOF return)
//      and taints the new object from the native source bytes.
//  (4) Field access — Get/Set*Field (+static) (Table IV).
//  (5) Exception — ThrowNew -> initException: taints the message string in
//      the pending exception object.
//
// Plus the TrustCall handlers for GetStringUTFChars / Get*ArrayElements /
// *ArrayRegion seen in the Fig. 7/8 logs.
//
// Every hooked address comes from the once-per-process libdvm/JNI image, so
// the address tables are process-wide data too (hook_tables); an engine
// owns only its correlation state.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/addr_filter.h"
#include "android/device.h"
#include "core/report.h"
#include "core/taint_engine.h"

namespace ndroid::core {

class DvmHookEngine {
 public:
  /// `third_party` classifies addresses as app native code (condition T1).
  /// `multilevel` enables the precondition chains; when disabled the
  /// dvmCallMethod*/dvmInterpret hooks run on every entry (the ablation).
  DvmHookEngine(android::Device& device, TaintEngine& engine, TraceLog& log,
                std::function<bool(GuestAddr)> third_party,
                bool multilevel = true);

  void on_branch(arm::Cpu& cpu, GuestAddr from, GuestAddr to);

  /// Cheap prefilter: false means on_branch(to) is guaranteed to be a no-op,
  /// so the caller may skip it. With any correlation state pending (exit
  /// actions, an active NOF, a live T1..T6 chain) every branch matters; in
  /// the common steady state — a JNI method just executing native code —
  /// only its own first-instruction address and the static hook targets do.
  [[nodiscard]] bool wants_branch(GuestAddr to) const {
    if (!exits_.empty() || !nof_stack_.empty() || !chain_.empty()) return true;
    if (!jni_stack_.empty() && to == jni_stack_.back().policy.method_address) {
      return true;
    }
    return tables_.static_targets.maybe(to);
  }

  /// Drops the records of native calls whose DVM-stack outs area lies below
  /// `sp`, with every pending exit action, object creation and T1..T6
  /// chain those calls started: Dvm::call unwound to `sp` (its unwind
  /// observer), so the calls are gone, and a GuestFault skipped the events
  /// that would have retired that state.
  void drop_calls_below(GuestAddr sp);
  /// Native calls entered through dvmCallJNIMethod and not yet returned.
  [[nodiscard]] std::size_t jni_calls_in_flight() const {
    return jni_stack_.size();
  }

  /// A Table III NOF entry point and the MAF it allocates through.
  struct Nof {
    GuestAddr addr;
    const char* name;
    GuestAddr maf;
    int kind;  // 0 none, 1 cstr(r1), 2 unicode(r1,len r2)
  };
  /// A Table IV accessor, TrustCall or ThrowNew entry point and its
  /// handler. Handlers capture nothing; the engine is their first argument.
  struct SimpleHook {
    GuestAddr addr;
    const char* name;
    void (*fn)(DvmHookEngine&, arm::Cpu&);
  };
  /// The static hook targets, resolved from the libdvm/JNI image's symbol
  /// tables. Each vector is sorted by address. Immutable once built.
  struct HookTables {
    GuestAddr call_jni = 0;
    GuestAddr call_method_v = 0;
    GuestAddr call_method_a = 0;
    GuestAddr interpret = 0;
    std::vector<GuestAddr> call_stubs;  // the 27 Call*Method* stubs
    std::vector<Nof> nofs;
    std::vector<SimpleHook> simple_hooks;
    /// Union of every address above plus the host-return sentinel;
    /// wants_branch() probes it.
    AddrBloom static_targets;
  };
  /// Built at first use, once per process (thread-safe), and shared by
  /// every engine.
  static const HookTables& hook_tables();
  /// The tables this engine dispatches through.
  [[nodiscard]] const HookTables& tables() const { return tables_; }

  // Statistics (tests and the ablation bench read these).
  // A SourcePolicy counts as created and applied only for a call with a
  // tainted argument.
  u64 source_policies_created = 0;
  u64 source_policies_applied = 0;
  u64 jni_exit_restores = 0;
  u64 objects_tainted = 0;
  u64 chain_events[6] = {};  // T1..T6 match counts

 private:
  /// The argument taints of one native call, in the paper's Listing 1
  /// layout (its `handler` is apply_source_policy). The paper keeps one per
  /// method in an <addr, SourcePolicy> map; here each JniCall holds its
  /// own, so a policy lives exactly as long as its call.
  struct SourcePolicy {
    GuestAddr method_address = 0;  // first instruction, Thumb bit clear
    Taint tR0 = 0, tR1 = 0, tR2 = 0, tR3 = 0;
    u32 stack_args_num = 0;
    std::vector<Taint> stack_args_taints;
    std::string method_shorty;
    u32 access_flag = 0;
  };

  struct JniCall {
    SourcePolicy policy;
    bool tainted = false;  // some argument carries taint
    GuestAddr args_area = 0;
    GuestAddr result_addr = 0;
    u32 arg_count = 0;
    char return_type = 'V';
    Taint native_ret_taint = kTaintClear;
    int phase = 0;  // 0: bridge entered, 1: native running, 2: native done
    /// Sizes of exits_, nof_stack_ and chain_ when the call entered: what
    /// lies above them belongs to this call or to calls it made.
    std::size_t exits_mark = 0;
    std::size_t nofs_mark = 0;
    std::size_t chain_mark = 0;
  };

  struct ActiveNof {
    const char* name = nullptr;  // a HookTables::nofs name
    GuestAddr maf = 0;
    Taint taint = kTaintClear;
    GuestAddr real_addr = 0;
    GuestAddr ret_to = 0;
  };

  /// What the hooks read out of a guest Method struct. The log names the
  /// method through the host Method (Dvm::method_at) when it renders.
  struct GuestMethodInfo {
    GuestAddr insns = 0;
    std::string shorty;
    u32 access_flags = 0;
    u32 registers_size = 0;
    u32 ins_size = 0;
    [[nodiscard]] bool is_static() const;
  };
  GuestMethodInfo read_method(arm::Cpu& cpu, GuestAddr method_struct);

  void hook_jni_entry(arm::Cpu& cpu);
  void apply_source_policy(arm::Cpu& cpu, const JniCall& call);
  void hook_native_return_events(arm::Cpu& cpu, GuestAddr to);
  void hook_call_method_entry(arm::Cpu& cpu, char kind);
  void hook_interpret_entry(arm::Cpu& cpu);
  void hook_nof_entry(arm::Cpu& cpu, GuestAddr to);
  void hook_field_set(arm::Cpu& cpu, char type, bool is_static);
  void hook_field_get(arm::Cpu& cpu, char type, bool is_static);
  void hook_get_string_utf_chars(arm::Cpu& cpu);
  void hook_get_array_elements(arm::Cpu& cpu);
  void hook_release_array_elements(arm::Cpu& cpu);
  void hook_pop_local_frame(arm::Cpu& cpu);
  void hook_array_region(arm::Cpu& cpu, bool set);
  void hook_throw_new(arm::Cpu& cpu);
  template <char kType, bool kStatic>
  static void field_set(DvmHookEngine& e, arm::Cpu& cpu) {
    e.hook_field_set(cpu, kType, kStatic);
  }
  template <char kType, bool kStatic>
  static void field_get(DvmHookEngine& e, arm::Cpu& cpu) {
    e.hook_field_get(cpu, kType, kStatic);
  }
  static HookTables build_tables();

  u32 guest_strlen(arm::Cpu& cpu, GuestAddr s);
  Taint object_taint_by_iref(u32 iref);
  void push_exit(arm::Cpu& cpu, std::function<void(arm::Cpu&)> fn);

  android::Device& device_;
  TaintEngine& engine_;
  TraceLog& log_;
  std::function<bool(GuestAddr)> third_party_;
  bool multilevel_;

  std::vector<JniCall> jni_stack_;

  // Multilevel chain state: current level per nesting depth.
  std::vector<int> chain_;
  // Pending taints collected at dvmCallMethod*, consumed at dvmInterpret.
  std::vector<Taint> pending_java_taints_;
  bool pending_java_valid_ = false;

  std::vector<ActiveNof> nof_stack_;
  struct PendingExit {
    GuestAddr ret_to;
    std::function<void(arm::Cpu&)> fn;
  };
  std::vector<PendingExit> exits_;

  const HookTables& tables_;

  static constexpr u32 kStubRange = 0x40;  // stub bodies are < 64 bytes
};

}  // namespace ndroid::core
