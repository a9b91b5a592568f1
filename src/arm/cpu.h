// The emulated ARM core with instrumentation points.
//
// This is the substrate role QEMU plays for NDroid (paper §V-A, §V-G):
//  * an *instruction hook* fires before each decoded instruction executes —
//    NDroid's Instruction Tracer attaches here (the analogue of inserting
//    TCG ops at translation time);
//  * a *branch hook* fires on every non-sequential control transfer with
//    (I_from, I_to) — exactly the pair the multilevel-hooking conditions
//    T1..T6 are defined over (paper Fig. 5);
//  * *function hooks* fire when control reaches a registered guest address
//    (entry) and when the hooked call returns (exit) — how NDroid hooks
//    dvmCallJNIMethod, the JNI functions, and libc entry points;
//  * *helpers* are C++ implementations behind guest addresses: when the PC
//    lands on one, the helper runs and control returns to LR. Guest stubs in
//    our fake libdvm/libc call them, keeping call chains visible as guest
//    branches.
//
// Execution has two engines, picked with Cpu::set_engine():
//  * kInterp: fetch/decode/hook/execute one instruction at a time, software
//    TLB off — the paper-faithful oracle every other tier is diffed against;
//  * kThreaded (default): straight-line instruction runs are decoded once
//    into a TranslationBlock (arm/tb_cache.h) and lowered to a micro-op
//    stream (arm/threaded.h) with hooks resolved once per block. A
//    client-installed block gate may declare a whole block hook-free
//    (NDroid's taint-liveness fast path), in which case only the clean
//    stream runs.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "arm/cpu_state.h"
#include "arm/decoder.h"
#include "arm/executor.h"
#include "arm/tb_cache.h"
#include "arm/threaded.h"
#include "mem/address_space.h"
#include "mem/memory_map.h"

namespace ndroid::arm {

class Cpu;

using InsnHook = std::function<void(Cpu&, const Insn&, GuestAddr pc)>;
using BranchHook = std::function<void(Cpu&, GuestAddr from, GuestAddr to)>;
using Helper = std::function<void(Cpu&)>;
using SvcHandler = std::function<void(Cpu&, u32 svc_number)>;

/// Consulted once per block execution when every instruction hook is gated:
/// returning false skips all instruction hooks for that block run (the
/// taint-liveness fast path). May memoise into `tb.scope_cache`.
using BlockGate = std::function<bool(Cpu&, TranslationBlock& tb)>;

/// Consulted on taken branches when every branch hook is gated: returning
/// false promises that every gated branch hook would no-op on this edge, so
/// the executor may skip firing them (and may chain a quiet self-loop
/// without leaving the block executor).
using BranchGate = std::function<bool(Cpu&, GuestAddr from, GuestAddr to)>;

/// Called right before every store-class instruction (STR*, STM/PUSH)
/// whose address lies in [lo, hi) executes, on every engine and whether or
/// not its condition passes, with the pre-state in `cpu` and the
/// instruction's address in `pc`. A plain function pointer plus context, so
/// a hooked store costs one indirect call, and stores outside the range
/// cost nothing: the threaded tier emits no hook call for them. The hook may
/// read anything but must not write guest memory, the CPU state or the
/// Cpu's hook set.
struct StoreHook {
  using Fn = void (*)(void* ctx, Cpu& cpu, const Insn& insn, GuestAddr pc);
  Fn fn = nullptr;
  void* ctx = nullptr;
  GuestAddr lo = 0;
  GuestAddr hi = ~0u;

  /// True when a store at `pc` calls the hook.
  [[nodiscard]] bool covers(GuestAddr pc) const {
    return fn != nullptr && pc >= lo && pc < hi;
  }
};

/// CPU execution tier (see the header comment). kThreaded is the default.
enum class Engine { kInterp, kThreaded };

/// Address the run loop treats as "return to host": calling convention glue
/// sets LR to this before entering guest code.
inline constexpr GuestAddr kHostReturnAddr = 0xFFFF0000u;

/// Helpers live at and above this address; the run loop checks the window
/// before block lookup, and translation never crosses into it.
inline constexpr GuestAddr kHelperWindowBase = 0xF0000000u;

class Cpu {
 public:
  explicit Cpu(mem::AddressSpace& memory, mem::MemoryMap& memmap);
  ~Cpu();

  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  CPUState& state() { return state_; }
  [[nodiscard]] const CPUState& state() const { return state_; }
  mem::AddressSpace& memory() { return memory_; }
  mem::MemoryMap& memmap() { return memmap_; }

  // --- Instrumentation ------------------------------------------------

  /// Returns an id usable with remove_insn_hook. A `gated` hook consents to
  /// being skipped for whole blocks when the block gate returns false;
  /// ungated hooks force every block to fire hooks per instruction.
  int add_insn_hook(InsnHook hook, bool gated = false);
  void remove_insn_hook(int id);

  /// A `gated` branch hook consents to being skipped for edges the branch
  /// gate declares uninteresting; ungated hooks fire on every taken branch.
  int add_branch_hook(BranchHook hook, bool gated = false);
  void remove_branch_hook(int id);

  /// Installs the block gate (see BlockGate). Flushes cached blocks so
  /// per-block memos (`scope_cache`, gate memos) cannot leak across clients.
  /// Pass nullptr to clear.
  ///
  /// `epoch` (optional) enables per-block memoisation of the gate's answer:
  /// the client owns a counter it bumps whenever any gate input changes
  /// (e.g. taint liveness crossing zero), and the executor re-calls the gate
  /// for a block only when the counter moved since the block's last answer.
  void set_block_gate(BlockGate gate, const u64* epoch = nullptr);

  /// Installs the branch gate (see BranchGate), with the same optional
  /// epoch-counter memoisation (the client bumps its counter whenever branch
  /// hook interest may have changed). Flushes cached blocks so stale branch
  /// memos cannot leak across clients.
  void set_branch_gate(BranchGate gate, const u64* epoch = nullptr);

  /// Installs the store hook (see StoreHook); a hook with fn == nullptr
  /// clears it. Flushes cached blocks, whose streams bake in which stores
  /// call the hook, so blocks translated before the change see it too.
  void set_store_hook(StoreHook hook);

  /// Registers a C++ helper behind guest address `addr`. When the PC lands
  /// there the helper runs with AAPCS argument registers live, then control
  /// returns to LR (unless the helper redirected the PC itself). Addresses
  /// in the helper window must be word-aligned (std::invalid_argument
  /// otherwise), and a running helper may not grow the window
  /// (std::logic_error): helpers run in place.
  void register_helper(GuestAddr addr, Helper helper);

  /// Registers a helper at the next free address in the helper window
  /// (0xF0000000+, 4 bytes apart in registration order) and returns that
  /// address.
  GuestAddr register_helper_auto(Helper helper);

  /// The address the next register_helper_auto call will return.
  [[nodiscard]] GuestAddr next_helper_addr() const { return next_helper_addr_; }

  void set_svc_handler(SvcHandler handler) { svc_handler_ = std::move(handler); }

  // --- Execution -------------------------------------------------------

  /// Executes one instruction (or one helper). Throws GuestFault on
  /// undecodable instructions or a missing SVC handler.
  void step();

  /// Runs until the PC reaches kHostReturnAddr or `max_steps` instructions
  /// retire. Returns true if the host-return address was reached.
  bool run(u64 max_steps = 1'000'000'000);

  /// Calls a guest function: sets up R0-R3 (+ stack for extra args), runs to
  /// completion, restores SP, returns R0. `addr` bit 0 selects Thumb.
  u32 call_function(GuestAddr addr, const std::vector<u32>& args = {});

  /// Total instructions retired (helpers count as one).
  [[nodiscard]] u64 instructions_retired() const { return retired_; }

  /// Guest stack for host-initiated calls; must be set before call_function.
  void set_initial_sp(GuestAddr sp) { state_.set_sp(sp); }

  /// Step budget used by call_function (guards against runaway guest code).
  void set_step_budget(u64 steps) { step_budget_ = steps; }

  // --- Engine selection ------------------------------------------------

  /// Selects the execution tier. The address space's software TLB follows:
  /// off for kInterp, on for kThreaded. Changing the tier flushes cached
  /// blocks so stale streams and links cannot leak across.
  void set_engine(Engine engine);
  [[nodiscard]] Engine engine() const { return engine_; }

  // --- Translation-block cache -----------------------------------------

  /// Drops every cached block (explicit invalidation, e.g. after rewriting
  /// code wholesale). Writes into cached code pages invalidate
  /// automatically via the address-space write watch.
  void flush_blocks();

  [[nodiscard]] const TbCache& tb_cache() const { return tb_cache_; }

  // --- Threaded-code tier ----------------------------------------------

  /// Installs the per-instruction trace emitter the threaded tier uses to
  /// build fused analysis streams (see TraceEmitter in threaded.h). Pass
  /// nullptr to clear. Flushes cached blocks: existing streams may embed
  /// thunks from a previous emitter.
  void set_trace_emitter(TraceEmitter emitter);

  /// Direct block-link statistics: links = transitions that stayed inside
  /// the threaded inner loop, patches = exit slots (re)patched.
  [[nodiscard]] u64 threaded_links() const { return threaded_links_; }
  [[nodiscard]] u64 threaded_patches() const { return threaded_patches_; }

  /// Blocks executed with instruction hooks skipped by the block gate, and
  /// the instructions those blocks retired.
  [[nodiscard]] u64 fastpath_blocks() const { return fastpath_blocks_; }
  [[nodiscard]] u64 fastpath_insns() const { return fastpath_insns_; }

  /// Decode-cache statistics of this Cpu's lookups (shared by every
  /// engine). The cache itself is per host thread, so a hit may reuse a
  /// decode another Cpu on the same thread made.
  [[nodiscard]] u64 decode_lookups() const { return decode_lookups_; }
  [[nodiscard]] u64 decode_hits() const { return decode_hits_; }

 private:
  /// The threaded inner loop lives outside the class (arm/threaded.cc) but
  /// is part of the execution engine: it shares the hook/gate/front-cache
  /// state and the fast-path counters.
  friend struct ThreadedRun;

  void fire_branch_hooks(GuestAddr from, GuestAddr to);
  /// Runs the store hook when `tc` is store-class and the hook covers `pc`.
  void fire_store_hook(TaintClass tc, const Insn& insn, GuestAddr pc) {
    if (store_hook_.covers(pc) && is_store_class(tc)) {
      store_hook_.fn(store_hook_.ctx, *this, insn, pc);
    }
  }
  /// The block-dispatch loop of the threaded tier: front cache,
  /// translate-on-miss, then ThreadedRun::exec per block.
  bool run_blocks(u64 max_steps);
  /// True when the registered instruction hooks fire on `tb` this
  /// execution: some hook is registered, and unless every hook is gated the
  /// block gate cannot skip them. The gate's answer is memoised on `tb`
  /// while the client's epoch counter stands still.
  bool block_hooks_fire(TranslationBlock& tb) {
    if (insn_hooks_.empty()) return false;
    if (!block_gate_ || gated_hooks_ != static_cast<int>(insn_hooks_.size())) {
      return true;
    }
    if (block_gate_epoch_ != nullptr && tb.gate_epoch == *block_gate_epoch_) {
      return tb.gate_fire;
    }
    const bool fire = block_gate_(*this, tb);
    if (block_gate_epoch_ != nullptr) {
      tb.gate_epoch = *block_gate_epoch_;
      tb.gate_fire = fire;
    }
    return fire;
  }
  /// True when firing the branch hooks for this edge would provably no-op
  /// (all hooks gated, gate says uninteresting). Only a PC-writing
  /// instruction can take a branch and every such instruction terminates
  /// its block, so the source of any taken branch from `tb` is fixed:
  /// (block, to) identifies the edge, and the gate's answer is memoised on
  /// `tb` while the client's epoch counter stands still.
  bool is_branch_quiet(TranslationBlock& tb, GuestAddr from, GuestAddr to) {
    if (branch_hooks_.empty()) return true;
    if (!branch_gate_ ||
        gated_branch_hooks_ != static_cast<int>(branch_hooks_.size())) {
      return false;
    }
    if (branch_gate_epoch_ != nullptr &&
        tb.branch_epoch == *branch_gate_epoch_ && tb.branch_to == to) {
      return tb.branch_quiet;
    }
    return ask_branch_gate(tb, from, to);
  }
  /// is_branch_quiet's slow path: asks the gate and memoises its answer.
  bool ask_branch_gate(TranslationBlock& tb, GuestAddr from, GuestAddr to);
  /// The helper registered at `pc`, or nullptr.
  Helper* find_helper(GuestAddr pc);
  /// True when a helper shadows the below-window address `pc`.
  [[nodiscard]] bool is_low_helper(GuestAddr pc) const {
    return !low_helpers_.empty() && low_helpers_.count(pc) != 0;
  }
  /// Runs a helper if one is registered at `pc`; returns false otherwise.
  bool run_helper(GuestAddr pc);
  std::shared_ptr<TranslationBlock> translate(GuestAddr pc, bool thumb);
  /// Runs `tb` one instruction at a time with per-instruction hook
  /// dispatch, stopping at `budget`: the fallback when the remaining budget
  /// cannot cover a whole block. Returns instructions retired.
  u64 exec_block(TranslationBlock& tb, u64 budget);

  struct HookEntry {
    int id;
    bool gated;
    InsnHook fn;
  };
  struct BranchHookEntry {
    int id;
    bool gated;
    BranchHook fn;
  };

  mem::AddressSpace& memory_;
  mem::MemoryMap& memmap_;
  CPUState state_{};

  /// Decodes through the calling thread's decode cache (cpu.cc). The
  /// returned reference is valid until the thread's next decode.
  const Insn& decode_cached(u64 key, u32 word, u16 hw2);
  /// Fetches and decodes the instruction at `pc` in the current mode.
  const Insn& fetch_decode(GuestAddr pc, bool thumb);

  std::vector<HookEntry> insn_hooks_;
  int gated_hooks_ = 0;
  std::vector<BranchHookEntry> branch_hooks_;
  int gated_branch_hooks_ = 0;
  BlockGate block_gate_;
  const u64* block_gate_epoch_ = nullptr;
  BranchGate branch_gate_;
  const u64* branch_gate_epoch_ = nullptr;
  StoreHook store_hook_;
  /// Window helpers, dense: slot i is kHelperWindowBase + 4·i, and an empty
  /// Helper is an unregistered slot.
  std::vector<Helper> window_helpers_;
  /// Helpers that shadow addresses below the window (only tests register
  /// these). While it is empty, ordinary guest PCs skip the helper lookup.
  std::unordered_map<GuestAddr, Helper> low_helpers_;
  /// Window helpers currently running (nested through call_function).
  int running_helpers_ = 0;
  GuestAddr next_helper_addr_ = kHelperWindowBase;
  SvcHandler svc_handler_;
  int next_hook_id_ = 1;
  u64 retired_ = 0;
  u64 step_budget_ = 1'000'000'000;
  int call_depth_ = 0;

  Engine engine_ = Engine::kThreaded;
  TraceEmitter trace_emitter_;
  u64 threaded_links_ = 0;
  u64 threaded_patches_ = 0;
  TbCache tb_cache_{memory_};
  /// Direct-mapped raw-pointer front over the TB cache: a hit costs one
  /// probe and no shared_ptr refcount traffic. Entries are tagged with the
  /// cache version so every invalidation voids them wholesale; pointers stay
  /// valid because killed blocks sit in the graveyard until exec_depth_ is
  /// zero (see run()).
  struct TbFrontEntry {
    u64 key = 0;
    u64 version = ~0ull;  // never a live TbCache version
    TranslationBlock* tb = nullptr;
  };
  static constexpr u32 kTbFrontBits = 10;
  std::vector<TbFrontEntry> tb_front_ =
      std::vector<TbFrontEntry>(1u << kTbFrontBits);
  int exec_depth_ = 0;  // nested block-executor frames (call_function re-entry)
  u64 fastpath_blocks_ = 0;
  u64 fastpath_insns_ = 0;
  u64 decode_lookups_ = 0;
  u64 decode_hits_ = 0;
};

}  // namespace ndroid::arm
