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
// Execution has three engines, picked with Cpu::set_engine():
//  * kInterp: fetch/decode/hook/execute one instruction at a time, software
//    TLB off — the paper-faithful oracle every other tier is diffed against;
//  * kThreaded (default): straight-line instruction runs are decoded once
//    into a TranslationBlock (arm/tb_cache.h) and lowered to a micro-op
//    stream (arm/threaded.h) with hooks resolved once per block. A
//    client-installed block gate may declare a whole block hook-free
//    (NDroid's taint-liveness fast path), in which case only the clean
//    stream runs;
//  * kJit: the same streams compiled to x86-64 host code (arm/jit.h). Where
//    host code cannot run it degrades to kThreaded.
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
struct JitEngine;  // arm/jit.h — host-code-emission backend state

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

/// Everything the taint-fused JIT streams need from the analysis layer,
/// flattened to raw pointers so emitted host code can bake them in as
/// immediates. The arm layer stays ignorant of the taint engine: the client
/// (core::NDroid) fills this in and owns every pointed-to object for as long
/// as the view is installed. With a view installed (reg_labels != nullptr),
/// gate-skipped blocks run their *clean* host stream and gate-fired blocks
/// run a *traced* host stream that propagates Table V taint inline — instead
/// of falling back to the threaded tier wholesale.
struct TaintJitView {
  /// The 16-slot register label file (TaintEngine shadow registers). Traced
  /// streams read and write it raw; `sync` reconciles the engine's
  /// incremental bookkeeping (counts, masks, epochs) afterwards.
  u32* reg_labels = nullptr;
  /// Called at every traced-block exit and before every out-of-line trace
  /// callout with a bitmask of registers whose labels emitted code may have
  /// written since the last sync.
  void (*sync)(void* ctx, u32 written_mask) = nullptr;
  void* sync_ctx = nullptr;
  /// ShadowMemory's JIT shadow TLB: direct-mapped, 16-byte entries, page
  /// number at +0 and label-array pointer at +8 (the data-TLB probe shape).
  const void* shadow_tlb = nullptr;
  u32 shadow_tlb_slots = 0;
  /// Slow paths for taint loads/stores that miss the shadow TLB or straddle
  /// a page: fill the TLB and do the bookkeeping-complete range op.
  u32 (*shadow_read)(void* ctx, u32 addr, u32 len) = nullptr;
  void (*shadow_write)(void* ctx, u32 addr, u32 len, u32 taint) = nullptr;
  void* mem_ctx = nullptr;
  /// Tracer statistics slots; constant increments are folded into traced
  /// exits so the counts stay exactly what the interpreted tracer would
  /// report. cache_ctr == nullptr means the handler cache is disabled.
  u64* traced_ctr = nullptr;
  u64* cache_ctr = nullptr;
  u64* prop_ctr = nullptr;
};

/// CPU execution tier (see the header comment). kThreaded is the default.
enum class Engine { kInterp, kThreaded, kJit };

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

  /// Registers a C++ helper behind guest address `addr`. When the PC lands
  /// there the helper runs with AAPCS argument registers live, then control
  /// returns to LR (unless the helper redirected the PC itself).
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
  /// off for kInterp, on otherwise. kJit records kThreaded when
  /// jit_available() is false (and the run loop degrades to kThreaded if
  /// host code later fails to materialise). Changing the tier flushes
  /// cached blocks so stale streams, links and host code cannot leak across.
  void set_engine(Engine engine);
  [[nodiscard]] Engine engine() const { return engine_; }

  /// True when this build can emit host code (x86-64, not NDROID_NO_JIT).
  [[nodiscard]] static bool jit_available();

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

  // --- Template JIT tier ------------------------------------------------

  /// Test hook: code-arena capacity and write-protection discipline. `wx`
  /// selects strict W^X (arena RW only while compiling, RX while
  /// executable) over the default single RWX mapping. Call while no guest
  /// frame is live; drops the current arena and flushes cached blocks.
  void set_jit_config(std::size_t arena_bytes, bool wx);

  /// Jit statistics: links/patches mirror the threaded counters; blocks /
  /// bytes / arena_flushes describe the code-arena lifecycle.
  [[nodiscard]] u64 jit_links() const { return jit_links_; }
  [[nodiscard]] u64 jit_link_patches() const { return jit_link_patches_; }
  [[nodiscard]] u64 jit_blocks_compiled() const {
    return jit_blocks_compiled_;
  }
  [[nodiscard]] u64 jit_bytes_emitted() const { return jit_bytes_emitted_; }
  [[nodiscard]] u64 jit_arena_flushes() const { return jit_arena_flushes_; }

  /// Installs (or clears, with nullptr) the taint view the jit tier compiles
  /// traced host streams against. Flushes cached blocks: emitted streams
  /// bake the view's pointers in as immediates.
  void set_taint_jit_view(const TaintJitView* view) {
    taint_jit_view_ = view != nullptr ? *view : TaintJitView{};
    flush_blocks();
  }
  [[nodiscard]] bool has_taint_jit_view() const {
    return taint_jit_view_.reg_labels != nullptr;
  }

  /// Traced-tier dispatch statistics: blocks entered through a traced host
  /// stream vs. blocks that fell back to the threaded/traced micro-op
  /// streams while instruction hooks were live (no view installed, traced
  /// emission bailed, or the hook configuration is not the fusable shape).
  [[nodiscard]] u64 jit_traced_blocks() const { return jit_traced_blocks_; }
  [[nodiscard]] u64 jit_fallback_blocks() const {
    return jit_fallback_blocks_;
  }

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
  /// Likewise for the jit tier (arm/jit.cc).
  friend struct JitRun;

  void fire_branch_hooks(GuestAddr from, GuestAddr to);
  /// The block-dispatch loop of the threaded and jit tiers: front cache,
  /// translate-on-miss, then per block JitRun::exec or ThreadedRun::exec.
  bool run_blocks(u64 max_steps);
  /// Host-code entry for `blk` under the jit tier (compiling on demand), or
  /// nullptr when this dispatch rides the threaded streams instead.
  const u8* jit_entry(ThreadedBlock& blk);
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
  /// Runs a helper if one is registered at `pc`; returns false otherwise.
  bool run_helper(GuestAddr pc);
  std::shared_ptr<TranslationBlock> translate(GuestAddr pc, bool thumb);
  /// Runs `tb` one instruction at a time with per-instruction hook
  /// dispatch, stopping at `budget`: the fallback when the remaining budget
  /// cannot cover a whole block. Returns instructions retired.
  u64 exec_block(TranslationBlock& tb, u64 budget);
  /// True when firing the branch hooks for this edge would provably no-op
  /// (all hooks gated, gate says uninteresting); memoises per block.
  bool is_branch_quiet(TranslationBlock& tb, GuestAddr from, GuestAddr to);

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
  std::unordered_map<GuestAddr, Helper> helpers_;
  /// True once any helper shadows an address below the helper window; until
  /// then ordinary guest PCs skip the helper hash lookup entirely.
  bool has_low_helpers_ = false;
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
  std::size_t jit_arena_bytes_ = 4u << 20;
  bool jit_wx_ = false;
  u64 jit_links_ = 0;
  u64 jit_link_patches_ = 0;
  u64 jit_blocks_compiled_ = 0;
  u64 jit_bytes_emitted_ = 0;
  u64 jit_arena_flushes_ = 0;
  TaintJitView taint_jit_view_{};
  u64 jit_traced_blocks_ = 0;
  u64 jit_fallback_blocks_ = 0;
  /// Lazily created on the first jit dispatch; owns the code arena. Lives
  /// behind a pointer so non-jit configurations pay nothing.
  std::unique_ptr<JitEngine> jit_engine_;
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
