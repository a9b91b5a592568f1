// Template JIT tier: host x86-64 code emission over the micro-op IR.
//
// The threaded tier (arm/threaded.{h,cc}) already did the hard lifting —
// per-block flat micro-op streams with fully pre-resolved operands — so this
// backend is a *template* JIT in the classic sense: JitRun::compile walks a
// block's Uop stream (recovering each op's kind through
// ThreadedRun::label_table) and appends a fixed x86-64 code template per
// dense op into a per-engine executable code arena. Dense DP ALU ops, the
// shift-imm MOVs, long multiplies, loads/stores with the inline read/write
// TLB probe (slow path = call-out into the shared uop kernels), the
// superword-fused pairs, and the cmp/subs+conditional-branch fused terminals
// all lower to straight host code; rare shapes (LDM/STM, generic execute()
// ops, dynamic-target terminals) call out into C++ transliterations of the
// corresponding threaded labels, so the two tiers keep bit-identical
// semantics by construction.
//
// Direct block linking carries the threaded protocol over unchanged: each
// JitBlock owns two HostSlots (taken / fall-through) holding a TbCache
// version tag and the successor's code pointer. Emitted link tails load the
// slot's version, compare against the live cache version (address baked into
// the code), and on a match jump straight to the successor — so any
// kill/flush (SMC invalidation included) voids every patched host edge at
// once, exactly like the threaded ExitSlots. Slots live in heap JitBlock
// metadata, never in the arena, so patching needs no mprotect and the W^X
// mode keeps the arena execute-only outside compilation.
//
// Arena lifecycle: bump allocation, no per-block free. Killed blocks keep
// their (now unreachable) code until the arena fills; exhaustion sets a
// flush request that the block-dispatch loop (Cpu::run_blocks) honours at
// the next safe point (exec_depth_ == 0): flush all blocks, drain the
// graveyard, reset the arena, bump the arena generation, and recompile on
// demand.
//
// Taint-fused traced stream: when the analysis client installs a
// Cpu::TaintJitView (single fused instruction hook + block gate), compile
// emits a *second* host-code body per block — the traced stream — into the
// same arena allocation, right after the clean body. Traced templates
// prefix each instruction with its Table V taint transfer inlined over the
// engine's raw register-label file (base pinned in RBP), probe a
// direct-mapped shadow-page TLB for load label reads (same 16-byte slot
// shape as the data TLB), fold the tracer's statistics counters into each
// exit, and defer register count/mask/epoch bookkeeping to a sync callout
// (TaintEngine::jit_resync) at every exit. Instructions the emitter could
// not prove inlineable call out per instruction instead of abandoning the
// whole block. Stream selection replays the threaded tier's epoch-memoised
// gate in C++ (resolve / Cpu::jit_entry) with every inter-block edge forced
// through the slow resolver while instruction hooks are live, so taint
// liveness flipping re-routes edges between the two streams without
// re-emission — the same version-fenced link protocol either way.
//
// `NDROID_NO_JIT` (or a non-x86-64 host) compiles the backend down to
// stubs: jit_available() is false, Cpu::set_engine(Engine::kJit) records
// Engine::kThreaded, and `--engine jit` runs the threaded tier.
#pragma once

#include <cstddef>
#include <memory>

#include "arm/threaded.h"
#include "mem/address_space.h"

namespace ndroid::arm {

class Cpu;

#if defined(__x86_64__) && !defined(NDROID_NO_JIT)
#define NDROID_JIT_X64 1
#endif

/// A version-fenced host link slot — the jit twin of ExitSlot. `target` is
/// the successor JitBlock's code entry; valid only while `version` matches
/// the live TbCache version (and the arena generation the code was emitted
/// into is still current, which the patch protocol guarantees).
struct HostSlot {
  u64 version = ~0ull;  // never a live TbCache version
  u64 key = 0;
  const void* target = nullptr;
};

/// Host-code lowering of one ThreadedBlock. Heap-allocated (stable address:
/// emitted code holds pointers to the slots and to itself) and owned by the
/// ThreadedBlock, so the graveyard protocol keeps it alive until no
/// executor frame is live.
struct JitBlock {
  ThreadedBlock* blk = nullptr;
  const u8* code = nullptr;  // entry of the emitted clean block body
  /// Entry of the taint-fused traced body, emitted into the *same* arena
  /// allocation right after the clean body (one alloc per compile, so an
  /// arena flush can never strand one stream of a pair). Null when no
  /// TaintJitView was installed at compile time or the traced emission
  /// bailed (gate-fired executions then fall back to the threaded tier).
  const u8* traced_entry = nullptr;
  u32 code_size = 0;  // total: clean body + traced body
  u64 arena_gen = 0;  // arena generation the code was emitted into
  HostSlot slots[2];  // [0] = taken edge, [1] = fall-through edge
};

/// Bump-allocated executable memory. Default mode maps one RWX region;
/// `wx` mode keeps the arena RW only between begin_write()/end_write()
/// (i.e. while JitRun::compile runs, never while guest code executes) and
/// RX otherwise.
class CodeArena {
 public:
  CodeArena(std::size_t capacity, bool wx);
  ~CodeArena();
  CodeArena(const CodeArena&) = delete;
  CodeArena& operator=(const CodeArena&) = delete;

  /// 16-byte-aligned bump allocation; nullptr when the remaining capacity
  /// cannot hold `n` bytes (the caller schedules an arena flush).
  u8* alloc(std::size_t n);
  void reset() { used_ = 0; }

  void begin_write();  // wx: whole arena RW (compile-time only)
  void end_write();    // wx: whole arena RX

  [[nodiscard]] bool valid() const { return base_ != nullptr; }
  [[nodiscard]] std::size_t used() const { return used_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] const u8* base() const { return base_; }

 private:
  u8* base_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t used_ = 0;
  bool wx_ = false;
};

/// Per-Cpu jit backend state: the code arena, the per-generation entry /
/// epilogue glue, and the baked-in invariants (TLB array layout, cache
/// version address) the templates load through.
struct JitEngine {
  JitEngine(std::size_t arena_bytes, bool wx) : arena(arena_bytes, wx) {}

  CodeArena arena;
  u64 generation = 1;
  /// Set when the arena could not hold a block; Cpu::run_blocks honours it
  /// at the next exec_depth_==0 safe point (flush + drain + reset +
  /// ++generation).
  bool flush_pending = false;

  /// Prologue glue: saves callee-saved registers, pins the state/ctx/TLB
  /// registers, and jumps into block code. Re-emitted per generation.
  using EntryFn = void (*)(void* ctx, const void* code);
  EntryFn entry = nullptr;
  const u8* epilogue = nullptr;
};

/// Static entry points of the jit tier (friend of Cpu), mirroring
/// ThreadedRun.
struct JitRun {
  /// Compiles `blk`'s micro-op stream to host code and attaches it as
  /// blk.jit. Returns false when the arena is exhausted (flush_pending is
  /// set and the caller executes the block through the threaded tier).
  static bool compile(Cpu& cpu, ThreadedBlock& blk);

  /// Runs compiled code starting at `at` (the entry block's clean body or
  /// its traced body, as the gate decided), following patched host links,
  /// for at most `budget` instructions. Same contract as
  /// ThreadedRun::exec: PC architecturally correct on return, returns
  /// instructions retired (0 = budget could not cover the entry block).
  static u64 exec(Cpu& cpu, ThreadedBlock& entry, const u8* at, u64 budget);

  /// Creates the Cpu's JitEngine on first use and (re-)emits the per-
  /// generation prologue/epilogue glue. False when host code cannot run
  /// here (mmap failure, TLB layout drift) — the caller degrades to the
  /// threaded tier.
  static bool ensure_engine(Cpu& cpu);

  /// Honours a pending arena-exhaustion flush at an exec_depth_ == 0 safe
  /// point: drop all blocks, drain the graveyard, reset the arena, bump the
  /// generation, re-emit the glue. False when the glue no longer fits.
  static bool arena_flush(Cpu& cpu);

  // --- Callouts from emitted code (SysV ABI) ----------------------------
  // Declared here so they share Cpu's friendship with the rest of the
  // tier; signatures use opaque pointers to keep the execution context
  // (jit.cc's JitCtx) out of the public header. `resolve` is the shared
  // edge-resolution tail (threaded link_edge/link_fall transliterated);
  // the co_* wrappers add the per-terminal semantics and the exception
  // fence (C++ exceptions cannot unwind through emitted frames, so they
  // are parked in the context and rethrown by exec()).
  static const void* resolve(void* ctx, void* jb, u32 slot_idx, u32 from,
                             u32 to, u32 taken);
  static const void* co_edge(void* ctx, void* jb, u32 slot_idx, u32 from,
                             u32 to, u32 taken);
  static const void* co_bx(void* ctx, void* jb, const void* uop);
  static const void* co_exec_term(void* ctx, void* jb, const void* uop);
  static const void* co_svc_term(void* ctx, void* jb, const void* uop);

  // Traced-stream callouts. `co_trace_step` dispatches one non-inlineable
  // TraceOp (after syncing the raw label writes accumulated since the
  // last callout — `written` — so the handler observes consistent
  // bookkeeping); it returns 0 on success, 1 with an exception parked.
  // `co_taint_sync` is the bare exit resync; `co_shadow_read` /
  // `co_shadow_write` are the shadow-TLB slow paths (miss, page straddle,
  // or a store that must move labels).
  static u64 co_trace_step(void* ctx, const void* op, const void* ti,
                           u32 written);
  static void co_taint_sync(void* ctx, u32 written);
  static u32 co_shadow_read(void* ctx, u32 addr, u32 len);
  static void co_shadow_write(void* ctx, u32 addr, u32 len, u32 taint);
};

}  // namespace ndroid::arm
