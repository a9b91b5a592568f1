// Threaded-code execution tier: per-block micro-op streams with direct
// block linking (the QEMU-TCG analogue over tb_cache's decoded blocks).
//
// At emission time (ThreadedRun::emit) each TranslationBlock is lowered into
// a flat array of Uop records. Every record carries a computed-goto label
// plus fully pre-resolved operands — register indices, folded immediates,
// pre-decoded condition — so the inner loop (ThreadedRun::exec) is
// load-label / jump / tiny body with no per-instruction decode, no operand
// re-resolution, and no function-call dispatch. Load/store micro-ops probe
// the address space's software TLB inline (AddressSpace::tlb_probe_*); a
// write-TLB hit provably cannot touch cached code (watched pages are never
// cached there), so hit stores also skip the self-modification dead check.
//
// Taint fusion: the stream above is the *clean* lowering — it contains no
// analysis callouts at all, so a block the gate declares taint-free pays
// zero taint cost. When the block gate fires, execution switches to a
// parallel pre-resolved trace stream (TraceStep per instruction) built from
// the client's TraceEmitter: each step is either a fused thunk (the
// combined effect of every registered instruction hook, with scope and
// handler classification resolved once) or a generic hook dispatch.
// Selection happens per execution at block entry via the epoch-memoised
// gate, so taint liveness flipping never forces re-emission.
//
// Store hook: while Cpu::set_store_hook has a hook installed, every
// store-class instruction whose pc lies in the hook's range is preceded by
// a store_hook micro-op that calls it, in the clean stream as in the traced
// one, and the store itself keeps its dense micro-op and dead-block check.
// A store check therefore never forces a block off the clean stream.
//
// Direct block linking: each block carries two monomorphic exit slots
// (taken / fall-through). When a terminal micro-op resolves its successor it
// patches the slot with a raw pointer to the successor's stream and later
// executions jump straight there without leaving the inner loop. Slots are
// tagged with the TbCache version; kill_block/flush bump the version, so
// every patched edge across the whole cache is void the instant any block
// dies — the same fencing protocol as the Cpu's front cache, with no edge
// bookkeeping on invalidation.
//
// Helpers, SVCs and hooks stay inside the loop too: a window helper runs in
// place through Cpu::run_helper, an SVC handler runs where the SVC retires,
// and non-quiet edges fire their branch hooks; afterwards the loop resumes
// at the architectural PC (wherever a helper left it) through the
// version-fenced front cache, since that code may have changed anything.
// The loop exits to the block-dispatch loop (Cpu::run_blocks) only on a
// link or front-cache miss, a budget boundary, live ITSTATE, a low helper,
// host return, or a self-modification dead mark.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "arm/tb_cache.h"

namespace ndroid::arm {

class Cpu;

// Micro-op kinds. The X-macro keeps the enum and the computed-goto label
// table (threaded.cc) in one list so they can never drift out of order. The
// *_off/_pre/_post triples must stay contiguous (emission indexes base +
// variant).
#define NDROID_UOP_LIST(X)                                                 \
  X(enter)                                                                 \
  X(and_i) X(and_r) X(eor_i) X(eor_r) X(sub_i) X(sub_r) X(rsb_i) X(rsb_r) \
  X(add_i) X(add_r) X(adc_i) X(adc_r) X(sbc_i) X(sbc_r) X(rsc_i) X(rsc_r) \
  X(orr_i) X(orr_r) X(mov_i) X(mov_r) X(bic_i) X(bic_r) X(mvn_i) X(mvn_r) \
  X(cmp_i0) X(cmp_i) X(cmp_r) X(cmn_i) X(cmn_r)                            \
  X(subs_i) X(subs_r) X(adds_i) X(adds_r)                                  \
  X(movw) X(movt) X(mul) X(sxtb) X(sxth) X(uxtb) X(uxth)                   \
  X(lsl_i) X(lsr_i) X(asr_i) X(ror_i) X(umull) X(smull)                    \
  X(ldr_off) X(ldr_pre) X(ldr_post)                                        \
  X(ldrb_off) X(ldrb_pre) X(ldrb_post)                                     \
  X(ldrh_off) X(ldrh_pre) X(ldrh_post)                                     \
  X(ldrsb_off) X(ldrsb_pre) X(ldrsb_post)                                  \
  X(ldrsh_off) X(ldrsh_pre) X(ldrsh_post)                                  \
  X(str_off) X(str_pre) X(str_post)                                        \
  X(strb_off) X(strb_pre) X(strb_post)                                     \
  X(strh_off) X(strh_pre) X(strh_post)                                     \
  X(movw_movt) X(ldr_addi) X(stm) X(ldm)                                   \
  X(exec) X(exec_dead) X(store_hook)                                       \
  X(cmp0_b) X(cmp_i_b) X(cmp_r_b) X(subs_i_b)                              \
  X(b_al) X(bl_al) X(b_cond) X(bx_term) X(svc_term) X(exec_term) X(end)

enum class UK : u32 {
#define NDROID_UOP_ENUM(name) k_##name,
  NDROID_UOP_LIST(NDROID_UOP_ENUM)
#undef NDROID_UOP_ENUM
      kCount
};

/// A pre-resolved analysis thunk for one instruction: `fn(ctx, ...)` must
/// reproduce the combined effect of every registered instruction hook on
/// that instruction. `fn == nullptr` means the hooks provably no-op there.
/// `keepalive` owns whatever `ctx` points into.
struct TraceOp {
  using Fn = void (*)(void* ctx, Cpu& cpu, const Insn& insn, GuestAddr pc);
  Fn fn = nullptr;
  void* ctx = nullptr;
  std::shared_ptr<void> keepalive;
};

/// Per-instruction emission oracle installed by the analysis client
/// (Cpu::set_trace_emitter). Returns:
///  * std::nullopt          — no fused form; dispatch the generic hooks;
///  * TraceOp{fn=nullptr}   — the hooks provably no-op on this instruction;
///  * TraceOp{fn!=nullptr}  — fused thunk covering all hook effects.
/// Fused thunks are only ever used while exactly one instruction hook is
/// registered; any topology change flushes cached blocks (and with them
/// every built trace stream).
using TraceEmitter =
    std::function<std::optional<TraceOp>(const TranslationBlock& tb,
                                         const TbInsn& ti)>;

/// One micro-op record (32 bytes). Field meaning depends on the label:
/// for ALU ops a/b/c are destination/first/second register indices and
/// `imm` the folded immediate; for memory ops a=rd, b=rn, imm=signed offset
/// (already negated for subtracting forms) and x=the PC after the
/// instruction (partial-exit resume point for slow-path stores); for
/// branches imm/x are the taken/fall-through PCs and a holds the
/// pre-decoded condition; `p` points at the TbInsn (generic/terminal ops)
/// or at the owning ThreadedBlock (the entry op).
struct Uop {
  void* label = nullptr;
  u8 a = 0;
  u8 b = 0;
  u8 c = 0;
  u8 d = 0;
  u32 imm = 0;
  u32 x = 0;
  const void* p = nullptr;
};

/// A direct-link exit slot, version-tagged against the TbCache exactly like
/// Cpu::TbFrontEntry: any kill/flush bumps the cache version and thereby
/// unlinks every patched edge at once. `succ` stays dereference-safe even
/// when stale because killed blocks (and their streams) sit in the
/// graveyard until no executor frame is live.
struct ExitSlot {
  u64 version = ~0ull;  // never a live TbCache version
  u64 key = 0;
  ThreadedBlock* succ = nullptr;
};

/// One entry of the fused trace stream (parallel to tb.insns). `generic`
/// routes through the Cpu's registered hook list; otherwise `op` is the
/// fused thunk (op.fn == nullptr ⇒ provable no-op).
struct TraceStep {
  TraceOp op;
  bool generic = true;
};

struct ThreadedBlock {
  TranslationBlock* tb = nullptr;
  /// tb->insns.size(), cached flat so the entry op's budget check does not
  /// chase through the TranslationBlock.
  u32 n_insns = 0;
  /// [0] = entry op (gate + budget check), then one op per instruction
  /// (the final compare + conditional branch may fuse into one), then a
  /// terminal (or an explicit fall-through continuation).
  std::vector<Uop> ops;
  /// exits[0] = taken edge, exits[1] = fall-through edge.
  ExitSlot exits[2];
  /// Fused trace stream, built lazily on the first gated execution.
  bool traced_ready = false;
  std::vector<TraceStep> traced;
};

/// Static entry points of the threaded tier (friend of Cpu).
struct ThreadedRun {
  /// Lowers `tb` into a micro-op stream and attaches it as tb.threaded.
  static void emit(Cpu& cpu, TranslationBlock& tb);

  /// Runs the threaded inner loop starting at `entry`, following direct
  /// links across blocks, for at most `budget` instructions. On return the
  /// PC is architecturally correct. Returns instructions retired; 0 means
  /// the budget could not cover even the entry block (caller falls back to
  /// Cpu::exec_block).
  static u64 exec(Cpu& cpu, ThreadedBlock& entry, u64 budget);

 private:
  // Implementation details (threaded.cc); members so Cpu's friendship on
  // ThreadedRun covers the inner loop's access to the engine state.
  static u64 exec_impl(Cpu* cpu, ThreadedBlock* entry, u64 budget,
                       void* const** table_out);
  /// Resolves the per-instruction TraceStep table for `blk` (scope + Table V
  /// classification via the installed TraceEmitter).
  static void build_traced(Cpu& cpu, ThreadedBlock& blk);
  /// Runs one block with per-instruction trace dispatch (gate fired): the
  /// fused-or-generic TraceStep stream followed by the instruction,
  /// mirroring Cpu::exec_block bit for bit.
  static u64 exec_traced_impl(Cpu& cpu, ThreadedBlock& blk, u64 budget);
};

}  // namespace ndroid::arm
