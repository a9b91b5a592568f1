// Threaded-code tier implementation: micro-op emission (lowering a
// TranslationBlock's decoded instructions into pre-resolved Uop records)
// and the computed-goto inner loop that executes the streams, follows
// direct block links, and escapes to the block-dispatch loop
// (Cpu::run_blocks) only on the slow events listed in threaded.h.
//
// Semantics contract: every micro-op body below is execute() specialised to
// one dense shape (dense_shape() below) minus the per-instruction PC
// increment — the clean stream keeps the PC *lazy* and materialises it only
// where it is observable (generic execute() micro-ops, SVC, and every loop
// exit). Flag arithmetic comes from the shared set_sub_flags/set_add_flags/
// dp_compute kernels, so the golden logs stay bit-for-bit across tiers.
#include "arm/threaded.h"

#include <bit>
#include <cstring>

#include "arm/cpu.h"
#include "arm/uop_kernels.h"

namespace ndroid::arm {

// The dispatch loop and the label table live in one function (GNU
// labels-as-values). Called with table_out != nullptr it only exports the
// label table for the emitter and executes nothing. The micro-op kind list
// (NDROID_UOP_LIST) and the TLB-probing ld_*/st_* kernels live in
// threaded.h / uop_kernels.h.
u64 ThreadedRun::exec_impl(Cpu* cpu_p, ThreadedBlock* entry, u64 budget,
                           void* const** table_out) {
  static void* const labels[] = {
#define UOP_LABEL(name) &&L_##name,
      NDROID_UOP_LIST(UOP_LABEL)
#undef UOP_LABEL
  };
  static_assert(sizeof(labels) / sizeof(labels[0]) ==
                static_cast<std::size_t>(UK::kCount));
  if (table_out != nullptr) {
    *table_out = labels;
    return 0;
  }

  Cpu& cpu = *cpu_p;
  CPUState& s = cpu.state_;
  mem::AddressSpace& m = cpu.memory_;
  u32* const r = s.regs.data();

  ThreadedBlock* blk = entry;
  const Uop* op = entry->ops.data();
  u64 done = 0;
  u64 flushed = 0;  // portion of `done` already added to cpu.retired_
  u64 block_base = 0;
  bool gate_skip = false;
  GuestAddr edge_from = 0;
  GuestAddr edge_to = 0;
  ExitSlot* slot = nullptr;
  // Counters kept in locals and added to the Cpu's once, on the way out
  // (throws included): direct links (each also a front-cache hit), resumes
  // through the front cache after a helper, SVC or hook ran, and fast-path
  // blocks and instructions.
  u64 links = 0;
  u64 resumes = 0;
  u64 fp_blocks = 0;
  u64 fp_insns = 0;

// Close the current block's fast-path accounting; every departure from a
// block (exit, link, SVC) runs this exactly once.
#define CLOSE_BLOCK()                                    \
  do {                                                   \
    if (gate_skip) {                                     \
      fp_insns += done - block_base;                     \
      gate_skip = false;                                 \
    }                                                    \
  } while (0)

#define FLUSH_RETIRED()                \
  do {                                 \
    cpu.retired_ += done - flushed;    \
    flushed = done;                    \
  } while (0)

#define FLUSH_COUNTERS()                                  \
  do {                                                    \
    cpu.threaded_links_ += links;                         \
    cpu.tb_cache_.count_front_hits(links + resumes);      \
    cpu.fastpath_blocks_ += fp_blocks;                    \
    cpu.fastpath_insns_ += fp_insns;                      \
  } while (0)

#define NEXT          \
  do {                \
    ++done;           \
    ++op;             \
    goto* op->label;  \
  } while (0)

// Dense load micro-op triple (offset / pre-index / post-index). Writeback
// lands before the rd write so rn==rd takes the same net effect as
// execute_body (rd wins).
#define LD_TRIPLE(name, LDFN)                       \
  L_##name##_off : {                                \
    const GuestAddr addr = r[op->b] + op->imm;      \
    r[op->a] = LDFN(m, addr);                       \
    NEXT;                                           \
  }                                                 \
  L_##name##_pre : {                                \
    const GuestAddr addr = r[op->b] + op->imm;      \
    const u32 v = LDFN(m, addr);                    \
    r[op->b] = addr;                                \
    r[op->a] = v;                                   \
    NEXT;                                           \
  }                                                 \
  L_##name##_post : {                               \
    const GuestAddr addr = r[op->b];                \
    const u32 v = LDFN(m, addr);                    \
    r[op->b] = addr + op->imm;                      \
    r[op->a] = v;                                   \
    NEXT;                                           \
  }

// Dense store micro-op triple. The value is read before the writeback
// (execute_body stores the pre-writeback rd), and a slow-path store re-checks
// tb.dead: the block may have just overwritten its own code, in which case
// the remaining stream is stale and we leave with the PC at the next
// instruction (op->x), insn fully retired.
#define ST_BODY(ADDR_SETUP, STFN, WRITEBACK)             \
  {                                                      \
    ADDR_SETUP;                                          \
    const u32 v = r[op->a];                              \
    const bool hit = STFN(m, addr, v);                   \
    WRITEBACK;                                           \
    ++done;                                              \
    if (!hit && blk->tb->dead) [[unlikely]] {            \
      s.set_pc(op->x);                                   \
      goto block_exit;                                   \
    }                                                    \
    ++op;                                                \
    goto* op->label;                                     \
  }
#define ST_TRIPLE(name, STFN)                                              \
  L_##name##_off : ST_BODY(const GuestAddr addr = r[op->b] + op->imm,      \
                           STFN, (void)0)                                  \
  L_##name##_pre : ST_BODY(const GuestAddr addr = r[op->b] + op->imm,      \
                           STFN, r[op->b] = addr)                          \
  L_##name##_post : ST_BODY(const GuestAddr addr = r[op->b], STFN,         \
                            r[op->b] = addr + op->imm)

#define DP_PAIR(name, OPK)                                 \
  L_##name##_i : {                                         \
    r[op->a] = dp_compute<OPK>(r[op->b], op->imm, s);      \
    NEXT;                                                  \
  }                                                        \
  L_##name##_r : {                                         \
    r[op->a] = dp_compute<OPK>(r[op->b], r[op->c], s);     \
    NEXT;                                                  \
  }

  try {
    goto* op->label;

  L_enter: {
    auto* b = static_cast<ThreadedBlock*>(
        const_cast<void*>(op->p));
    TranslationBlock& tb = *b->tb;
    const std::size_t n = b->n_insns;
    if (budget - done < n) [[unlikely]] {
      // Budget can't cover whole-block replay; surface to the dispatch
      // loop, which falls back to Cpu::exec_block.
      s.thumb = tb.thumb;
      s.set_pc(tb.pc);
      goto out_done;
    }
    // Hook resolution, once per block execution: the epoch-memoised gate
    // may declare the block hook-free (taint-liveness fast path) — that
    // memo, not re-emission, is what keeps the clean stream valid across
    // taint-liveness flips.
    if (cpu.block_hooks_fire(tb)) [[unlikely]] {
      // Analysis event: run this block through the fused trace stream,
      // then resume through the front cache (hooks may have moved
      // anything, including the hook list).
      s.thumb = tb.thumb;
      s.set_pc(tb.pc);
      const u64 t = exec_traced_impl(cpu, *b, budget - done);
      done += t;
      flushed += t;  // exec_traced_impl retires directly
      goto resume;
    }
    gate_skip = !cpu.insn_hooks_.empty();  // hooks live, but gated off
    if (gate_skip) ++fp_blocks;
    blk = b;
    block_base = done;
    ++op;
    goto* op->label;
  }

    DP_PAIR(and, Op::kAnd)
    DP_PAIR(eor, Op::kEor)
    DP_PAIR(sub, Op::kSub)
    DP_PAIR(rsb, Op::kRsb)
    DP_PAIR(add, Op::kAdd)
    DP_PAIR(adc, Op::kAdc)
    DP_PAIR(sbc, Op::kSbc)
    DP_PAIR(rsc, Op::kRsc)
    DP_PAIR(orr, Op::kOrr)
    DP_PAIR(mov, Op::kMov)
    DP_PAIR(bic, Op::kBic)
    DP_PAIR(mvn, Op::kMvn)

  L_cmp_i0: {
    const u32 a = r[op->b];
    s.n = (a >> 31) != 0;
    s.z = a == 0;
    s.c = true;
    s.v = false;
    NEXT;
  }
  L_cmp_i: {
    set_sub_flags(s, r[op->b], op->imm);
    NEXT;
  }
  L_cmp_r: {
    set_sub_flags(s, r[op->b], r[op->c]);
    NEXT;
  }
  L_cmn_i: {
    set_add_flags(s, r[op->b], op->imm);
    NEXT;
  }
  L_cmn_r: {
    set_add_flags(s, r[op->b], r[op->c]);
    NEXT;
  }
  L_subs_i: {
    const u32 a = r[op->b];
    set_sub_flags(s, a, op->imm);
    r[op->a] = a - op->imm;
    NEXT;
  }
  L_subs_r: {
    const u32 a = r[op->b];
    const u32 b2 = r[op->c];
    set_sub_flags(s, a, b2);
    r[op->a] = a - b2;
    NEXT;
  }
  L_adds_i: {
    const u32 a = r[op->b];
    set_add_flags(s, a, op->imm);
    r[op->a] = a + op->imm;
    NEXT;
  }
  L_adds_r: {
    const u32 a = r[op->b];
    const u32 b2 = r[op->c];
    set_add_flags(s, a, b2);
    r[op->a] = a + b2;
    NEXT;
  }
  L_movw: {
    r[op->a] = op->imm;
    NEXT;
  }
  L_movt: {
    r[op->a] = (r[op->a] & 0xFFFFu) | (op->imm << 16);
    NEXT;
  }
  L_mul: {
    r[op->a] = r[op->b] * r[op->c];
    NEXT;
  }
  L_sxtb: {
    r[op->a] = static_cast<u32>(static_cast<i32>(static_cast<i8>(r[op->b])));
    NEXT;
  }
  L_sxth: {
    r[op->a] = static_cast<u32>(static_cast<i32>(static_cast<i16>(r[op->b])));
    NEXT;
  }
  L_uxtb: {
    r[op->a] = r[op->b] & 0xFFu;
    NEXT;
  }
  L_uxth: {
    r[op->a] = r[op->b] & 0xFFFFu;
    NEXT;
  }
  // Shift-by-immediate MOVs (no flags, amount 1..31 — so the 0-means-32
  // LSR/ASR encodings and ROR#0==RRX never land here).
  L_lsl_i: {
    r[op->a] = r[op->c] << op->imm;
    NEXT;
  }
  L_lsr_i: {
    r[op->a] = r[op->c] >> op->imm;
    NEXT;
  }
  L_asr_i: {
    r[op->a] = static_cast<u32>(static_cast<i32>(r[op->c]) >> op->imm);
    NEXT;
  }
  L_ror_i: {
    const u32 v = r[op->c];
    r[op->a] = (v >> op->imm) | (v << (32u - op->imm));
    NEXT;
  }
  // Long multiplies without flags: a = RdLo, b = RdHi, product of c (Rs)
  // and d (Rm), write order lo-then-hi matching execute().
  L_umull: {
    const u64 p = static_cast<u64>(r[op->c]) * r[op->d];
    r[op->a] = static_cast<u32>(p);
    r[op->b] = static_cast<u32>(p >> 32);
    NEXT;
  }
  L_smull: {
    const u64 p = static_cast<u64>(
        static_cast<i64>(static_cast<i32>(r[op->c])) *
        static_cast<i32>(r[op->d]));
    r[op->a] = static_cast<u32>(p);
    r[op->b] = static_cast<u32>(p >> 32);
    NEXT;
  }

    LD_TRIPLE(ldr, ld_u32)
    LD_TRIPLE(ldrb, ld_u8)
    LD_TRIPLE(ldrh, ld_u16)
    LD_TRIPLE(ldrsb, ld_s8)
    LD_TRIPLE(ldrsh, ld_s16)
    ST_TRIPLE(str, st_u32)
    ST_TRIPLE(strb, st_u8)
    ST_TRIPLE(strh, st_u16)

  // Superword-fused micro-ops: two guest instructions (or one LDM/STM worth
  // of transfers) retire per dispatch, cutting the dominant remaining cost
  // of this tier — dispatch density — without host codegen.
  L_movw_movt: {
    // movw rd,#lo16 ; movt rd,#hi16 — a full 32-bit constant load.
    r[op->a] = op->imm;
    done += 2;
    ++op;
    goto* op->label;
  }
  L_ldr_addi: {
    // ldr rd,[rn,#imm] ; add rm,rm,#step (flagless). Sequential effect:
    // the load lands first, then the increment — correct for every
    // aliasing of rd/rn/rm.
    const GuestAddr addr = r[op->b] + op->imm;
    r[op->a] = ld_u32(m, addr);
    r[op->d] += op->x;
    done += 2;
    ++op;
    goto* op->label;
  }
  L_stm: {
    // Dense STM (push prologue). Same partial-exit protocol as ST_BODY:
    // all transfers and the writeback complete, the insn fully retires,
    // then a TLB-missing store re-checks the self-modification dead mark
    // (resume PC pre-resolved in op->x).
    const auto* ti = static_cast<const TbInsn*>(op->p);
    const bool all_hit = stm_dense(s, m, ti->insn);
    ++done;
    if (!all_hit && blk->tb->dead) [[unlikely]] {
      s.set_pc(op->x);
      goto block_exit;
    }
    ++op;
    goto* op->label;
  }
  L_ldm: {
    // Dense LDM (pop without PC).
    const auto* ti = static_cast<const TbInsn*>(op->p);
    ldm_dense(s, m, ti->insn);
    NEXT;
  }

  L_store_hook: {
    // Cpu::set_store_hook for the store-class instruction the next micro-op
    // executes (emitted only where the hook's pc range covers it): the hook
    // sees the pre-state, and this op retires nothing.
    const auto* ti = static_cast<const TbInsn*>(op->p);
    if (cpu.store_hook_.covers(ti->pc)) {
      s.set_pc(ti->pc);
      cpu.store_hook_.fn(cpu.store_hook_.ctx, cpu, ti->insn, ti->pc);
    }
    ++op;
    goto* op->label;
  }

  L_exec: {
    // General-path instruction (shifted operands, conditional execution,
    // LDM/STM, IT blocks, ...): materialise the PC it expects and defer to
    // the interpretive executor. Never branches (branching instructions
    // become terminals), so the stream continues sequentially.
    const auto* ti = static_cast<const TbInsn*>(op->p);
    s.set_pc(op->imm);
    execute(ti->insn, s, m);
    NEXT;
  }
  L_exec_dead: {
    // Same, for store-class instructions: the block may have overwritten
    // its own upcoming code, so check the dead mark before continuing.
    const auto* ti = static_cast<const TbInsn*>(op->p);
    s.set_pc(op->imm);
    execute(ti->insn, s, m);
    ++done;
    if (blk->tb->dead) [[unlikely]] goto block_exit;  // PC already at next
    ++op;
    goto* op->label;
  }

  // Fused compare-and-conditional-branch terminals. One dispatch sets the
  // flags architecturally (later blocks and surfaced exits may read them) and
  // takes the branch; the uop retires two instructions. `p` is the branch
  // TbInsn for the imm0/reg shapes; the immediate shapes point at the ALU
  // TbInsn (its insn.imm is the compare operand) and derive the branch pc
  // from it.
  L_cmp0_b: {
    const u32 v = r[op->b];
    s.n = (v >> 31) != 0;
    s.z = v == 0;
    s.c = true;
    s.v = false;
    done += 2;
    if (condition_passed(static_cast<Cond>(op->a), s)) {
      edge_from = static_cast<const TbInsn*>(op->p)->pc;
      edge_to = op->imm;
      slot = &blk->exits[0];
      goto link_edge;
    }
    edge_to = op->x;
    slot = &blk->exits[1];
    goto link_fall;
  }
  L_cmp_i_b: {
    const auto* ti = static_cast<const TbInsn*>(op->p);
    set_sub_flags(s, r[op->b], ti->insn.imm);
    done += 2;
    if (condition_passed(static_cast<Cond>(op->a), s)) {
      edge_from = ti->pc + ti->insn.length;
      edge_to = op->imm;
      slot = &blk->exits[0];
      goto link_edge;
    }
    edge_to = op->x;
    slot = &blk->exits[1];
    goto link_fall;
  }
  L_cmp_r_b: {
    set_sub_flags(s, r[op->b], r[op->c]);
    done += 2;
    if (condition_passed(static_cast<Cond>(op->a), s)) {
      edge_from = static_cast<const TbInsn*>(op->p)->pc;
      edge_to = op->imm;
      slot = &blk->exits[0];
      goto link_edge;
    }
    edge_to = op->x;
    slot = &blk->exits[1];
    goto link_fall;
  }
  L_subs_i_b: {
    const auto* ti = static_cast<const TbInsn*>(op->p);
    const u32 lhs = r[op->b];
    const u32 rhs = ti->insn.imm;
    set_sub_flags(s, lhs, rhs);
    r[op->a] = lhs - rhs;
    done += 2;
    if (condition_passed(static_cast<Cond>(op->d), s)) {
      edge_from = ti->pc + ti->insn.length;
      edge_to = op->imm;
      slot = &blk->exits[0];
      goto link_edge;
    }
    edge_to = op->x;
    slot = &blk->exits[1];
    goto link_fall;
  }

  L_b_al: {
    ++done;
    edge_from = static_cast<const TbInsn*>(op->p)->pc;
    edge_to = op->imm;
    slot = &blk->exits[0];
    goto link_edge;
  }
  L_bl_al: {
    r[kRegLR] = s.thumb ? (op->x | 1u) : op->x;
    ++done;
    edge_from = static_cast<const TbInsn*>(op->p)->pc;
    edge_to = op->imm;
    slot = &blk->exits[0];
    goto link_edge;
  }
  L_b_cond: {
    ++done;
    edge_from = static_cast<const TbInsn*>(op->p)->pc;
    if (condition_passed(static_cast<Cond>(op->a), s)) {
      edge_to = op->imm;
      slot = &blk->exits[0];
      goto link_edge;
    }
    edge_to = op->x;
    slot = &blk->exits[1];
    goto link_fall;
  }
  L_bx_term: {
    // BX/BLX(reg): interworking register branch. A target equal to the
    // fall-through address is not a taken branch (mirrors exec_block's
    // pc != next test).
    const u32 target = r[op->a];
    if (op->b != 0) r[kRegLR] = s.thumb ? (op->x | 1u) : op->x;
    ++done;
    edge_from = static_cast<const TbInsn*>(op->p)->pc;
    edge_to = target & ~1u;
    s.thumb = (target & 1u) != 0;
    if (edge_to != op->x) {
      slot = &blk->exits[0];
      goto link_edge;
    }
    slot = &blk->exits[1];
    goto link_fall;
  }
  L_svc_term: {
    const auto* ti = static_cast<const TbInsn*>(op->p);
    s.set_pc(op->imm);
    if (ti->insn.op == Op::kSvc &&
        condition_passed(effective_cond(ti->insn, s), s)) {
      if (!cpu.svc_handler_) throw GuestFault("SVC with no kernel attached");
      if (s.thumb && s.itstate != 0) advance_itstate(s);
      s.set_pc(op->x);
      ++done;
      CLOSE_BLOCK();
      FLUSH_RETIRED();  // the handler may observe/reenter the Cpu
      cpu.svc_handler_(cpu, ti->insn.imm);
      goto resume;  // exit() lands on host-return, which surfaces there
    }
    // Condition failed: execute() just advances PC (and ITSTATE).
    execute(ti->insn, s, m);
    ++done;
    edge_from = ti->pc;
    edge_to = s.pc();
    slot = &blk->exits[1];
    goto link_fall;
  }
  L_exec_term: {
    // General-path terminal: run it interpretively, then classify the
    // outcome as taken branch or fall-through by where the PC landed.
    const auto* ti = static_cast<const TbInsn*>(op->p);
    s.set_pc(op->imm);
    execute(ti->insn, s, m);
    ++done;
    edge_from = ti->pc;
    edge_to = s.pc();
    if (edge_to != op->x) {
      slot = &blk->exits[0];
      goto link_edge;
    }
    slot = &blk->exits[1];
    goto link_fall;
  }
  L_end: {
    // Straight-line continuation: the block filled up (kMaxBlockInsns or a
    // low helper ahead) without a terminating instruction.
    edge_to = op->imm;
    slot = &blk->exits[1];
    goto link_fall;
  }

  link_edge: {
    // Taken branch: when it is not provably quiet, the branch hooks fire
    // and execution resumes through the front cache (hooks may move
    // anything).
    if (!cpu.is_branch_quiet(*blk->tb, edge_from, edge_to)) {
      s.set_pc(edge_to);
      CLOSE_BLOCK();
      FLUSH_RETIRED();
      cpu.fire_branch_hooks(edge_from, edge_to);
      goto resume;
    }
    // Quiet taken branch: falls through into the shared link tail below.
  }
  link_fall: {
    // Quiet edge: stay inside the threaded loop when the successor can be
    // entered directly. ITSTATE, low-helper and helper-window landings
    // (host return lives above the window base) go through resume.
    if (s.itstate != 0 || edge_to >= kHelperWindowBase ||
        cpu.is_low_helper(edge_to)) [[unlikely]] {
      s.set_pc(edge_to);
      CLOSE_BLOCK();
      goto resume;
    }
    const u64 key = TbCache::key(edge_to, s.thumb);
    // Patched direct link, version-fenced against every cache kill/flush.
    if (slot->version == cpu.tb_cache_.version() && slot->key == key)
        [[likely]] {
      CLOSE_BLOCK();
      ++links;
      op = slot->succ->ops.data();
      goto* op->label;  // successor's entry op
    }
    // Link miss: resolve through the front cache and patch the slot so the
    // next traversal of this edge stays inside the loop.
    {
      Cpu::TbFrontEntry& fe = cpu.tb_front_[static_cast<u32>(
          (key * 0x9E3779B97F4A7C15ull) >> (64 - Cpu::kTbFrontBits))];
      if (fe.key == key && fe.version == cpu.tb_cache_.version() &&
          fe.tb->threaded != nullptr) {
        *slot = {cpu.tb_cache_.version(), key, fe.tb->threaded.get()};
        ++cpu.threaded_patches_;
        CLOSE_BLOCK();
        ++links;
        op = slot->succ->ops.data();
        goto* op->label;
      }
    }
    // Untranslated (or un-emitted) successor: surface to the dispatch loop.
    s.set_pc(edge_to);
    CLOSE_BLOCK();
    goto out_done;
  }

  resume: {
    // The PC is architectural and no block is open, but code outside the
    // stream may just have run (a helper, an SVC handler, hooks) and changed
    // anything, blocks and links included: continue only through the
    // version-fenced front cache, never through `blk` or a slot. ITSTATE,
    // low helpers, host-return, a budget that cannot cover one more step
    // and a front-cache miss surface to the dispatch loop (Cpu::run_blocks),
    // which takes them as before.
    const GuestAddr pc = s.pc();
    if (s.itstate != 0 || cpu.is_low_helper(pc)) goto out_done;
    if (pc >= kHelperWindowBase) {
      // Window helper: Cpu::run_helper retires it, runs it and returns to
      // LR (firing the return edge's hooks) unless it redirected the PC;
      // either way the new PC goes round again.
      if (pc == kHostReturnAddr || done >= budget) goto out_done;
      FLUSH_RETIRED();
      if (!cpu.run_helper(pc)) goto out_done;
      ++done;
      ++flushed;  // run_helper retired it
      goto resume;
    }
    const u64 key = TbCache::key(pc, s.thumb);
    const Cpu::TbFrontEntry& fe = cpu.tb_front_[static_cast<u32>(
        (key * 0x9E3779B97F4A7C15ull) >> (64 - Cpu::kTbFrontBits))];
    if (fe.key == key && fe.version == cpu.tb_cache_.version() &&
        fe.tb->threaded != nullptr) {
      ++resumes;
      op = fe.tb->threaded->ops.data();
      goto* op->label;  // the block's entry op
    }
    goto out_done;
  }

  block_exit: {
    // Partial exit with the PC already architecturally correct
    // (self-modification dead mark).
    CLOSE_BLOCK();
    goto out_done;
  }

  out_done:
    FLUSH_RETIRED();
    FLUSH_COUNTERS();
    return done;
  } catch (...) {
    cpu.retired_ += done - flushed;
    FLUSH_COUNTERS();
    throw;
  }

#undef CLOSE_BLOCK
#undef FLUSH_RETIRED
#undef FLUSH_COUNTERS
#undef NEXT
#undef LD_TRIPLE
#undef ST_BODY
#undef ST_TRIPLE
#undef DP_PAIR
}

// Builds the fused trace stream (lazily, on the block's first gated
// execution under the current cache generation). Fused thunks are only
// sound while the single registered instruction hook is the one the
// emitter models — Cpu flushes all blocks (and thus these streams) on any
// hook-topology change while an emitter is installed.
void ThreadedRun::build_traced(Cpu& cpu, ThreadedBlock& blk) {
  TranslationBlock& tb = *blk.tb;
  blk.traced.clear();
  blk.traced.reserve(tb.insns.size());
  const bool fusable =
      cpu.trace_emitter_ != nullptr && cpu.insn_hooks_.size() == 1;
  for (const TbInsn& ti : tb.insns) {
    TraceStep st;
    if (fusable) {
      if (std::optional<TraceOp> op = cpu.trace_emitter_(tb, ti)) {
        st.op = std::move(*op);
        st.generic = false;
      }
    }
    blk.traced.push_back(std::move(st));
  }
  blk.traced_ready = true;
}

// Gated execution of one block: the pre-resolved trace step, then the
// instruction — Cpu::exec_block with the hook dispatch pre-resolved (same
// budget, SVC, branch-quiet, and dead-mark behaviour, same counters).
u64 ThreadedRun::exec_traced_impl(Cpu& cpu, ThreadedBlock& blk, u64 budget) {
  if (!blk.traced_ready) build_traced(cpu, blk);
  TranslationBlock& tb = *blk.tb;
  CPUState& s = cpu.state_;
  mem::AddressSpace& m = cpu.memory_;
  const std::size_t n = tb.insns.size();
  u64 done = 0;
  for (std::size_t i = 0; i < n && done < budget; ++i) {
    const TbInsn& ti = tb.insns[i];
    const TraceStep& st = blk.traced[i];
    if (st.generic) {
      for (auto& h : cpu.insn_hooks_) h.fn(cpu, ti.insn, ti.pc);
    } else if (st.op.fn != nullptr) {
      st.op.fn(st.op.ctx, cpu, ti.insn, ti.pc);
    }
    cpu.fire_store_hook(ti.taint_class, ti.insn, ti.pc);
    if (ti.insn.op == Op::kSvc &&
        condition_passed(effective_cond(ti.insn, s), s)) {
      if (!cpu.svc_handler_) throw GuestFault("SVC with no kernel attached");
      if (s.thumb && s.itstate != 0) advance_itstate(s);
      s.set_pc(ti.pc + ti.insn.length);
      ++cpu.retired_;
      ++done;
      cpu.svc_handler_(cpu, ti.insn.imm);
      break;  // SVC always terminates a block
    }
    execute(ti.insn, s, m);
    ++cpu.retired_;
    ++done;
    if (s.pc() != ti.pc + ti.insn.length) {
      if (!cpu.is_branch_quiet(tb, ti.pc, s.pc())) {
        cpu.fire_branch_hooks(ti.pc, s.pc());
      }
      break;
    }
    if (tb.dead) break;
  }
  return done;
}

// --- Emission ---------------------------------------------------------

namespace {

Uop make_generic(const TbInsn& ti, void* const* L) {
  Uop u;
  u.p = &ti;
  u.imm = ti.pc;
  u.x = ti.pc + ti.insn.length;
  const bool store_class = ti.taint_class == TaintClass::kStore ||
                           ti.taint_class == TaintClass::kStm;
  u.label = L[static_cast<u32>(store_class ? UK::k_exec_dead : UK::k_exec)];
  return u;
}

// True when `in` has a dense micro-op or dense branch terminal: outside any
// IT block, unconditional (a direct branch may be conditional unless it
// links), no PC operands, a plain register or immediate operand 2, flag
// setting only in the ADD/SUB/CMP/CMN arithmetic shapes (logical flag
// setters need the shifter carry-out), and immediate-offset memory forms.
bool dense_shape(const Insn& in, bool in_it) {
  if (in_it) return false;
  if (in.op == Op::kB || in.op == Op::kBl) {
    return !in.link || in.cond == Cond::kAL;
  }
  if (in.cond != Cond::kAL) return false;
  switch (in.op) {
    case Op::kAnd:
    case Op::kEor:
    case Op::kSub:
    case Op::kRsb:
    case Op::kAdd:
    case Op::kAdc:
    case Op::kSbc:
    case Op::kRsc:
    case Op::kCmp:
    case Op::kCmn:
    case Op::kOrr:
    case Op::kMov:
    case Op::kBic:
    case Op::kMvn:
      if (in.rn == kRegPC) return false;
      if (!in.imm_operand &&
          (in.rm == kRegPC || in.shift_by_reg ||
           in.shift != ShiftType::kLSL || in.shift_amount != 0)) {
        return false;
      }
      if (in.op == Op::kCmp || in.op == Op::kCmn) return in.set_flags;
      if (in.rd == kRegPC) return false;
      return !in.set_flags || in.op == Op::kSub || in.op == Op::kAdd;
    case Op::kMovw:
    case Op::kMovt:
      return in.rd != kRegPC;
    case Op::kMul:
      return !in.set_flags && in.rd != kRegPC;
    case Op::kSxtb:
    case Op::kSxth:
    case Op::kUxtb:
    case Op::kUxth:
      return in.rd != kRegPC && in.rm != kRegPC;
    case Op::kLdr:
    case Op::kLdrb:
    case Op::kLdrh:
    case Op::kLdrsb:
    case Op::kLdrsh:
    case Op::kStr:
    case Op::kStrb:
    case Op::kStrh:
      // Offset, pre-index writeback, or post-index (which always writes
      // back) forms with an immediate offset.
      return !in.reg_offset && in.rn != kRegPC && in.rd != kRegPC &&
             (in.pre_index || in.writeback);
    default:
      return false;
  }
}

// Maps a dense-shaped instruction onto its dense micro-op, or falls back to
// the generic one. Two shapes outside dense_shape that dominate real hot
// loops — shift-by-immediate MOVs and long multiplies — also get dense
// micro-ops here, as do LDM/STM without PC; their guards spell out the
// same preconditions (unconditional, no PC operands, no flags, outside any
// IT block).
Uop make_body(const TbInsn& ti, bool in_it, void* const* L) {
  const Insn& in = ti.insn;
  Uop u;
  u.p = &ti;
  auto lab = [&](UK k) { return L[static_cast<u32>(k)]; };
  if (!in_it && in.cond == Cond::kAL) {
    if (in.op == Op::kMov && !in.imm_operand && !in.set_flags &&
        !in.shift_by_reg && in.shift_amount >= 1 && in.shift_amount <= 31 &&
        in.rd != kRegPC && in.rm != kRegPC) {
      u.a = in.rd;
      u.c = in.rm;
      u.imm = in.shift_amount;
      switch (in.shift) {
        case ShiftType::kLSL: u.label = lab(UK::k_lsl_i); return u;
        case ShiftType::kLSR: u.label = lab(UK::k_lsr_i); return u;
        case ShiftType::kASR: u.label = lab(UK::k_asr_i); return u;
        case ShiftType::kROR: u.label = lab(UK::k_ror_i); return u;
        default: break;  // kRRX: general path
      }
    }
    if ((in.op == Op::kUmull || in.op == Op::kSmull) && !in.set_flags &&
        in.rd != kRegPC && in.rn != kRegPC && in.rm != kRegPC &&
        in.rs != kRegPC) {
      u.a = in.rd;  // RdLo
      u.b = in.rn;  // RdHi
      u.c = in.rs;
      u.d = in.rm;
      u.label = lab(in.op == Op::kUmull ? UK::k_umull : UK::k_smull);
      return u;
    }
    // Dense block transfers (push/pop without PC): one dispatch per LDM/STM
    // instead of the interpretive k_exec(_dead) round trip. Excluding the
    // base register from the list sidesteps every base-restore subtlety.
    if ((in.op == Op::kStm || in.op == Op::kLdm) && in.rn != kRegPC &&
        in.reglist != 0 && (in.reglist & (1u << kRegPC)) == 0 &&
        (in.reglist & (1u << in.rn)) == 0) {
      u.x = ti.pc + in.length;  // stm partial-exit resume point
      u.label = lab(in.op == Op::kStm ? UK::k_stm : UK::k_ldm);
      return u;
    }
  }
  if (!dense_shape(in, in_it)) return make_generic(ti, L);
  switch (in.op) {
    case Op::kAnd:
    case Op::kEor:
    case Op::kSub:
    case Op::kRsb:
    case Op::kAdd:
    case Op::kAdc:
    case Op::kSbc:
    case Op::kRsc:
    case Op::kCmp:
    case Op::kCmn:
    case Op::kOrr:
    case Op::kMov:
    case Op::kBic:
    case Op::kMvn: {
      u.a = in.rd;
      u.b = in.rn;
      if (in.imm_operand) {
        u.imm = in.imm;
      } else {
        u.c = in.rm;
      }
      if (in.set_flags) {
        switch (in.op) {
          case Op::kCmp:
            u.label = in.imm_operand
                          ? (in.imm == 0 ? lab(UK::k_cmp_i0) : lab(UK::k_cmp_i))
                          : lab(UK::k_cmp_r);
            return u;
          case Op::kCmn:
            u.label = in.imm_operand ? lab(UK::k_cmn_i) : lab(UK::k_cmn_r);
            return u;
          case Op::kSub:
            u.label = in.imm_operand ? lab(UK::k_subs_i) : lab(UK::k_subs_r);
            return u;
          case Op::kAdd:
            u.label = in.imm_operand ? lab(UK::k_adds_i) : lab(UK::k_adds_r);
            return u;
          default:
            return make_generic(ti, L);  // unreachable given dense_shape
        }
      }
      static constexpr struct {
        Op op;
        UK imm_kind;
        UK reg_kind;
      } kDp[] = {
          {Op::kAnd, UK::k_and_i, UK::k_and_r},
          {Op::kEor, UK::k_eor_i, UK::k_eor_r},
          {Op::kSub, UK::k_sub_i, UK::k_sub_r},
          {Op::kRsb, UK::k_rsb_i, UK::k_rsb_r},
          {Op::kAdd, UK::k_add_i, UK::k_add_r},
          {Op::kAdc, UK::k_adc_i, UK::k_adc_r},
          {Op::kSbc, UK::k_sbc_i, UK::k_sbc_r},
          {Op::kRsc, UK::k_rsc_i, UK::k_rsc_r},
          {Op::kOrr, UK::k_orr_i, UK::k_orr_r},
          {Op::kMov, UK::k_mov_i, UK::k_mov_r},
          {Op::kBic, UK::k_bic_i, UK::k_bic_r},
          {Op::kMvn, UK::k_mvn_i, UK::k_mvn_r},
      };
      for (const auto& e : kDp) {
        if (e.op == in.op) {
          u.label = lab(in.imm_operand ? e.imm_kind : e.reg_kind);
          return u;
        }
      }
      return make_generic(ti, L);
    }
    case Op::kMovw:
      u.a = in.rd;
      u.imm = in.imm;
      u.label = lab(UK::k_movw);
      return u;
    case Op::kMovt:
      u.a = in.rd;
      u.imm = in.imm;
      u.label = lab(UK::k_movt);
      return u;
    case Op::kMul:
      u.a = in.rd;
      u.b = in.rn;
      u.c = in.rm;
      u.label = lab(UK::k_mul);
      return u;
    case Op::kSxtb:
    case Op::kSxth:
    case Op::kUxtb:
    case Op::kUxth:
      u.a = in.rd;
      u.b = in.rm;
      u.label = lab(in.op == Op::kSxtb   ? UK::k_sxtb
                    : in.op == Op::kSxth ? UK::k_sxth
                    : in.op == Op::kUxtb ? UK::k_uxtb
                                         : UK::k_uxth);
      return u;
    case Op::kLdr:
    case Op::kLdrb:
    case Op::kLdrh:
    case Op::kLdrsb:
    case Op::kLdrsh:
    case Op::kStr:
    case Op::kStrb:
    case Op::kStrh: {
      u.a = in.rd;
      u.b = in.rn;
      // Offset direction folds into the immediate (two's-complement add).
      u.imm = in.add_offset ? in.imm : 0u - in.imm;
      u.x = ti.pc + in.length;  // slow-store partial-exit resume point
      // Variant index: 0 = offset, 1 = pre-index wb, 2 = post-index.
      const u32 variant = in.pre_index ? (in.writeback ? 1u : 0u) : 2u;
      static constexpr struct {
        Op op;
        UK base;
      } kMem[] = {
          {Op::kLdr, UK::k_ldr_off},     {Op::kLdrb, UK::k_ldrb_off},
          {Op::kLdrh, UK::k_ldrh_off},   {Op::kLdrsb, UK::k_ldrsb_off},
          {Op::kLdrsh, UK::k_ldrsh_off}, {Op::kStr, UK::k_str_off},
          {Op::kStrb, UK::k_strb_off},   {Op::kStrh, UK::k_strh_off},
      };
      for (const auto& e : kMem) {
        if (e.op == in.op) {
          u.label = L[static_cast<u32>(e.base) + variant];
          return u;
        }
      }
      return make_generic(ti, L);
    }
    default:
      return make_generic(ti, L);
  }
}

// Lowers the block-terminating instruction. `in_it` reflects whether the
// instruction sits inside a Thumb IT block, which forces the general path
// for IT'd branches.
Uop make_terminal(const TranslationBlock& tb, const TbInsn& ti, bool in_it,
                  void* const* L) {
  const Insn& in = ti.insn;
  const GuestAddr next = ti.pc + in.length;
  Uop u;
  u.p = &ti;
  auto lab = [&](UK k) { return L[static_cast<u32>(k)]; };
  if (in.op == Op::kSvc) {
    u.imm = ti.pc;
    u.x = next;
    u.label = lab(UK::k_svc_term);
    return u;
  }
  if ((in.op == Op::kB || in.op == Op::kBl) && dense_shape(in, in_it)) {
    // Direct branch: cond == AL when linking, any condition otherwise;
    // target resolved at emission time.
    const GuestAddr target =
        ti.pc + (tb.thumb ? 4u : 8u) + static_cast<u32>(in.branch_offset);
    u.imm = target;
    u.x = next;
    if (in.link) {
      u.label = lab(UK::k_bl_al);
    } else if (in.cond == Cond::kAL) {
      u.label = lab(UK::k_b_al);
    } else {
      u.a = static_cast<u8>(in.cond);
      u.label = lab(UK::k_b_cond);
    }
    return u;
  }
  if ((in.op == Op::kBx || in.op == Op::kBlxReg) && !in_it &&
      in.cond == Cond::kAL && in.rm != kRegPC) {
    u.a = in.rm;
    u.b = in.link ? 1 : 0;
    u.x = next;
    u.label = lab(UK::k_bx_term);
    return u;
  }
  // Everything else (conditional/IT'd register branches, PC-writing ALU,
  // LDM with PC, undecodable tails): interpretive terminal.
  u.imm = ti.pc;
  u.x = next;
  u.label = lab(UK::k_exec_term);
  return u;
}

// Tries to fuse the block's last two instructions — a flag-setting compare
// (or subs) and the conditional direct branch consuming it — into a single
// terminal uop. Caller guarantees `alu` is outside any IT block (which also
// covers the branch: `alu` is not an IT instruction, so the branch cannot
// open one's scope), so a non-linking B is always dense.
std::optional<Uop> make_fused_terminal(const TranslationBlock& tb,
                                       const TbInsn& alu_ti,
                                       const TbInsn& br_ti, void* const* L) {
  const Insn& alu = alu_ti.insn;
  const Insn& br = br_ti.insn;
  if (br.op != Op::kB || br.link || br.cond == Cond::kAL) {
    return std::nullopt;
  }
  if (alu.cond != Cond::kAL || alu.rn == kRegPC) return std::nullopt;
  const bool is_cmp = alu.op == Op::kCmp;
  const bool is_subs = alu.op == Op::kSub && alu.set_flags &&
                       alu.imm_operand && alu.rd != kRegPC;
  if (!is_cmp && !is_subs) return std::nullopt;
  if (is_cmp && !alu.imm_operand &&
      (alu.rm == kRegPC || alu.shift_by_reg ||
       alu.shift != ShiftType::kLSL || alu.shift_amount != 0)) {
    return std::nullopt;
  }
  Uop u;
  u.imm = br_ti.pc + (tb.thumb ? 4u : 8u) + static_cast<u32>(br.branch_offset);
  u.x = br_ti.pc + br.length;
  auto lab = [&](UK k) { return L[static_cast<u32>(k)]; };
  if (is_subs) {
    u.a = alu.rd;
    u.b = alu.rn;
    u.d = static_cast<u8>(br.cond);
    u.p = &alu_ti;
    u.label = lab(UK::k_subs_i_b);
    return u;
  }
  u.b = alu.rn;
  u.a = static_cast<u8>(br.cond);
  if (alu.imm_operand) {
    if (alu.imm == 0) {
      u.p = &br_ti;
      u.label = lab(UK::k_cmp0_b);
    } else {
      u.p = &alu_ti;
      u.label = lab(UK::k_cmp_i_b);
    }
  } else {
    u.c = alu.rm;
    u.p = &br_ti;
    u.label = lab(UK::k_cmp_r_b);
  }
  return u;
}

// Superword pair fusion over the straight-line body (the ROADMAP
// dispatch-density plan): movw+movt (a 32-bit constant load) and the
// ldr+add#imm load-then-advance loop idiom collapse into one micro-op that
// retires two instructions. Both halves must be dense-shaped (cond==AL,
// no PC, plain operands); the caller ensures both sit outside IT blocks.
std::optional<Uop> make_fused_pair(const TbInsn& a_ti, const TbInsn& b_ti,
                                   void* const* L) {
  const Insn& a = a_ti.insn;
  const Insn& b = b_ti.insn;
  Uop u;
  auto lab = [&](UK k) { return L[static_cast<u32>(k)]; };
  if (!dense_shape(a, false) || !dense_shape(b, false)) return std::nullopt;
  if (a.op == Op::kMovw && b.op == Op::kMovt && a.rd == b.rd) {
    u.a = a.rd;
    u.imm = (a.imm & 0xFFFFu) | (b.imm << 16);
    u.p = &a_ti;
    u.label = lab(UK::k_movw_movt);
    return u;
  }
  if (a.op == Op::kLdr && a.pre_index && !a.writeback && b.op == Op::kAdd &&
      b.imm_operand && !b.set_flags && b.rd == b.rn) {
    u.a = a.rd;
    u.b = a.rn;
    u.imm = a.add_offset ? a.imm : 0u - a.imm;
    u.d = b.rd;
    u.x = b.imm;  // the post-load register step
    u.p = &a_ti;
    u.label = lab(UK::k_ldr_addi);
    return u;
  }
  return std::nullopt;
}

}  // namespace

void ThreadedRun::emit(Cpu& cpu, TranslationBlock& tb) {
  // Computed-goto label table indexed by UK.
  static void* const* const L = [] {
    void* const* t = nullptr;
    exec_impl(nullptr, nullptr, 0, &t);
    return t;
  }();
  auto blk = std::make_shared<ThreadedBlock>();
  blk->tb = &tb;
  const std::size_t n = tb.insns.size();
  blk->n_insns = static_cast<u32>(n);
  blk->ops.reserve(n + 2);
  // Cpu::set_store_hook flushes every block, so which stores call the hook
  // is fixed for a stream's lifetime.
  const StoreHook& store_hook = cpu.store_hook_;

  Uop enter;
  enter.label = L[static_cast<u32>(UK::k_enter)];
  enter.p = blk.get();
  blk->ops.push_back(enter);

  u32 it_left = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const TbInsn& ti = tb.insns[i];
    bool in_it = false;
    if (ti.insn.op == Op::kIt) {
      // Number of IT'd instructions = 4 - trailing zeros of the mask.
      const u32 mask = ti.insn.imm & 0xFu;
      it_left = mask == 0 ? 0 : 4 - static_cast<u32>(std::countr_zero(mask));
    } else if (it_left > 0) {
      --it_left;
      in_it = true;
    }
    // A hooked store (store-class, pc inside the hook's range) gets a hook
    // micro-op in front of it. Neither fusion below starts with (or pairs
    // in) a store, so the store itself always follows as its own micro-op.
    if (is_store_class(ti.taint_class) && store_hook.covers(ti.pc)) {
      Uop hook;
      hook.label = L[static_cast<u32>(UK::k_store_hook)];
      hook.p = &ti;
      blk->ops.push_back(hook);
    }
    if (i + 2 == n && !in_it && ends_block(tb.insns[n - 1].insn)) {
      if (std::optional<Uop> fused =
              make_fused_terminal(tb, ti, tb.insns[n - 1], L)) {
        blk->ops.push_back(*fused);
        break;
      }
    }
    // Superword pair fusion (movw+movt, ldr+add#imm). `it_left == 0`
    // guarantees the partner instruction is also outside any IT block; the
    // fusable shapes never terminate a block, so consuming the partner
    // cannot swallow a terminal.
    if (!in_it && it_left == 0 && i + 1 < n &&
        !(i + 1 == n - 1 && ends_block(tb.insns[i + 1].insn))) {
      if (std::optional<Uop> fused =
              make_fused_pair(ti, tb.insns[i + 1], L)) {
        blk->ops.push_back(*fused);
        ++i;  // partner consumed
        if (i == n - 1) {
          Uop end;
          end.label = L[static_cast<u32>(UK::k_end)];
          end.imm = tb.pc + tb.byte_length;
          blk->ops.push_back(end);
        }
        continue;
      }
    }
    if (i == n - 1 && ends_block(ti.insn)) {
      blk->ops.push_back(make_terminal(tb, ti, in_it, L));
    } else {
      blk->ops.push_back(make_body(ti, in_it, L));
      if (i == n - 1) {
        Uop end;
        end.label = L[static_cast<u32>(UK::k_end)];
        end.imm = tb.pc + tb.byte_length;
        blk->ops.push_back(end);
      }
    }
  }
  tb.threaded = std::move(blk);
}

u64 ThreadedRun::exec(Cpu& cpu, ThreadedBlock& entry, u64 budget) {
  return exec_impl(&cpu, &entry, budget, nullptr);
}

}  // namespace ndroid::arm
