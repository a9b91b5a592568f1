// NDroid's Instruction Tracer (paper §V-C).
//
// "By instrumenting third-party native libraries, the instruction tracer
// monitors each ARM/Thumb instruction to determine how the taint
// propagates." Implements the Table V propagation logic:
//
//   binary-op Rd,Rn,Rm    t(Rd) = t(Rn) | t(Rm)
//   binary-op Rd,Rm       t(Rd) = t(Rd) | t(Rm)
//   binary-op Rd,Rm,#imm  t(Rd) = t(Rm)
//   unary Rd,Rm           t(Rd) = t(Rm)
//   mov Rd,#imm           t(Rd) = clear
//   mov Rd,Rm             t(Rd) = t(Rm)
//   LDR* Rd,[Rn,#imm]     t(Rd) = t(M[addr]) | t(Rn)
//   LDM/POP               t(Ri) = t(M[addr_i]) | t(Rn)
//   STR* Rd,[Rn,#imm]     t(M[addr]) = t(Rd)
//   STM/PUSH              t(M[addr_i]) = t(Ri)
//
// "To speed up the identification of the instruction type and the search of
// the handler, NDroid caches hot instructions and the corresponding
// handlers" — the handler cache is a direct-mapped array keyed by raw
// instruction word (same golden-ratio hash as the CPU's decode cache) and
// can be disabled for the ablation experiment.
#pragma once

#include <array>
#include <functional>
#include <memory>

#include "arm/cpu.h"
#include "core/report.h"
#include "core/taint_engine.h"

namespace ndroid::core {

class InstructionTracer {
 public:
  /// `in_scope` decides whether an instruction at a given address belongs to
  /// code the tracer instruments (third-party native libraries for NDroid;
  /// everything for DroidScope-mode).
  InstructionTracer(TaintEngine& engine,
                    std::function<bool(GuestAddr)> in_scope,
                    bool use_handler_cache = true,
                    TraceLog* disasm_log = nullptr);

  /// Applies the Table V rule for `insn` (called before execution, with the
  /// pre-state in `cpu`). No-op when the address is out of scope.
  void on_insn(arm::Cpu& cpu, const arm::Insn& insn, GuestAddr pc);

  /// Threaded-tier emission hook: resolves the scope check and the Table V
  /// handler classification for `ti` once, returning a fused thunk that
  /// performs only the residual per-execution work (condition check +
  /// handler body). An empty op (fn == nullptr) means the tracer provably
  /// no-ops on this instruction forever — scope is a static property of
  /// the address and classification of the encoding.
  [[nodiscard]] arm::TraceOp prepare(const arm::TbInsn& ti);

  [[nodiscard]] u64 instructions_traced() const { return traced_; }
  [[nodiscard]] u64 cache_hits() const { return cache_hits_; }

 private:
  /// Pre-classified handler for one raw instruction encoding.
  using Handler = void (InstructionTracer::*)(arm::Cpu&, const arm::Insn&,
                                              GuestAddr);

  void handle_binary3(arm::Cpu& cpu, const arm::Insn& insn, GuestAddr pc);
  void handle_binary2(arm::Cpu& cpu, const arm::Insn& insn, GuestAddr pc);
  void handle_unary(arm::Cpu& cpu, const arm::Insn& insn, GuestAddr pc);
  void handle_mov_imm(arm::Cpu& cpu, const arm::Insn& insn, GuestAddr pc);
  void handle_mov_reg(arm::Cpu& cpu, const arm::Insn& insn, GuestAddr pc);
  void handle_load(arm::Cpu& cpu, const arm::Insn& insn, GuestAddr pc);
  void handle_store(arm::Cpu& cpu, const arm::Insn& insn, GuestAddr pc);
  void handle_ldm(arm::Cpu& cpu, const arm::Insn& insn, GuestAddr pc);
  void handle_stm(arm::Cpu& cpu, const arm::Insn& insn, GuestAddr pc);

  [[nodiscard]] Handler classify(const arm::Insn& insn) const;
  [[nodiscard]] static u32 access_size(const arm::Insn& insn);

  /// Pre-resolved context a prepare()d thunk runs with (kept alive by the
  /// TraceOp's keepalive).
  struct Prepared {
    InstructionTracer* self;
    Handler handler;
  };
  static void run_prepared(void* ctx, arm::Cpu& cpu, const arm::Insn& insn,
                           GuestAddr pc);

  /// Direct-mapped handler cache. Its 96 KiB are allocated at the first
  /// traced instruction and never bulk-initialised: a slot becomes the
  /// empty entry the first time it is probed (see handler_touched_), so a
  /// run pays only for the slots it uses. The empty entry's sentinel key
  /// never matches a hit with a stale handler: 0xFFFFFFFF decodes to an
  /// unconditional-NV undefined instruction whose handler is nullptr — the
  /// same value the empty entry holds.
  struct HandlerEntry {
    u32 key;
    Handler handler;
  };
  static constexpr u32 kHandlerCacheBits = 12;

  TaintEngine& engine_;
  std::function<bool(GuestAddr)> in_scope_;
  bool use_cache_;
  TraceLog* disasm_log_;  // per-instruction disassembly when non-null
  std::unique_ptr<HandlerEntry[]> handler_cache_;
  /// One bit per handler-cache slot: set once the slot holds an entry.
  std::array<u64, (1u << kHandlerCacheBits) / 64> handler_touched_{};
  u64 traced_ = 0;
  u64 cache_hits_ = 0;
};

}  // namespace ndroid::core
