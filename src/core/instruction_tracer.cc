#include "core/instruction_tracer.h"

#include "arm/executor.h"

namespace ndroid::core {

using arm::Insn;
using arm::Op;
using arm::TaintClass;

InstructionTracer::InstructionTracer(TaintEngine& engine,
                                     std::function<bool(GuestAddr)> in_scope,
                                     bool use_handler_cache,
                                     TraceLog* disasm_log)
    : engine_(engine),
      in_scope_(std::move(in_scope)),
      use_cache_(use_handler_cache),
      disasm_log_(disasm_log) {}

u32 InstructionTracer::access_size(const Insn& insn) {
  switch (insn.op) {
    case Op::kLdrb:
    case Op::kLdrsb:
    case Op::kStrb:
      return 1;
    case Op::kLdrh:
    case Op::kLdrsh:
    case Op::kStrh:
      return 2;
    default:
      return 4;
  }
}

InstructionTracer::Handler InstructionTracer::classify(
    const Insn& insn) const {
  switch (insn.taint_class()) {
    case TaintClass::kBinaryOp3: return &InstructionTracer::handle_binary3;
    case TaintClass::kBinaryOp2: return &InstructionTracer::handle_binary2;
    case TaintClass::kUnary: return &InstructionTracer::handle_unary;
    case TaintClass::kMovImm: return &InstructionTracer::handle_mov_imm;
    case TaintClass::kMovReg: return &InstructionTracer::handle_mov_reg;
    case TaintClass::kLoad: return &InstructionTracer::handle_load;
    case TaintClass::kStore: return &InstructionTracer::handle_store;
    case TaintClass::kLdm: return &InstructionTracer::handle_ldm;
    case TaintClass::kStm: return &InstructionTracer::handle_stm;
    case TaintClass::kNone: return nullptr;
  }
  return nullptr;
}

void InstructionTracer::on_insn(arm::Cpu& cpu, const Insn& insn,
                                GuestAddr pc) {
  if (!in_scope_(pc)) return;
  if (!arm::condition_passed(arm::effective_cond(insn, cpu.state()),
                             cpu.state())) {
    return;
  }

  Handler handler;
  if (use_cache_) {
    if (handler_cache_ == nullptr) [[unlikely]] {
      handler_cache_ = std::make_unique_for_overwrite<HandlerEntry[]>(
          1u << kHandlerCacheBits);
    }
    // Same golden-ratio hash as the CPU's decode cache; collisions merely
    // re-classify (the entry is overwritten, never mixed).
    const u32 index = static_cast<u32>(
        (insn.raw * 0x9E3779B97F4A7C15ull) >> (64 - kHandlerCacheBits));
    HandlerEntry& entry = handler_cache_[index];
    u64& touched = handler_touched_[index >> 6];
    if ((touched & (1ull << (index & 63))) == 0) {
      entry = {0xFFFFFFFFu, nullptr};
      touched |= 1ull << (index & 63);
    }
    if (entry.key == insn.raw) {
      handler = entry.handler;
      ++cache_hits_;
    } else {
      handler = classify(insn);
      entry = {insn.raw, handler};
    }
  } else {
    handler = classify(insn);
  }
  if (handler == nullptr) return;
  ++traced_;
  ++engine_.propagations;
  if (disasm_log_ != nullptr) log_disasm(cpu, insn, pc);
  (this->*handler)(cpu, insn, pc);
}

void InstructionTracer::log_disasm(const arm::Cpu& cpu, const Insn& insn,
                                   GuestAddr pc) {
  disasm_log_->add({.kind = TraceKind::kDisasm,
                    .type = static_cast<char>(cpu.state().thumb),
                    .a = pc,
                    .b = insn.raw});
}

arm::TraceOp InstructionTracer::prepare(const arm::TbInsn& ti) {
  arm::TraceOp op;
  if (!in_scope_(ti.pc)) return op;
  const Handler handler = classify(ti.insn);
  if (handler == nullptr) return op;
  auto ctx = std::make_shared<Prepared>(Prepared{this, handler});
  op.fn = &InstructionTracer::run_prepared;
  op.ctx = ctx.get();
  op.keepalive = std::move(ctx);
  return op;
}

void InstructionTracer::run_prepared(void* ctx, arm::Cpu& cpu,
                                     const Insn& insn, GuestAddr pc) {
  auto* p = static_cast<Prepared*>(ctx);
  InstructionTracer* self = p->self;
  if (!arm::condition_passed(arm::effective_cond(insn, cpu.state()),
                             cpu.state())) {
    return;
  }
  // The emission-time classification plays the handler cache's role here;
  // count it as a hit so the cache-effectiveness counters stay comparable
  // across execution tiers.
  if (self->use_cache_) ++self->cache_hits_;
  ++self->traced_;
  ++self->engine_.propagations;
  if (self->disasm_log_ != nullptr) self->log_disasm(cpu, insn, pc);
  (self->*(p->handler))(cpu, insn, pc);
}

void InstructionTracer::handle_binary3(arm::Cpu&, const Insn& insn,
                                       GuestAddr) {
  // binary-op Rd, Rn, Rm -> t(Rd) = t(Rn) | t(Rm);
  // binary-op Rd, Rn, #imm -> t(Rd) = t(Rn).
  Taint t = engine_.reg(insn.rn);
  if (!insn.imm_operand) t |= engine_.reg(insn.rm);
  // Accumulate forms read a third register (MLA's Ra, long-multiply's Rs).
  if (insn.op == Op::kMla || insn.op == Op::kUmull ||
      insn.op == Op::kSmull) {
    t |= engine_.reg(insn.rs);
  }
  engine_.set_reg(insn.rd, t);
  if (insn.op == Op::kUmull || insn.op == Op::kSmull) {
    engine_.set_reg(insn.rn, t);  // RdHi
  }
}

void InstructionTracer::handle_binary2(arm::Cpu&, const Insn& insn,
                                       GuestAddr) {
  // Rd = Rd op Rm/#imm -> add the operand taint to t(Rd).
  Taint t = engine_.reg(insn.rd);
  if (!insn.imm_operand) t |= engine_.reg(insn.rm);
  engine_.set_reg(insn.rd, t);
}

void InstructionTracer::handle_unary(arm::Cpu&, const Insn& insn,
                                     GuestAddr) {
  engine_.set_reg(insn.rd, engine_.reg(insn.rm));
}

void InstructionTracer::handle_mov_imm(arm::Cpu&, const Insn& insn,
                                       GuestAddr) {
  engine_.set_reg(insn.rd, kTaintClear);
}

void InstructionTracer::handle_mov_reg(arm::Cpu&, const Insn& insn,
                                       GuestAddr) {
  engine_.set_reg(insn.rd, engine_.reg(insn.rm));
}

void InstructionTracer::handle_load(arm::Cpu& cpu, const Insn& insn,
                                    GuestAddr pc) {
  const GuestAddr addr = arm::mem_effective_address(insn, cpu.state(), pc);
  const Taint t =
      engine_.map().get_range(addr, access_size(insn)) | engine_.reg(insn.rn);
  engine_.set_reg(insn.rd, t);
}

void InstructionTracer::handle_store(arm::Cpu& cpu, const Insn& insn,
                                     GuestAddr pc) {
  const GuestAddr addr = arm::mem_effective_address(insn, cpu.state(), pc);
  engine_.map().set_range(addr, access_size(insn), engine_.reg(insn.rd));
}

void InstructionTracer::handle_ldm(arm::Cpu& cpu, const Insn& insn,
                                   GuestAddr) {
  const arm::BlockTransfer bt = arm::block_transfer(insn, cpu.state());
  const Taint base_taint = engine_.reg(insn.rn);
  GuestAddr addr = bt.start;
  for (u8 r = 0; r < 16; ++r) {
    if (!(insn.reglist & (1u << r))) continue;
    engine_.set_reg(r, engine_.map().get_range(addr, 4) | base_taint);
    addr += 4;
  }
}

void InstructionTracer::handle_stm(arm::Cpu& cpu, const Insn& insn,
                                   GuestAddr) {
  const arm::BlockTransfer bt = arm::block_transfer(insn, cpu.state());
  GuestAddr addr = bt.start;
  for (u8 r = 0; r < 16; ++r) {
    if (!(insn.reglist & (1u << r))) continue;
    engine_.map().set_range(addr, 4, engine_.reg(r));
    addr += 4;
  }
}

}  // namespace ndroid::core
