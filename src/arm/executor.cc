#include "arm/executor.h"

#include <bit>
#include <limits>

namespace ndroid::arm {

namespace {

constexpr u32 ror32(u32 v, u32 n) {
  n &= 31;
  return n == 0 ? v : (v >> n) | (v << (32 - n));
}

struct AddResult {
  u32 value;
  bool carry;
  bool overflow;
};

AddResult add_with_carry(u32 a, u32 b, bool carry_in) {
  const u64 unsigned_sum = static_cast<u64>(a) + b + (carry_in ? 1 : 0);
  const i64 signed_sum = static_cast<i64>(static_cast<i32>(a)) +
                         static_cast<i32>(b) + (carry_in ? 1 : 0);
  const u32 result = static_cast<u32>(unsigned_sum);
  return {result, unsigned_sum != result,
          signed_sum != static_cast<i32>(result)};
}

}  // namespace

bool condition_passed(Cond cond, const CPUState& s) {
  switch (cond) {
    case Cond::kEQ: return s.z;
    case Cond::kNE: return !s.z;
    case Cond::kCS: return s.c;
    case Cond::kCC: return !s.c;
    case Cond::kMI: return s.n;
    case Cond::kPL: return !s.n;
    case Cond::kVS: return s.v;
    case Cond::kVC: return !s.v;
    case Cond::kHI: return s.c && !s.z;
    case Cond::kLS: return !s.c || s.z;
    case Cond::kGE: return s.n == s.v;
    case Cond::kLT: return s.n != s.v;
    case Cond::kGT: return !s.z && s.n == s.v;
    case Cond::kLE: return s.z || s.n != s.v;
    case Cond::kAL: return true;
  }
  return true;
}

u32 read_reg(const CPUState& state, u8 reg, GuestAddr pc, bool align_pc) {
  if (reg == kRegPC) {
    const u32 v = pc + (state.thumb ? 4 : 8);
    return align_pc ? (v & ~3u) : v;
  }
  return state.regs[reg];
}

Operand2 operand2_value(const Insn& insn, const CPUState& state,
                        GuestAddr pc) {
  if (insn.imm_operand) {
    // Carry-out of a rotated immediate is bit 31 of the result when the
    // rotation is non-zero, else the existing carry.
    const bool carry =
        insn.shift_amount != 0 ? (insn.imm >> 31) != 0 : state.c;
    return {insn.imm, carry};
  }
  const u32 rm = read_reg(state, insn.rm, pc);
  u32 amount = insn.shift_amount;
  if (insn.shift_by_reg) {
    amount = state.regs[insn.rs] & 0xFF;
    if (amount == 0) return {rm, state.c};
  }
  switch (insn.shift) {
    case ShiftType::kLSL:
      if (amount == 0) return {rm, state.c};
      if (amount < 32) {
        return {rm << amount, ((rm >> (32 - amount)) & 1) != 0};
      }
      if (amount == 32) return {0, (rm & 1) != 0};
      return {0, false};
    case ShiftType::kLSR:
      if (amount < 32) return {rm >> amount, ((rm >> (amount - 1)) & 1) != 0};
      if (amount == 32) return {0, (rm >> 31) != 0};
      return {0, false};
    case ShiftType::kASR: {
      if (amount < 32) {
        const u32 result = static_cast<u32>(static_cast<i32>(rm) >> amount);
        return {result, ((rm >> (amount - 1)) & 1) != 0};
      }
      const bool sign = (rm >> 31) != 0;
      return {sign ? 0xFFFFFFFFu : 0u, sign};
    }
    case ShiftType::kROR: {
      const u32 eff = amount & 31;
      if (eff == 0) return {rm, (rm >> 31) != 0};
      const u32 result = ror32(rm, eff);
      return {result, (result >> 31) != 0};
    }
    case ShiftType::kRRX: {
      const u32 result = (rm >> 1) | (state.c ? 0x80000000u : 0);
      return {result, (rm & 1) != 0};
    }
  }
  return {rm, state.c};
}

GuestAddr mem_effective_address(const Insn& insn, const CPUState& state,
                                GuestAddr pc) {
  const u32 base = read_reg(state, insn.rn, pc, /*align_pc=*/true);
  u32 offset;
  if (insn.reg_offset) {
    Insn shifted = insn;
    shifted.imm_operand = false;
    offset = operand2_value(shifted, state, pc).value;
  } else {
    offset = insn.imm;
  }
  const u32 indexed = insn.add_offset ? base + offset : base - offset;
  return insn.pre_index ? indexed : base;
}

BlockTransfer block_transfer(const Insn& insn, const CPUState& state) {
  const u32 base = state.regs[insn.rn];
  const u32 count = static_cast<u32>(std::popcount(insn.reglist));
  BlockTransfer bt;
  bt.count = count;
  if (insn.base_increment) {
    bt.start = insn.before ? base + 4 : base;
    bt.new_base = base + 4 * count;
  } else {
    bt.start = insn.before ? base - 4 * count : base - 4 * count + 4;
    bt.new_base = base - 4 * count;
  }
  return bt;
}

namespace {

void write_pc_interworking(CPUState& state, u32 target) {
  state.thumb = (target & 1) != 0;
  state.set_pc(target & ~1u);
}

void set_nz(CPUState& state, u32 result) {
  state.n = (result >> 31) != 0;
  state.z = result == 0;
}

void exec_data_processing(const Insn& insn, CPUState& state, GuestAddr pc) {
  const u32 rn = read_reg(state, insn.rn, pc);
  const Operand2 op2 = operand2_value(insn, state, pc);

  u32 result = 0;
  bool write_rd = true;
  bool logical = false;
  AddResult add{};
  bool arithmetic = false;

  switch (insn.op) {
    case Op::kAnd: result = rn & op2.value; logical = true; break;
    case Op::kEor: result = rn ^ op2.value; logical = true; break;
    case Op::kOrr: result = rn | op2.value; logical = true; break;
    case Op::kBic: result = rn & ~op2.value; logical = true; break;
    case Op::kMov: result = op2.value; logical = true; break;
    case Op::kMvn: result = ~op2.value; logical = true; break;
    case Op::kTst:
      result = rn & op2.value;
      logical = true;
      write_rd = false;
      break;
    case Op::kTeq:
      result = rn ^ op2.value;
      logical = true;
      write_rd = false;
      break;
    case Op::kSub:
      add = add_with_carry(rn, ~op2.value, true);
      arithmetic = true;
      break;
    case Op::kRsb:
      add = add_with_carry(~rn, op2.value, true);
      arithmetic = true;
      break;
    case Op::kAdd:
      add = add_with_carry(rn, op2.value, false);
      arithmetic = true;
      break;
    case Op::kAdc:
      add = add_with_carry(rn, op2.value, state.c);
      arithmetic = true;
      break;
    case Op::kSbc:
      add = add_with_carry(rn, ~op2.value, state.c);
      arithmetic = true;
      break;
    case Op::kRsc:
      add = add_with_carry(~rn, op2.value, state.c);
      arithmetic = true;
      break;
    case Op::kCmp:
      add = add_with_carry(rn, ~op2.value, true);
      arithmetic = true;
      write_rd = false;
      break;
    case Op::kCmn:
      add = add_with_carry(rn, op2.value, false);
      arithmetic = true;
      write_rd = false;
      break;
    default:
      throw GuestFault("exec_data_processing: bad op");
  }
  if (arithmetic) result = add.value;

  if (insn.set_flags && insn.rd != kRegPC) {
    set_nz(state, result);
    if (logical) {
      state.c = op2.carry;
    } else {
      state.c = add.carry;
      state.v = add.overflow;
    }
  }
  if (write_rd) {
    if (insn.rd == kRegPC) {
      write_pc_interworking(state, result);
    } else {
      state.regs[insn.rd] = result;
    }
  }
}

/// The per-opcode effects, after condition and ITSTATE handling. On entry
/// `state.pc()` already holds `next`; branch opcodes override it.
void execute_body(const Insn& insn, CPUState& state, mem::AddressSpace& memory,
                  GuestAddr pc, GuestAddr next) {
  switch (insn.op) {
    case Op::kUndefined:
      throw GuestFault("undefined instruction at 0x" + std::to_string(pc) +
                       " raw=0x" + std::to_string(insn.raw));
    case Op::kNop:
      return;

    case Op::kAnd:
    case Op::kEor:
    case Op::kSub:
    case Op::kRsb:
    case Op::kAdd:
    case Op::kAdc:
    case Op::kSbc:
    case Op::kRsc:
    case Op::kTst:
    case Op::kTeq:
    case Op::kCmp:
    case Op::kCmn:
    case Op::kOrr:
    case Op::kMov:
    case Op::kBic:
    case Op::kMvn:
      // PC-relative operand reads resolve via the explicit `pc` argument, so
      // state.pc() already holding `next` is harmless.
      exec_data_processing(insn, state, pc);
      return;

    case Op::kMovw:
      state.regs[insn.rd] = insn.imm;
      return;
    case Op::kMovt:
      state.regs[insn.rd] =
          (state.regs[insn.rd] & 0xFFFFu) | (insn.imm << 16);
      return;

    case Op::kMul: {
      const u32 result = state.regs[insn.rn] * state.regs[insn.rm];
      state.regs[insn.rd] = result;
      if (insn.set_flags) set_nz(state, result);
      return;
    }
    case Op::kMla: {
      const u32 result =
          state.regs[insn.rn] * state.regs[insn.rm] + state.regs[insn.rs];
      state.regs[insn.rd] = result;
      if (insn.set_flags) set_nz(state, result);
      return;
    }
    case Op::kUmull: {
      const u64 result =
          static_cast<u64>(state.regs[insn.rs]) * state.regs[insn.rm];
      state.regs[insn.rd] = static_cast<u32>(result);        // RdLo
      state.regs[insn.rn] = static_cast<u32>(result >> 32);  // RdHi
      if (insn.set_flags) {
        state.n = (result >> 63) != 0;
        state.z = result == 0;
      }
      return;
    }
    case Op::kSmull: {
      const i64 result = static_cast<i64>(static_cast<i32>(state.regs[insn.rs])) *
                         static_cast<i32>(state.regs[insn.rm]);
      state.regs[insn.rd] = static_cast<u32>(result);
      state.regs[insn.rn] = static_cast<u32>(static_cast<u64>(result) >> 32);
      if (insn.set_flags) {
        state.n = result < 0;
        state.z = result == 0;
      }
      return;
    }
    case Op::kSdiv: {
      const i32 dividend = static_cast<i32>(state.regs[insn.rn]);
      const i32 divisor = static_cast<i32>(state.regs[insn.rm]);
      i32 q = 0;
      if (divisor != 0) {
        if (dividend == std::numeric_limits<i32>::min() && divisor == -1) {
          q = dividend;  // ARM wraps
        } else {
          q = dividend / divisor;
        }
      }
      state.regs[insn.rd] = static_cast<u32>(q);
      return;
    }
    case Op::kUdiv: {
      const u32 divisor = state.regs[insn.rm];
      state.regs[insn.rd] = divisor == 0 ? 0 : state.regs[insn.rn] / divisor;
      return;
    }
    case Op::kClz:
      state.regs[insn.rd] =
          static_cast<u32>(std::countl_zero(state.regs[insn.rm]));
      return;

    case Op::kSxtb:
      state.regs[insn.rd] = static_cast<u32>(
          static_cast<i32>(static_cast<i8>(state.regs[insn.rm] & 0xFF)));
      return;
    case Op::kSxth:
      state.regs[insn.rd] = static_cast<u32>(
          static_cast<i32>(static_cast<i16>(state.regs[insn.rm] & 0xFFFF)));
      return;
    case Op::kUxtb:
      state.regs[insn.rd] = state.regs[insn.rm] & 0xFF;
      return;
    case Op::kUxth:
      state.regs[insn.rd] = state.regs[insn.rm] & 0xFFFF;
      return;

    case Op::kLdr:
    case Op::kLdrb:
    case Op::kLdrh:
    case Op::kLdrsb:
    case Op::kLdrsh: {
      const GuestAddr addr = mem_effective_address(insn, state, pc);
      u32 value = 0;
      switch (insn.op) {
        case Op::kLdr: value = memory.read32(addr); break;
        case Op::kLdrb: value = memory.read8(addr); break;
        case Op::kLdrh: value = memory.read16(addr); break;
        case Op::kLdrsb:
          value = static_cast<u32>(
              static_cast<i32>(static_cast<i8>(memory.read8(addr))));
          break;
        case Op::kLdrsh:
          value = static_cast<u32>(
              static_cast<i32>(static_cast<i16>(memory.read16(addr))));
          break;
        default: break;
      }
      if (insn.writeback && insn.rn != insn.rd) {
        const u32 base = state.regs[insn.rn];
        const u32 offset =
            insn.reg_offset ? operand2_value(insn, state, pc).value : insn.imm;
        state.regs[insn.rn] = insn.add_offset ? base + offset : base - offset;
      }
      if (insn.rd == kRegPC) {
        write_pc_interworking(state, value);
      } else {
        state.regs[insn.rd] = value;
      }
      return;
    }

    case Op::kStr:
    case Op::kStrb:
    case Op::kStrh: {
      const GuestAddr addr = mem_effective_address(insn, state, pc);
      const u32 value = read_reg(state, insn.rd, pc);
      switch (insn.op) {
        case Op::kStr: memory.write32(addr, value); break;
        case Op::kStrb: memory.write8(addr, static_cast<u8>(value)); break;
        case Op::kStrh: memory.write16(addr, static_cast<u16>(value)); break;
        default: break;
      }
      if (insn.writeback) {
        const u32 base = state.regs[insn.rn];
        const u32 offset =
            insn.reg_offset ? operand2_value(insn, state, pc).value : insn.imm;
        state.regs[insn.rn] = insn.add_offset ? base + offset : base - offset;
      }
      return;
    }

    case Op::kLdm: {
      const BlockTransfer bt = block_transfer(insn, state);
      GuestAddr addr = bt.start;
      bool loaded_pc = false;
      u32 pc_value = 0;
      u32 loaded[16];
      u32 idx = 0;
      for (u8 r = 0; r < 16; ++r) {
        if (!(insn.reglist & (1u << r))) continue;
        loaded[idx] = memory.read32(addr);
        if (r == kRegPC) {
          loaded_pc = true;
          pc_value = loaded[idx];
        }
        addr += 4;
        ++idx;
      }
      if (insn.writeback) state.regs[insn.rn] = bt.new_base;
      idx = 0;
      for (u8 r = 0; r < 16; ++r) {
        if (!(insn.reglist & (1u << r))) continue;
        if (r != kRegPC) state.regs[r] = loaded[idx];
        ++idx;
      }
      if (loaded_pc) write_pc_interworking(state, pc_value);
      return;
    }

    case Op::kStm: {
      const BlockTransfer bt = block_transfer(insn, state);
      GuestAddr addr = bt.start;
      for (u8 r = 0; r < 16; ++r) {
        if (!(insn.reglist & (1u << r))) continue;
        memory.write32(addr, read_reg(state, r, pc));
        addr += 4;
      }
      if (insn.writeback) state.regs[insn.rn] = bt.new_base;
      return;
    }

    case Op::kB:
    case Op::kBl: {
      if (insn.link) {
        state.set_lr(state.thumb ? (next | 1u) : next);
      }
      const u32 base = pc + (state.thumb ? 4 : 8);
      state.set_pc(base + static_cast<u32>(insn.branch_offset));
      return;
    }

    case Op::kBx:
    case Op::kBlxReg: {
      const u32 target = read_reg(state, insn.rm, pc);
      if (insn.link) {
        state.set_lr(state.thumb ? (next | 1u) : next);
      }
      write_pc_interworking(state, target);
      return;
    }

    case Op::kTbb:
    case Op::kTbh: {
      // Table branch: forward-only, always stays in Thumb state. A base of
      // PC addresses the table placed inline after the instruction.
      const u32 base = insn.rn == kRegPC ? pc + 4 : read_reg(state, insn.rn, pc);
      const u32 index = read_reg(state, insn.rm, pc);
      const u32 entry = insn.op == Op::kTbb
                            ? memory.read8(base + index)
                            : memory.read16(base + (index << 1));
      state.set_pc(pc + 4 + 2 * entry);
      return;
    }

    case Op::kIt:
      state.itstate = static_cast<u8>(insn.imm);
      return;

    case Op::kSvc:
      // Handled by the CPU run loop (kernel dispatch); executing one here
      // directly is a configuration error.
      throw GuestFault("raw SVC reached executor");
  }
}

}  // namespace

void execute(const Insn& insn, CPUState& state, mem::AddressSpace& memory) {
  const GuestAddr pc = state.pc();
  const GuestAddr next = pc + insn.length;
  state.set_pc(next);  // instruction effects below may override

  if (state.thumb && state.itstate != 0 && insn.op != Op::kIt) [[unlikely]] {
    const Cond cond = static_cast<Cond>(state.itstate >> 4);
    advance_itstate(state);
    if (!condition_passed(cond, state)) return;  // skipped; PC advanced
    if (insn.set_flags && insn.length == 2 && insn.op != Op::kCmp &&
        insn.op != Op::kCmn && insn.op != Op::kTst) {
      // Thumb-16 data processing inside an IT block reuses the
      // flag-setting encodings but must not set flags; compares do.
      Insn quiet = insn;
      quiet.set_flags = false;
      execute_body(quiet, state, memory, pc, next);
    } else {
      execute_body(insn, state, memory, pc, next);
    }
    // A taken branch (or an interworking switch out of Thumb) terminates
    // the IT block — the architecture calls a non-final branch in an IT
    // block unpredictable; defining it as an ITSTATE flush keeps the
    // interpretive and translation-block engines in exact agreement.
    if (state.itstate != 0 && (state.pc() != next || !state.thumb)) {
      state.itstate = 0;
    }
    return;
  }

  if (!condition_passed(insn.cond, state)) return;
  execute_body(insn, state, memory, pc, next);
}

bool ends_block(const Insn& insn) {
  switch (insn.op) {
    case Op::kB:
    case Op::kBl:
    case Op::kBx:
    case Op::kBlxReg:
    case Op::kTbb:
    case Op::kTbh:
    case Op::kSvc:
    case Op::kUndefined:
      return true;
    case Op::kLdm:
    case Op::kStm:
      return ((insn.reglist >> kRegPC) & 1) != 0 ||
             (insn.writeback && insn.rn == kRegPC);
    case Op::kStr:
    case Op::kStrb:
    case Op::kStrh:
      return insn.writeback && insn.rn == kRegPC;
    default:
      return insn.rd == kRegPC || (insn.writeback && insn.rn == kRegPC);
  }
}

}  // namespace ndroid::arm
