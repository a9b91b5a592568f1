// Interprets decoded instructions against CPUState + guest memory.
//
// The helpers `condition_passed`, `operand2_value`, and
// `mem_effective_address` are shared with NDroid's instruction tracer, which
// must compute the same addresses/operands *before* execution to apply the
// Table V taint rules (paper §V-G: "the instruction tracer parses each
// ARM/Thumb instruction and calls the related handler to complete the taint
// propagation before the instruction is executed").
#pragma once

#include "arm/cpu_state.h"
#include "arm/insn.h"
#include "mem/address_space.h"

namespace ndroid::arm {

[[nodiscard]] bool condition_passed(Cond cond, const CPUState& state);

/// Condition `insn` will execute under *right now*: inside a Thumb IT block
/// the ITSTATE condition overrides the encoded one (Thumb-16 instructions
/// all encode AL; a branch with the unconditional encoding becomes
/// conditional when IT'd). Pure peek — does not advance the ITSTATE.
[[nodiscard]] inline Cond effective_cond(const Insn& insn,
                                         const CPUState& state) {
  if (state.thumb && state.itstate != 0 && insn.op != Op::kIt) {
    return static_cast<Cond>(state.itstate >> 4);
  }
  return insn.cond;
}

/// Steps the ITSTATE past one instruction (architectural advance: shift the
/// mask left; all-zero low bits end the block). execute() calls this
/// itself; run loops that bypass execute() (taken SVC) must call it too.
inline void advance_itstate(CPUState& state) {
  state.itstate = (state.itstate & 0x07) == 0
                      ? 0
                      : static_cast<u8>((state.itstate & 0xE0) |
                                        ((state.itstate << 1) & 0x1F));
}

/// Value a register read yields inside an instruction at `pc` (PC reads as
/// pc+8 in ARM state, pc+4 in Thumb state).
[[nodiscard]] u32 read_reg(const CPUState& state, u8 reg, GuestAddr pc,
                           bool align_pc = false);

struct Operand2 {
  u32 value = 0;
  bool carry = false;
};

/// Computes the shifter operand (immediate or shifted register) and its
/// carry-out. `pc` is the address of the instruction being executed.
[[nodiscard]] Operand2 operand2_value(const Insn& insn, const CPUState& state,
                                      GuestAddr pc);

/// Effective memory address of a load/store (the post-index form returns the
/// base, which is the address actually accessed).
[[nodiscard]] GuestAddr mem_effective_address(const Insn& insn,
                                              const CPUState& state,
                                              GuestAddr pc);

/// First address accessed by an LDM/STM and the transfer count.
struct BlockTransfer {
  GuestAddr start = 0;
  u32 count = 0;
  u32 new_base = 0;
};
[[nodiscard]] BlockTransfer block_transfer(const Insn& insn,
                                           const CPUState& state);

/// Executes one instruction. On entry `state.pc()` must be the instruction's
/// address; on exit it is the next PC (sequential or branch target).
/// Interworking branches (BX/BLX/loads to PC) update `state.thumb`.
void execute(const Insn& insn, CPUState& state, mem::AddressSpace& memory);

/// True when `insn` may write the PC (or otherwise leave the straight-line
/// path): such instructions terminate a translation block. Conservative —
/// misclassifying towards "ends" only shortens blocks, never breaks them.
/// Shared by block translation (cpu.cc) and threaded-code emission
/// (threaded.cc), which must agree on where a block's terminal lives.
[[nodiscard]] bool ends_block(const Insn& insn);

// --- Shared flag/ALU kernels ------------------------------------------------
//
// The NZCV formulas of the dense ADD/SUB/CMP/CMN shapes, used by the
// threaded micro-op bodies (threaded.cc). A divergence here would split the
// golden logs.

inline void set_sub_flags(CPUState& s, u32 a, u32 b) {
  const u32 r = a - b;
  s.n = (r >> 31) != 0;
  s.z = r == 0;
  s.c = a >= b;  // carry == no borrow
  s.v = (((a ^ b) & (a ^ r)) >> 31) != 0;
}

inline void set_add_flags(CPUState& s, u32 a, u32 b) {
  const u32 r = a + b;
  s.n = (r >> 31) != 0;
  s.z = r == 0;
  s.c = r < a;  // wrapped iff the 33-bit sum overflowed
  s.v = (((a ^ r) & (b ^ r)) >> 31) != 0;
}

/// Flagless data-processing result for the dense threaded shapes (operand 2
/// already resolved to a plain value by the caller).
template <Op OP>
inline u32 dp_compute(u32 a, u32 b, [[maybe_unused]] const CPUState& s) {
  if constexpr (OP == Op::kAnd) return a & b;
  if constexpr (OP == Op::kEor) return a ^ b;
  if constexpr (OP == Op::kOrr) return a | b;
  if constexpr (OP == Op::kBic) return a & ~b;
  if constexpr (OP == Op::kMov) return b;
  if constexpr (OP == Op::kMvn) return ~b;
  if constexpr (OP == Op::kSub) return a - b;
  if constexpr (OP == Op::kRsb) return b - a;
  if constexpr (OP == Op::kAdd) return a + b;
  if constexpr (OP == Op::kAdc) return a + b + (s.c ? 1 : 0);
  if constexpr (OP == Op::kSbc) return a - b - (s.c ? 0 : 1);
  if constexpr (OP == Op::kRsc) return b - a - (s.c ? 0 : 1);
  return 0;
}

}  // namespace ndroid::arm
