// Decoded instruction representation shared by the decoder, the executor,
// and NDroid's instruction tracer.
//
// The tracer's taint rules (paper Table V) are keyed off the *shape* of an
// instruction (binary-op / unary / mov / LDR-like / STR-like / LDM / STM),
// so the decoded form keeps operands uniform across ARM and Thumb.
#pragma once

#include <string>

#include "common/types.h"

namespace ndroid::arm {

enum class Cond : u8 {
  kEQ = 0x0,
  kNE = 0x1,
  kCS = 0x2,
  kCC = 0x3,
  kMI = 0x4,
  kPL = 0x5,
  kVS = 0x6,
  kVC = 0x7,
  kHI = 0x8,
  kLS = 0x9,
  kGE = 0xA,
  kLT = 0xB,
  kGT = 0xC,
  kLE = 0xD,
  kAL = 0xE,
};

enum class ShiftType : u8 { kLSL = 0, kLSR = 1, kASR = 2, kROR = 3, kRRX = 4 };

enum class Op : u8 {
  kUndefined,
  // Data processing (ARM opcodes 0x0-0xF).
  kAnd,
  kEor,
  kSub,
  kRsb,
  kAdd,
  kAdc,
  kSbc,
  kRsc,
  kTst,
  kTeq,
  kCmp,
  kCmn,
  kOrr,
  kMov,
  kBic,
  kMvn,
  // Wide immediates / multiply / divide.
  kMovw,
  kMovt,
  kMul,
  kMla,
  kUmull,
  kSmull,
  kSdiv,
  kUdiv,
  kClz,
  // Extension (Thumb SXTB/SXTH/UXTB/UXTH and ARM equivalents).
  kSxtb,
  kSxth,
  kUxtb,
  kUxth,
  // Loads and stores.
  kLdr,
  kLdrb,
  kLdrh,
  kLdrsb,
  kLdrsh,
  kStr,
  kStrb,
  kStrh,
  kLdm,
  kStm,
  // Control flow.
  kB,
  kBl,
  kBx,
  kBlxReg,
  /// Thumb-2 table branches: PC = (pc + 4) + 2 * mem8[Rn + Rm] (TBB) or
  /// 2 * mem16[Rn + (Rm << 1)] (TBH). Rn == PC reads the table inline
  /// after the instruction. Always stays in Thumb state.
  kTbb,
  kTbh,
  // System.
  kSvc,
  kNop,
  /// Thumb IT: `imm` holds the architectural ITSTATE byte
  /// (firstcond << 4 | mask) the instruction installs.
  kIt,
};

/// Instruction "shape" as classified by Table V of the paper.
enum class TaintClass : u8 {
  kNone,       // no taint effect modelled (branches, nop, svc handled apart)
  kBinaryOp3,  // binary-op Rd, Rn, Rm  (or Rd, Rn, #imm)
  kBinaryOp2,  // binary-op Rd, Rm      (Rd = Rd op Rm, Thumb ALU form)
  kUnary,      // unary Rd, Rm
  kMovImm,     // mov Rd, #imm          -> clears t(Rd)
  kMovReg,     // mov Rd, Rm
  kLoad,       // LDR* Rd, [Rn, ...]
  kStore,      // STR* Rd, [Rn, ...]
  kLdm,        // LDM / POP
  kStm,        // STM / PUSH
};

/// STR* and STM/PUSH: the instructions Cpu::set_store_hook observes.
[[nodiscard]] inline bool is_store_class(TaintClass c) {
  return c == TaintClass::kStore || c == TaintClass::kStm;
}

struct Insn {
  Op op = Op::kUndefined;
  Cond cond = Cond::kAL;

  u8 rd = 0;  // destination (Rt for loads/stores, RdLo for long multiply)
  u8 rn = 0;  // first operand / base register (RdHi for long multiply)
  u8 rm = 0;  // second operand register
  u8 rs = 0;  // shift-amount register / multiply accumulator

  u32 imm = 0;          // immediate operand / offset / SVC number
  bool imm_operand = false;  // operand 2 is `imm`, not Rm

  ShiftType shift = ShiftType::kLSL;
  u8 shift_amount = 0;
  bool shift_by_reg = false;

  bool set_flags = false;

  // Load/store addressing.
  bool pre_index = true;
  bool add_offset = true;
  bool writeback = false;
  bool reg_offset = false;  // offset is Rm (shifted) instead of imm

  // LDM/STM.
  u16 reglist = 0;
  bool base_increment = true;  // U bit
  bool before = false;         // P bit

  // Branches.
  i32 branch_offset = 0;
  bool link = false;

  u32 raw = 0;
  u8 length = 4;  // 2 for 16-bit Thumb

  /// Three-operand accumulate forms (MLA) read `rs` as well.
  [[nodiscard]] TaintClass taint_class() const;
};

[[nodiscard]] std::string to_string(Op op);
[[nodiscard]] std::string to_string(Cond cond);
[[nodiscard]] std::string disassemble(const Insn& insn, GuestAddr pc);

}  // namespace ndroid::arm
