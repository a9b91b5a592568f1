// Architectural state of the emulated ARM core.
//
// The paper's SourcePolicy handler receives a `CPUState*` (Listing 1);
// this struct is that type. Register indices follow the AAPCS: R0-R3 carry
// the first four arguments and the return value lives in R0 (paper §V-B).
#pragma once

#include <array>

#include "common/types.h"

namespace ndroid::arm {

inline constexpr u8 kRegSP = 13;
inline constexpr u8 kRegLR = 14;
inline constexpr u8 kRegPC = 15;

struct CPUState {
  std::array<u32, 16> regs{};

  // CPSR condition flags.
  bool n = false;
  bool z = false;
  bool c = false;
  bool v = false;

  // Execution state: true when executing Thumb instructions (CPSR.T).
  bool thumb = false;

  // Thumb ITSTATE byte (CPSR.IT): zero outside an IT block; otherwise the
  // top four bits hold the condition for the next instruction and the low
  // bits the remaining-length mask (advanced after each instruction).
  u8 itstate = 0;

  [[nodiscard]] u32 sp() const { return regs[kRegSP]; }
  [[nodiscard]] u32 lr() const { return regs[kRegLR]; }
  [[nodiscard]] u32 pc() const { return regs[kRegPC]; }
  void set_sp(u32 v_) { regs[kRegSP] = v_; }
  void set_lr(u32 v_) { regs[kRegLR] = v_; }
  void set_pc(u32 v_) { regs[kRegPC] = v_; }
};

}  // namespace ndroid::arm
