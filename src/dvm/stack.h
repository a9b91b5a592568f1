// The TaintDroid-modified interpreted stack (paper Fig. 1).
//
// Frames live in a guest region so NDroid can read and write taints through
// guest memory — in Fig. 9 NDroid "adds taint to new method frame slot at
// address 0x44bf8c14". Layout per frame, growing downward:
//
//     [ StackSaveArea: prev_fp, method guest ptr ]   (caller bookkeeping)
//     [ v0 value ][ v0 taint ]                        <- fp points here
//     [ v1 value ][ v1 taint ]
//     ...
//
// Register vN's value is at fp + 8*N, its taint tag at fp + 8*N + 4 — the
// "taint labels interleaved with variables" storage of TaintDroid. The
// caller's outs area for native calls (interleaved args + appended return
// taint slot) is allocated here too.
#pragma once

#include "mem/address_space.h"

namespace ndroid::dvm {

struct Method;

class DvmStack {
 public:
  static constexpr u32 kSaveAreaSize = 16;  // prev_fp, method ptr, prev_sp

  DvmStack(mem::AddressSpace& memory, GuestAddr base, u32 size)
      : memory_(memory), bottom_(base), top_(base + size), sp_(base + size) {}

  /// Pushes a frame for `method`; returns the frame pointer (address of v0).
  GuestAddr push_frame(const Method& method);
  void pop_frame();

  /// Allocates a native-call outs area: n interleaved (value, taint) pairs
  /// plus one appended return-taint slot (paper §II-B: "the return value's
  /// taint label that is appended to the parameters").
  GuestAddr push_outs(u32 arg_count);
  void pop_outs(u32 arg_count);

  [[nodiscard]] GuestAddr current_fp() const { return fp_; }

  /// The stack pointers, to drop with unwind_to() whatever a faulting call
  /// left pushed.
  struct Mark {
    GuestAddr sp;
    GuestAddr fp;
  };
  [[nodiscard]] Mark mark() const { return {sp_, fp_}; }
  void unwind_to(Mark m) {
    sp_ = m.sp;
    fp_ = m.fp;
  }

  // Register slot accessors relative to an explicit frame pointer.
  [[nodiscard]] u32 reg_value(GuestAddr fp, u16 reg) const {
    return memory_.read32(fp + 8u * reg);
  }
  [[nodiscard]] Taint reg_taint(GuestAddr fp, u16 reg) const {
    return memory_.read32(fp + 8u * reg + 4);
  }
  void set_reg(GuestAddr fp, u16 reg, u32 value, Taint taint) {
    memory_.write32(fp + 8u * reg, value);
    memory_.write32(fp + 8u * reg + 4, taint);
  }
  void set_reg_value(GuestAddr fp, u16 reg, u32 value) {
    memory_.write32(fp + 8u * reg, value);
  }
  void set_reg_taint(GuestAddr fp, u16 reg, Taint taint) {
    memory_.write32(fp + 8u * reg + 4, taint);
  }

  [[nodiscard]] u32 bytes_in_use() const { return top_ - sp_; }

 private:
  mem::AddressSpace& memory_;
  GuestAddr bottom_;
  GuestAddr top_;
  GuestAddr sp_;   // grows down
  GuestAddr fp_ = 0;
};

}  // namespace ndroid::dvm
