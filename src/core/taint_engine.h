// NDroid's Taint Engine (paper §V-E).
//
// "NDroid maintains shadow registers to store the related registers' taints
// and a taint map to store the memories' taints. The taint granularity of
// NDroid is byte. The general propagation logic behind NDroid follows the
// 'or' operation."
//
// The engine also keeps the indirect-reference-keyed shadow for Java objects
// held from native code (§V-B): "the shadow memory uses the indirect
// reference as key to locate the taint information", because the moving GC
// invalidates direct pointers.
#pragma once

#include <array>
#include <unordered_map>

#include "common/types.h"
#include "mem/shadow_memory.h"

namespace ndroid::core {

class TaintEngine {
 public:
  TaintEngine() {
    map_.set_liveness_epoch_slot(&liveness_epoch_, &branch_epoch_);
    map_.set_mutation_epoch_slot(&mutation_epoch_);
  }
  // The shadow map holds a pointer back into this object.
  TaintEngine(const TaintEngine&) = delete;
  TaintEngine& operator=(const TaintEngine&) = delete;

  // --- Shadow registers ---------------------------------------------------
  [[nodiscard]] Taint reg(u8 index) const { return regs_[index]; }
  void set_reg(u8 index, Taint t) {
    const bool was = tainted_regs_ != 0;
    tainted_regs_ += (t != kTaintClear) - (regs_[index] != kTaintClear);
    regs_[index] = t;
    const u16 bit = static_cast<u16>(1u << index);
    const u16 mask = static_cast<u16>(
        t != kTaintClear ? tainted_reg_mask_ | bit : tainted_reg_mask_ & ~bit);
    mutation_epoch_ += mask != tainted_reg_mask_;
    tainted_reg_mask_ = mask;
    const bool flip = (tainted_regs_ != 0) != was;
    liveness_epoch_ += flip;
    branch_epoch_ += flip;
  }
  void add_reg(u8 index, Taint t) {
    if (t == kTaintClear) return;
    const bool flip = tainted_regs_ == 0 && regs_[index] == kTaintClear;
    liveness_epoch_ += flip;
    branch_epoch_ += flip;
    tainted_regs_ += (regs_[index] == kTaintClear);
    regs_[index] |= t;
    const u16 bit = static_cast<u16>(1u << index);
    mutation_epoch_ += (tainted_reg_mask_ & bit) == 0;
    tainted_reg_mask_ |= bit;
  }
  void clear_regs() {
    liveness_epoch_ += tainted_regs_ != 0;
    branch_epoch_ += tainted_regs_ != 0;
    mutation_epoch_ += tainted_reg_mask_ != 0;
    regs_.fill(kTaintClear);
    tainted_regs_ = 0;
    tainted_reg_mask_ = 0;
  }

  // --- Taint liveness (the translation-block fast path reads these once
  // per block to decide whether the instruction tracer can be skipped) -----
  [[nodiscard]] u32 tainted_regs() const { return tainted_regs_; }
  /// Bit r set iff register r currently carries a non-clear label. The
  /// summary gate intersects this against TaintSummary::touched_regs.
  [[nodiscard]] u16 tainted_reg_mask() const { return tainted_reg_mask_; }
  [[nodiscard]] bool has_live_taint() const {
    return tainted_regs_ != 0 || map_.tainted_bytes() != 0;
  }

  /// Counter bumped whenever register or memory taint liveness crosses zero
  /// — every input of NDroid's block gate that can change at runtime.
  /// Handed to arm::Cpu::set_block_gate so per-block gate answers are
  /// memoised until liveness actually changes.
  [[nodiscard]] const u64* liveness_epoch() const { return &liveness_epoch_; }

  /// Counter bumped whenever the tainted-register *mask* changes or any
  /// shadow page's live count crosses zero — every event that can flip a
  /// summary-gate answer. Strictly more frequent than the liveness epoch;
  /// handed to arm::Cpu::set_block_gate when static summaries are attached.
  [[nodiscard]] const u64* mutation_epoch() const { return &mutation_epoch_; }

  /// Branch-gate memo epoch: bumped with the liveness epoch (the syslib
  /// engine answers wants_branch() for Table VI models only while taint is
  /// live) and by bump_branch_epoch(), which NDroid calls whenever a hook
  /// body ran or a fault dropped per-call state. Separate from the liveness
  /// epoch so hook bodies never void the block-gate memos.
  [[nodiscard]] const u64* branch_epoch() const { return &branch_epoch_; }
  void bump_branch_epoch() { ++branch_epoch_; }

  // --- Taint map (guest memory shadows) ------------------------------------
  mem::ShadowMemory& map() { return map_; }
  [[nodiscard]] const mem::ShadowMemory& map() const { return map_; }

  // --- Java-object shadow keyed by indirect reference ----------------------
  [[nodiscard]] Taint object_shadow(u32 iref) const {
    auto it = object_shadow_.find(iref);
    return it == object_shadow_.end() ? kTaintClear : it->second;
  }
  void add_object_shadow(u32 iref, Taint t) {
    if (t != kTaintClear) object_shadow_[iref] |= t;
  }
  /// Forgets a handle that died: its slot will be reissued, possibly with
  /// the same serial, for another object.
  void drop_object_shadow(u32 iref) {
    if (!object_shadow_.empty()) object_shadow_.erase(iref);
  }
  void clear_object_shadow() { object_shadow_.clear(); }

  void clear_all() {
    clear_regs();
    map_.clear_all();
    object_shadow_.clear();
  }

  // --- Statistics -----------------------------------------------------------
  u64 propagations = 0;  // taint-rule applications by the instruction tracer

 private:
  std::array<Taint, 16> regs_{};
  u32 tainted_regs_ = 0;
  u16 tainted_reg_mask_ = 0;
  u64 liveness_epoch_ = 0;
  u64 mutation_epoch_ = 0;
  u64 branch_epoch_ = 0;
  mem::ShadowMemory map_;
  std::unordered_map<u32, Taint> object_shadow_;
};

}  // namespace ndroid::core
