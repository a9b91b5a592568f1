// Taint protection (paper §VII, implemented extension).
//
// "We will realize a protection mechanism for taints before applying NDroid
// to analyze advanced malicious apps because they may modify or remove the
// taints. For example, an app without root privileges can manipulate the
// taints in DVM. ... NDroid can be easily extended to protect taints and
// prevent evasions through stack manipulation or trusted function
// modification, because it monitors the memory, hooks major file and memory
// functions, and inspects every native instruction."
//
// The guard watches every store executed by third-party native code (as
// the CPU's store hook, so checking costs no traced block) and flags writes
// into protected guest regions:
//   * the DVM stack (where TaintDroid keeps the interleaved taint tags —
//     overwriting a tag slot silently launders a taint);
//   * libdvm.so (trusted-function modification);
//   * the kernel structure area (VMI tampering).
#pragma once

#include <string>
#include <vector>

#include "android/device.h"
#include "arm/cpu.h"

namespace ndroid::core {

struct TamperAlert {
  GuestAddr pc = 0;        // the offending store instruction
  GuestAddr target = 0;    // where it wrote
  std::string region;      // protected region name
  std::string module;      // module the store executed from
};

class TaintGuard {
 public:
  /// Checks stores executed from [code_start, code_end), the app's native
  /// libraries; stores from system code (libdvm itself, libc) are
  /// legitimate.
  TaintGuard(android::Device& device, GuestAddr code_start,
             GuestAddr code_end);

  /// Checks one store-class instruction about to execute from the guarded
  /// code range (a conditional one only when its condition passes). The
  /// caller tests the range: the Cpu calls the store hook below only for
  /// stores whose pc lies in it.
  void on_store(arm::Cpu& cpu, const arm::Insn& insn, GuestAddr pc);

  /// on_store as a Cpu store hook over [code_start, code_end) (NDroid
  /// installs it).
  [[nodiscard]] arm::StoreHook store_hook() {
    return {[](void* self, arm::Cpu& cpu, const arm::Insn& insn,
               GuestAddr pc) {
              static_cast<TaintGuard*>(self)->on_store(cpu, insn, pc);
            },
            this, code_start_, code_end_};
  }

  [[nodiscard]] const std::vector<TamperAlert>& alerts() const {
    return alerts_;
  }
  void clear() { alerts_.clear(); }

 private:
  struct Protected {
    GuestAddr start;
    GuestAddr end;
    std::string name;
  };

  void check(arm::Cpu& cpu, GuestAddr pc, GuestAddr target);

  android::Device& device_;
  GuestAddr code_start_;
  GuestAddr code_end_;
  std::vector<Protected> protected_;
  std::vector<TamperAlert> alerts_;
};

}  // namespace ndroid::core
