#include "core/taint_guard.h"

#include "arm/executor.h"

namespace ndroid::core {

TaintGuard::TaintGuard(android::Device& device, GuestAddr code_start,
                       GuestAddr code_end)
    : device_(device), code_start_(code_start), code_end_(code_end) {
  using android::Layout;
  protected_.push_back({Layout::kDalvikStack,
                        Layout::kDalvikStack + Layout::kDalvikStackSize,
                        "[dalvik-stack]"});
  protected_.push_back(
      {Layout::kLibdvm, Layout::kLibdvm + Layout::kLibdvmSize, "libdvm.so"});
  protected_.push_back({os::Kernel::kKernelBase,
                        os::Kernel::kKernelBase + os::Kernel::kKernelSize,
                        "[kernel]"});
}

void TaintGuard::check(arm::Cpu& cpu, GuestAddr pc, GuestAddr target) {
  for (const Protected& p : protected_) {
    if (target >= p.start && target < p.end) {
      alerts_.push_back(TamperAlert{pc, target, p.name,
                                    cpu.memmap().module_of(pc)});
      return;
    }
  }
}

void TaintGuard::on_store(arm::Cpu& cpu, const arm::Insn& insn,
                          GuestAddr pc) {
  const arm::CPUState& state = cpu.state();
  const arm::Cond cond = arm::effective_cond(insn, state);
  if (cond != arm::Cond::kAL && !arm::condition_passed(cond, state)) return;
  if (insn.op == arm::Op::kStm) {
    const arm::BlockTransfer bt = arm::block_transfer(insn, state);
    for (u32 i = 0; i < bt.count; ++i) check(cpu, pc, bt.start + 4 * i);
  } else {
    check(cpu, pc, arm::mem_effective_address(insn, state, pc));
  }
}

}  // namespace ndroid::core
