// CPU instrumentation surface: instruction hooks, branch hooks, helpers,
// SVC dispatch — the exact points NDroid's engines attach to.
#include <gtest/gtest.h>

#include <stdexcept>

#include "arm/assembler.h"
#include "arm/cpu.h"

namespace ndroid::arm {
namespace {

class CpuFixture : public ::testing::Test {
 protected:
  static constexpr GuestAddr kCode = 0x10000;
  static constexpr GuestAddr kHelper = 0xF0000000;

  CpuFixture() : cpu_(mem_, map_) {
    map_.add("code", kCode, 0x4000, mem::kRX);
    map_.add("[stack]", 0x70000, 0x10000, mem::kRW);
    cpu_.set_initial_sp(0x80000);
  }

  u32 run(Assembler& a, const std::vector<u32>& args = {}) {
    const auto code = a.finish();
    mem_.write_bytes(kCode, code);
    return cpu_.call_function(kCode, args);
  }

  mem::AddressSpace mem_;
  mem::MemoryMap map_;
  Cpu cpu_;
};

TEST_F(CpuFixture, InsnHookSeesEveryInstruction) {
  std::vector<Op> seen;
  cpu_.add_insn_hook([&](Cpu&, const Insn& insn, GuestAddr) {
    seen.push_back(insn.op);
  });
  Assembler a(kCode);
  a.mov_imm(R(0), 1);
  a.add_imm(R(0), R(0), 2);
  a.ret();
  run(a);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], Op::kMov);
  EXPECT_EQ(seen[1], Op::kAdd);
  EXPECT_EQ(seen[2], Op::kBx);
}

TEST_F(CpuFixture, RemoveInsnHookStopsDelivery) {
  int count = 0;
  const int id = cpu_.add_insn_hook([&](Cpu&, const Insn&, GuestAddr) {
    ++count;
  });
  Assembler a(kCode);
  a.ret();
  run(a);
  EXPECT_EQ(count, 1);
  cpu_.remove_insn_hook(id);
  Assembler b(kCode);
  b.ret();
  run(b);
  EXPECT_EQ(count, 1);
}

TEST_F(CpuFixture, BranchHookReportsFromTo) {
  std::vector<std::pair<GuestAddr, GuestAddr>> branches;
  cpu_.add_branch_hook([&](Cpu&, GuestAddr from, GuestAddr to) {
    branches.emplace_back(from, to);
  });
  Assembler a(kCode);
  Label helper;
  a.push({LR});          // kCode
  a.bl(helper);          // kCode+4
  a.pop({PC});           // kCode+8
  a.bind(helper);        // kCode+12
  a.mov_imm(R(0), 7);    // kCode+12
  a.ret();               // kCode+16 -> back to kCode+8
  run(a);
  // Expected: call_function entry event, bl -> helper, bx lr -> kCode+8,
  // pop pc -> host return.
  ASSERT_EQ(branches.size(), 4u);
  EXPECT_EQ(branches[0].second, kCode);
  EXPECT_EQ(branches[1].first, kCode + 4);
  EXPECT_EQ(branches[1].second, kCode + 12);
  EXPECT_EQ(branches[2].first, kCode + 16);
  EXPECT_EQ(branches[2].second, kCode + 8);
  EXPECT_EQ(branches[3].second, kHostReturnAddr);
}

TEST_F(CpuFixture, ConditionalBranchNotTakenIsNotAnEvent) {
  int events = 0;
  cpu_.add_branch_hook([&](Cpu&, GuestAddr, GuestAddr) { ++events; });
  Assembler a(kCode);
  Label skip;
  a.cmp_imm(R(0), 0);
  a.b(skip, Cond::kEQ);  // r0 == 5 -> not taken
  a.mov_imm(R(0), 1);
  a.bind(skip);
  a.ret();
  run(a, {5});
  EXPECT_EQ(events, 2);  // the call_function entry event + the final bx lr
}

TEST_F(CpuFixture, HelperRunsAndReturnsToLr) {
  bool ran = false;
  cpu_.register_helper(kHelper, [&](Cpu& cpu) {
    ran = true;
    cpu.state().regs[0] = cpu.state().regs[0] * 2;
  });
  Assembler a(kCode);
  a.push({LR});
  a.call(kHelper);
  a.add_imm(R(0), R(0), 1);
  a.pop({PC});
  EXPECT_EQ(run(a, {20}), 41u);
  EXPECT_TRUE(ran);
}

TEST_F(CpuFixture, HelperEntryAndExitAreBranchEvents) {
  std::vector<std::pair<GuestAddr, GuestAddr>> branches;
  cpu_.add_branch_hook([&](Cpu&, GuestAddr from, GuestAddr to) {
    branches.emplace_back(from, to);
  });
  cpu_.register_helper(kHelper, [](Cpu&) {});
  Assembler a(kCode);
  a.push({LR});
  a.call(kHelper);  // 0xF0000000 is rotation-encodable: mov ip + blx at +4,+8
  a.pop({PC});
  run(a);
  ASSERT_GE(branches.size(), 4u);
  // branches[0] is the call_function entry event; blx at kCode+8 -> helper
  EXPECT_EQ(branches[1].first, kCode + 8);
  EXPECT_EQ(branches[1].second, kHelper);
  // helper returns to kCode+12
  EXPECT_EQ(branches[2].first, kHelper);
  EXPECT_EQ(branches[2].second, kCode + 12);
}

TEST_F(CpuFixture, HelperMayCallGuestFunction) {
  // Guest function at kCode+0x100 doubles its argument; the helper calls it
  // re-entrantly (this is what the dvmInterpret helper does when Java code
  // invokes another native method).
  Assembler inner(kCode + 0x100);
  inner.add(R(0), R(0), R(0));
  inner.ret();
  const auto inner_code = inner.finish();
  mem_.write_bytes(kCode + 0x100, inner_code);

  cpu_.register_helper(kHelper, [&](Cpu& cpu) {
    const u32 doubled = cpu.call_function(kCode + 0x100, {21});
    cpu.state().regs[0] = doubled;
  });

  Assembler a(kCode);
  a.push({LR});
  a.call(kHelper);
  a.pop({PC});
  EXPECT_EQ(run(a), 42u);
}

TEST_F(CpuFixture, UnregisteredHelperSlotsFallThrough) {
  // Slots 0 and 2 of the helper window hold helpers; slot 1 (a gap) and
  // slot 3 (past the last) hold none. An unregistered slot is ordinary
  // guest memory: the window is unmapped and reads as zero words, which
  // decode as ANDEQ r0, r0, r0.
  int first = 0, third = 0;
  cpu_.register_helper(kHelper, [&](Cpu&) { ++first; });
  cpu_.register_helper(kHelper + 8, [&](Cpu& cpu) {
    ++third;
    cpu.state().regs[0] = 77;
  });

  // A jump into the gap slides over one zero word onto slot 2's helper.
  Assembler gap(kCode);
  gap.push({LR});
  gap.call(kHelper + 4);
  gap.pop({PC});
  EXPECT_EQ(run(gap), 77u);
  EXPECT_EQ(first, 0);
  EXPECT_EQ(third, 1);
  // push, mov ip, blx, the zero word, the helper, pop.
  EXPECT_EQ(cpu_.instructions_retired(), 6u);

  // Past the last slot the zero words run on until the step budget ends
  // the call.
  cpu_.set_step_budget(1'000);
  Assembler past(kCode);
  past.push({LR});
  past.call(kHelper + 12);
  past.pop({PC});
  EXPECT_THROW(run(past), GuestFault);
  EXPECT_EQ(third, 1);
}

TEST_F(CpuFixture, HelperWindowRegistrationIsChecked) {
  // Window slots are words; a helper runs in place, so it may not make the
  // window reallocate under itself.
  EXPECT_THROW(cpu_.register_helper(kHelper + 2, [](Cpu&) {}),
               std::invalid_argument);
  cpu_.register_helper(kHelper, [](Cpu& cpu) {
    cpu.register_helper(kHelper + 4 * 4096, [](Cpu&) {});
  });
  Assembler a(kCode);
  a.push({LR});
  a.call(kHelper);
  a.pop({PC});
  EXPECT_THROW(run(a), std::logic_error);
}

TEST_F(CpuFixture, SvcDispatchesToHandler) {
  u32 seen_number = 0;
  u32 seen_r7 = 0;
  cpu_.set_svc_handler([&](Cpu& cpu, u32 number) {
    seen_number = number;
    seen_r7 = cpu.state().regs[7];
    cpu.state().regs[0] = 123;
  });
  Assembler a(kCode);
  a.mov_imm(R(7), 4);  // Linux-style syscall number in r7
  a.svc(0);
  a.ret();
  EXPECT_EQ(run(a), 123u);
  EXPECT_EQ(seen_number, 0u);
  EXPECT_EQ(seen_r7, 4u);
}

TEST_F(CpuFixture, SvcWithoutHandlerFaults) {
  Assembler a(kCode);
  a.svc(1);
  a.ret();
  const auto code = a.finish();
  mem_.write_bytes(kCode, code);
  EXPECT_THROW(cpu_.call_function(kCode), GuestFault);
}

TEST_F(CpuFixture, CallFunctionRestoresState) {
  Assembler a(kCode);
  a.mov_imm(R(4), 0x55);   // clobber a callee-saved register, on purpose
  a.mov_imm(R(0), 1);
  a.ret();
  const auto code = a.finish();
  mem_.write_bytes(kCode, code);
  cpu_.state().regs[4] = 0xAA;
  cpu_.call_function(kCode);
  EXPECT_EQ(cpu_.state().regs[4], 0xAAu);
}

TEST_F(CpuFixture, RunawayGuestCallThrows) {
  cpu_.set_step_budget(10'000);
  Assembler a(kCode);
  Label self;
  a.bind(self);
  a.b(self);  // infinite loop
  const auto code = a.finish();
  mem_.write_bytes(kCode, code);
  EXPECT_THROW(cpu_.call_function(kCode), GuestFault);
}

}  // namespace
}  // namespace ndroid::arm
