// Jump-table lowering: the VSA resolution that turns Thumb-2 TBB/TBH,
// literal-pool word tables and BLX-through-register sites into real CFG
// edges, cross-checked instruction-for-instruction against the executor —
// the successor-parity mirror of test_it_blocks.cc. Every dynamic branch
// edge out of a resolved dispatch block must be one of the static
// successors, on both execution engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "arm/assembler.h"
#include "arm/cpu.h"
#include "arm/thumb_assembler.h"
#include "static/cfg.h"
#include "static/scan_report.h"
#include "static/summary.h"

namespace ndroid {
namespace {

namespace sa = static_analysis;
using arm::Assembler;
using arm::Cond;
using arm::Label;
using arm::LR;
using arm::PC;
using arm::R;
using arm::ThumbAssembler;
using arm::ThumbLabel;

class JumpTableFixture : public ::testing::TestWithParam<bool> {
 protected:
  static constexpr GuestAddr kCode = 0x10000;
  static constexpr u32 kCodeSize = 0x4000;

  JumpTableFixture() : cpu_(mem_, map_) {
    map_.add("code", kCode, kCodeSize, mem::kRX);
    map_.add("[stack]", 0x70000, 0x10000, mem::kRW);
    cpu_.set_initial_sp(0x80000);
    cpu_.set_engine(GetParam() ? arm::Engine::kThreaded : arm::Engine::kInterp);
  }

  sa::Program lift(const std::vector<u8>& image,
                   std::vector<sa::FunctionEntry> entries) {
    mem_.write_bytes(kCode, image);
    const sa::CfgLifter lifter(mem_, {{kCode, kCode + kCodeSize, "code"}});
    return lifter.lift(entries);
  }

  /// Calls `entry(arg)` for each arg while recording branch edges, then
  /// checks every edge leaving `dispatch` lands on one of its static
  /// successors.
  void check_parity(const sa::FunctionCfg& fn, const sa::BasicBlock& dispatch,
                    GuestAddr entry, const std::vector<u32>& args,
                    const std::vector<u32>& expected) {
    std::vector<std::pair<GuestAddr, GuestAddr>> edges;
    const int id = cpu_.add_branch_hook(
        [&edges](arm::Cpu&, GuestAddr from, GuestAddr to) {
          edges.emplace_back(from, to);
        });
    for (std::size_t i = 0; i < args.size(); ++i) {
      EXPECT_EQ(cpu_.call_function(entry, {args[i]}), expected[i])
          << "arg=" << args[i];
    }
    cpu_.remove_branch_hook(id);

    bool saw_dispatch = false;
    for (const auto& [from, to] : edges) {
      const sa::BasicBlock* bb = fn.block_at(from);
      if (bb != &dispatch) continue;
      saw_dispatch = true;
      const GuestAddr t = to & ~1u;
      EXPECT_TRUE(std::find(bb->succs.begin(), bb->succs.end(), t) !=
                  bb->succs.end())
          << "dynamic edge 0x" << std::hex << from << " -> 0x" << to
          << " missing from resolved successors";
    }
    EXPECT_TRUE(saw_dispatch) << "no dynamic edge left the dispatch block";
  }

  mem::AddressSpace mem_;
  mem::MemoryMap map_;
  arm::Cpu cpu_;
};

/// The fully-resolved acceptance shape: no degradation anywhere, exactly
/// one resolved indirect branch, nothing unresolved.
void expect_fully_resolved(const sa::FunctionCfg& fn) {
  EXPECT_FALSE(fn.truncated);
  EXPECT_FALSE(fn.has_indirect_jumps);
  EXPECT_EQ(fn.resolved_indirect_branches, 1u);
  EXPECT_EQ(fn.unresolved_indirect_branches, 0u);
  EXPECT_TRUE(fn.degrade_sites.empty())
      << "first: " << sa::to_string(fn.degrade_sites.front().reason);
}

TEST_P(JumpTableFixture, ThumbTbbResolvesAndMatchesExecutor) {
  // switch (r0) { 0: 11; 1: 22; 2: 33; default: 99 } via TBB [pc, r0].
  ThumbAssembler a(kCode);
  ThumbLabel dflt;
  a.cmp_imm(R(0), 2);
  a.b(dflt, Cond::kHI);
  const GuestAddr tbb_pc = a.here();
  a.tbb(PC, R(0));
  const GuestAddr base = tbb_pc + 4;
  const GuestAddr case0 = base + 4;  // 3 entries + 1 pad byte
  for (u32 i = 0; i < 3; ++i) {
    a.byte(static_cast<u8>((case0 + 4 * i - base) / 2));
  }
  a.align(2);
  ASSERT_EQ(a.here(), case0);
  for (const u8 marker : {11, 22, 33}) {
    a.movs_imm(R(0), marker);  // 2 bytes
    a.bx(LR);                  // 2 bytes
  }
  a.bind(dflt);
  a.movs_imm(R(0), 99);
  a.bx(LR);

  const sa::Program prog = lift(a.finish(), {{kCode | 1u, "tbb_fn"}});
  const sa::FunctionCfg* fn = prog.function(kCode);
  ASSERT_NE(fn, nullptr);
  expect_fully_resolved(*fn);

  const sa::BasicBlock* dispatch = fn->block_at(tbb_pc);
  ASSERT_NE(dispatch, nullptr);
  EXPECT_FALSE(dispatch->has_indirect_jump);
  EXPECT_EQ(dispatch->jump_table.kind, sa::JumpTableKind::kTbb);
  EXPECT_EQ(dispatch->jump_table.entries, 3u);
  EXPECT_TRUE(dispatch->jump_table.image_rel);
  ASSERT_EQ(dispatch->succs.size(), 3u);
  for (u32 i = 0; i < 3; ++i) {
    EXPECT_TRUE(std::find(dispatch->succs.begin(), dispatch->succs.end(),
                          case0 + 4 * i) != dispatch->succs.end());
  }

  check_parity(*fn, *dispatch, kCode | 1u, {0, 1, 2, 3, 200},
               {11, 22, 33, 99, 99});
}

TEST_P(JumpTableFixture, ThumbTbhResolvesAndMatchesExecutor) {
  // Same dispatch through halfword entries: TBH [pc, r0, lsl #1].
  ThumbAssembler a(kCode);
  ThumbLabel dflt;
  a.cmp_imm(R(0), 2);
  a.b(dflt, Cond::kHI);
  const GuestAddr tbh_pc = a.here();
  a.tbh(PC, R(0));
  const GuestAddr base = tbh_pc + 4;
  const GuestAddr case0 = base + 6;  // 3 halfword entries
  for (u32 i = 0; i < 3; ++i) {
    a.hword(static_cast<u16>((case0 + 4 * i - base) / 2));
  }
  ASSERT_EQ(a.here(), case0);
  for (const u8 marker : {11, 22, 33}) {
    a.movs_imm(R(0), marker);
    a.bx(LR);
  }
  a.bind(dflt);
  a.movs_imm(R(0), 99);
  a.bx(LR);

  const sa::Program prog = lift(a.finish(), {{kCode | 1u, "tbh_fn"}});
  const sa::FunctionCfg* fn = prog.function(kCode);
  ASSERT_NE(fn, nullptr);
  expect_fully_resolved(*fn);

  const sa::BasicBlock* dispatch = fn->block_at(tbh_pc);
  ASSERT_NE(dispatch, nullptr);
  EXPECT_EQ(dispatch->jump_table.kind, sa::JumpTableKind::kTbh);
  EXPECT_EQ(dispatch->jump_table.entries, 3u);
  ASSERT_EQ(dispatch->succs.size(), 3u);

  check_parity(*fn, *dispatch, kCode | 1u, {0, 1, 2, 7}, {11, 22, 33, 99});
}

TEST_P(JumpTableFixture, ArmWordTableResolvesAndMatchesExecutor) {
  // The classic ARM dispatch: bounds check, then LDR pc through a word
  // table of absolute case addresses.
  const GuestAddr table = kCode + 0x200;
  Assembler a(kCode);
  Label dflt;
  const GuestAddr entry = a.here();
  a.cmp_imm(R(0), 2);
  a.b(dflt, Cond::kHI);
  const GuestAddr ldr_pc = a.here() + 8;  // after movw/movt pair
  a.mov_imm32(R(3), table);
  a.lsl(R(1), R(0), 2);
  ASSERT_EQ(a.here(), ldr_pc + 4);
  a.ldr_reg(PC, R(3), R(1));
  std::vector<GuestAddr> cases;
  for (const u8 marker : {11, 22, 33}) {
    cases.push_back(a.here());
    a.mov_imm(R(0), marker);
    a.ret();
  }
  a.bind(dflt);
  a.mov_imm(R(0), 99);
  a.ret();
  while (a.here() < table) a.word(0);
  for (const GuestAddr c : cases) a.word(c);

  const sa::Program prog = lift(a.finish(), {{entry, "word_table"}});
  const sa::FunctionCfg* fn = prog.function(entry);
  ASSERT_NE(fn, nullptr);
  expect_fully_resolved(*fn);

  const sa::BasicBlock* dispatch = fn->block_at(ldr_pc + 4);
  ASSERT_NE(dispatch, nullptr);
  EXPECT_FALSE(dispatch->has_indirect_jump);
  EXPECT_EQ(dispatch->jump_table.kind, sa::JumpTableKind::kWordTable);
  EXPECT_EQ(dispatch->jump_table.table, table);
  EXPECT_EQ(dispatch->jump_table.entries, 3u);
  EXPECT_FALSE(dispatch->jump_table.image_rel)
      << "MOVW/MOVT table base is absolute, must not claim to survive rebase";
  ASSERT_EQ(dispatch->succs.size(), 3u);
  for (const GuestAddr c : cases) {
    EXPECT_TRUE(std::find(dispatch->succs.begin(), dispatch->succs.end(),
                          c) != dispatch->succs.end());
  }

  check_parity(*fn, *dispatch, entry, {0, 1, 2, 3}, {11, 22, 33, 99});
}

TEST_P(JumpTableFixture, BlxThroughRegisterBecomesCallEdge) {
  // BLX through a materialised constant: a real call edge with the callee
  // transitively lifted, not an opaque has_indirect_call fallback.
  Assembler a(kCode);
  const GuestAddr helper = a.here();
  a.add_imm(R(0), R(0), 7);
  a.ret();
  const GuestAddr entry = a.here();
  a.push({R(4), LR});
  a.mov_imm32(R(2), helper);
  a.blx(R(2));
  a.pop({R(4), arm::PC});

  const sa::Program prog = lift(a.finish(), {{entry, "blx_const"}});
  const sa::FunctionCfg* fn = prog.function(entry);
  ASSERT_NE(fn, nullptr);
  EXPECT_FALSE(fn->has_indirect_calls);
  EXPECT_EQ(fn->resolved_indirect_calls, 1u);
  EXPECT_EQ(fn->unresolved_indirect_calls, 0u);
  ASSERT_EQ(fn->callees.size(), 1u);
  EXPECT_EQ(fn->callees[0] & ~1u, helper);
  // The callee was pulled into the transitive closure.
  EXPECT_NE(prog.function(helper), nullptr);
  // Absolute target: the call edge must not claim to survive a rebase.
  bool saw_site = false;
  for (const auto& [start, bb] : fn->blocks) {
    for (std::size_t i = 0; i < bb.call_targets.size(); ++i) {
      if ((bb.call_targets[i] & ~1u) != helper) continue;
      saw_site = true;
      ASSERT_LT(i, bb.call_target_relocatable.size());
      EXPECT_EQ(bb.call_target_relocatable[i], 0u);
    }
  }
  EXPECT_TRUE(saw_site);

  EXPECT_EQ(cpu_.call_function(entry, {5}), 12u);
}

INSTANTIATE_TEST_SUITE_P(Engines, JumpTableFixture,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Threaded" : "Interpretive";
                         });

}  // namespace
}  // namespace ndroid
