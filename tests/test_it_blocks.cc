// Thumb IT-block semantics: decode, ITSTATE advance, flag suppression, and
// — the regression this file exists for — a conditional branch *inside* an
// IT block, where the unconditional branch encoding executes conditionally.
// Every behavioural case runs on both the interpreter and the threaded
// tier and must agree bit for bit; the static CFG lifter's
// successor semantics for IT'd branches are cross-checked in
// test_static_cfg.cc against the same executor.
#include <gtest/gtest.h>

#include <array>

#include "arm/cpu.h"
#include "arm/decoder.h"
#include "arm/thumb_assembler.h"

namespace ndroid::arm {
namespace {

TEST(ItDecode, ItEncodings) {
  // IT EQ -> firstcond=0000, mask=1000.
  Insn insn = decode_thumb(0xBF08, 0);
  EXPECT_EQ(insn.op, Op::kIt);
  EXPECT_EQ(insn.imm, 0x08u);

  // ITTE NE -> firstcond=0001, suffix bits T=1,E=0, terminator -> 1101... :
  // mask = (fc0, !fc0, 1, 0) = 1 1 1 0? For NE fc0=1: T->1, E->0, term 1,
  // pad 0 -> mask=0b1010|? computed: (1<<2 | 0<<1 | 1)<<1 = 0b1010.
  insn = decode_thumb(0xBF1A, 0);
  EXPECT_EQ(insn.op, Op::kIt);
  EXPECT_EQ(insn.imm, 0x1Au);

  // Mask of zero is the hint space (NOP/YIELD/...), never an IT.
  EXPECT_EQ(decode_thumb(0xBF00, 0).op, Op::kNop);
  EXPECT_EQ(decode_thumb(0xBF10, 0).op, Op::kNop);
}

TEST(ItDecode, AssemblerMatchesArchitecturalEncoding) {
  ThumbAssembler a(0x10000);
  a.it(Cond::kEQ);        // IT EQ
  a.it(Cond::kNE, "T");   // ITT NE
  a.it(Cond::kNE, "E");   // ITE NE
  a.it(Cond::kGE, "TET"); // ITTET GE
  const auto code = a.finish();
  auto hw = [&](u32 i) {
    return static_cast<u16>(code[2 * i] | (code[2 * i + 1] << 8));
  };
  EXPECT_EQ(hw(0), 0xBF08);  // EQ=0000, mask 1000
  EXPECT_EQ(hw(1), 0xBF1C);  // NE=0001, fc0=1: T->1, term 1, pad -> 1100
  EXPECT_EQ(hw(2), 0xBF14);  // E->0, term 1, pad -> 0100
  // GE=1010, fc0=0: T->0, E->1, T->0, term 1 -> mask 0101.
  EXPECT_EQ(hw(3), 0xBFA5);
}

class ItFixture : public ::testing::TestWithParam<bool> {
 protected:
  static constexpr GuestAddr kCode = 0x10000;

  ItFixture() : cpu_(mem_, map_) {
    map_.add("code", kCode, 0x4000, mem::kRX);
    map_.add("[stack]", 0x70000, 0x10000, mem::kRW);
    cpu_.set_initial_sp(0x80000);
    cpu_.set_engine(GetParam() ? Engine::kThreaded : Engine::kInterp);
  }

  u32 run(ThumbAssembler& a, const std::vector<u32>& args = {}) {
    mem_.write_bytes(kCode, a.finish());
    return cpu_.call_function(kCode | 1, args);
  }

  mem::AddressSpace mem_;
  mem::MemoryMap map_;
  Cpu cpu_;
};

TEST_P(ItFixture, ThenElseSelection) {
  // if (r0 == 0) r0 = 11; else r0 = 22;  via ITE EQ.
  ThumbAssembler a(kCode);
  a.cmp_imm(R(0), 0);
  a.it(Cond::kEQ, "E");
  a.movs_imm(R(0), 11);  // then
  a.movs_imm(R(0), 22);  // else
  a.bx(LR);
  mem_.write_bytes(kCode, a.finish());
  EXPECT_EQ(cpu_.call_function(kCode | 1, {0}), 11u);
  EXPECT_EQ(cpu_.call_function(kCode | 1, {7}), 22u);
}

TEST_P(ItFixture, FlagWritesSuppressedInsideIt) {
  // r0 = 5; cmp r0, #5 (Z=1); IT EQ; adds r0, #1 — the adds must NOT write
  // flags despite its flag-setting encoding (result 6 would clear Z), so a
  // following beq still sees Z from the cmp and is taken.
  ThumbAssembler a(kCode);
  ThumbLabel taken;
  a.cmp_imm(R(0), 5);
  a.it(Cond::kEQ);
  a.adds_imm8(R(0), 1);  // executes (EQ), r0 = 6, flags untouched
  a.b(taken, Cond::kEQ); // Z still set from the cmp
  a.movs_imm(R(0), 99);  // must be skipped
  a.bx(LR);
  a.bind(taken);
  a.adds_imm8(R(0), 1);
  a.bx(LR);
  EXPECT_EQ(run(a, {5}), 7u);
}

TEST_P(ItFixture, ComparesStillSetFlagsInsideIt) {
  // IT'd CMP keeps its flag-setting nature: ITT NE; cmp r0, #3; then a
  // conditional move keyed on the *new* flags would misbehave if the cmp
  // were suppressed. Sequence: r0=3 -> NE fails on (r0-0)? Use r1 as flag
  // driver: cmp r1,#0 (NE when r1!=0); ITT NE { cmp r0,#3 ; nothing };
  // beq end -> taken iff the inner cmp ran and r0==3.
  ThumbAssembler a(kCode);
  ThumbLabel hit;
  a.cmp_imm(R(1), 0);
  a.it(Cond::kNE);
  a.cmp_imm(R(0), 3);
  a.b(hit, Cond::kEQ);
  a.movs_imm(R(0), 0);
  a.bx(LR);
  a.bind(hit);
  a.movs_imm(R(0), 1);
  a.bx(LR);
  mem_.write_bytes(kCode, a.finish());
  EXPECT_EQ(cpu_.call_function(kCode | 1, {3, 1}), 1u);  // inner cmp ran
  // r1 == 0: inner cmp skipped, flags stay from cmp r1,#0 -> Z set -> beq
  // taken regardless of r0. That is the architectural behaviour.
  EXPECT_EQ(cpu_.call_function(kCode | 1, {7, 0}), 1u);
}

TEST_P(ItFixture, ConditionalBranchInsideItBlock) {
  // The regression: an unconditionally-encoded B as the last IT instruction
  // is a conditional branch. if (r0 != 0) goto nonzero;
  ThumbAssembler a(kCode);
  ThumbLabel nonzero;
  a.cmp_imm(R(0), 0);
  a.it(Cond::kNE);
  a.b(nonzero);          // conditional via ITSTATE, not via encoding
  a.movs_imm(R(0), 42);  // fall-through (r0 == 0)
  a.bx(LR);
  a.bind(nonzero);
  a.movs_imm(R(0), 77);
  a.bx(LR);
  mem_.write_bytes(kCode, a.finish());
  EXPECT_EQ(cpu_.call_function(kCode | 1, {0}), 42u);
  EXPECT_EQ(cpu_.call_function(kCode | 1, {5}), 77u);
}

TEST_P(ItFixture, BranchMidItFlushesItstate) {
  // ITE with the branch in then-position: a taken branch mid-IT is
  // architecturally unpredictable; this substrate defines it as an ITSTATE
  // flush, so the instruction at the branch target executes normally rather
  // than being consumed as the leftover else-slot.
  ThumbAssembler a(kCode);
  ThumbLabel out;
  a.cmp_imm(R(0), 0);
  a.it(Cond::kEQ, "E");
  a.b(out);              // then: taken when r0 == 0; flushes the IT block
  a.movs_imm(R(0), 9);   // else: executes only when r0 != 0
  a.bind(out);
  a.adds_imm8(R(0), 1);  // must execute unconditionally after the flush
  a.bx(LR);
  mem_.write_bytes(kCode, a.finish());
  EXPECT_EQ(cpu_.call_function(kCode | 1, {0}), 1u);   // 0 + 1, not skipped
  EXPECT_EQ(cpu_.call_function(kCode | 1, {4}), 10u);  // 9 + 1
}

TEST_P(ItFixture, LongItBlockAllFour) {
  // ITTTT-equivalent accumulation: 4 covered adds, all-or-nothing.
  ThumbAssembler a(kCode);
  a.cmp_imm(R(0), 1);
  a.it(Cond::kEQ, "TTT");
  a.adds_imm8(R(1), 1);
  a.adds_imm8(R(1), 2);
  a.adds_imm8(R(1), 4);
  a.adds_imm8(R(1), 8);
  a.mov(R(0), R(1));
  a.bx(LR);
  mem_.write_bytes(kCode, a.finish());
  EXPECT_EQ(cpu_.call_function(kCode | 1, {1, 0}), 15u);
  EXPECT_EQ(cpu_.call_function(kCode | 1, {2, 0}), 0u);
}

TEST_P(ItFixture, MixedThenElseArithmetic) {
  // abs(): cmp r0,#0 ; IT MI ; rsb-equivalent via negs (MI = negative).
  ThumbAssembler a(kCode);
  a.cmp_imm(R(0), 0);
  a.it(Cond::kMI);
  a.negs(R(0), R(0));
  a.bx(LR);
  mem_.write_bytes(kCode, a.finish());
  EXPECT_EQ(cpu_.call_function(kCode | 1, {5}), 5u);
  EXPECT_EQ(cpu_.call_function(kCode | 1, {static_cast<u32>(-5)}), 5u);
}

INSTANTIATE_TEST_SUITE_P(Engines, ItFixture, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Threaded" : "Interpretive";
                         });

/// Both tiers must retire identical architectural state for an IT-heavy
/// function — the same bit-for-bit contract the golden-log tests pin for
/// the tracer.
TEST(ItEngineAgreement, RegisterFileMatches) {
  for (u32 arg : {0u, 1u, 2u, 3u, 0xFFFFFFFFu}) {
    std::array<u32, 2> results{};
    std::array<u32, 2> r4s{};
    for (int engine = 0; engine < 2; ++engine) {
      mem::AddressSpace mem;
      mem::MemoryMap map;
      Cpu cpu(mem, map);
      map.add("code", 0x10000, 0x4000, mem::kRX);
      map.add("[stack]", 0x70000, 0x10000, mem::kRW);
      cpu.set_initial_sp(0x80000);
      cpu.set_engine(engine == 1 ? Engine::kThreaded : Engine::kInterp);
      ThumbAssembler a(0x10000);
      ThumbLabel odd, join;
      a.push({R(4), LR});
      a.movs_imm(R(4), 0);
      a.lsrs(R(1), R(0), 1);  // carry = bit 0
      a.it(Cond::kCS, "E");
      a.adds_imm8(R(4), 10);  // odd
      a.adds_imm8(R(4), 20);  // even
      a.cmp_imm(R(0), 2);
      a.it(Cond::kHI);
      a.b(odd);
      a.adds_imm8(R(4), 1);
      a.bind(odd);
      a.cmp_imm(R(0), 1);
      a.it(Cond::kEQ, "TE");
      a.movs_imm(R(2), 7);
      a.adds(R(4), R(4), R(2));
      a.adds_imm8(R(4), 3);
      a.bind(join);
      a.mov(R(0), R(4));
      a.mov(R(1), R(4));
      a.pop({R(4), PC});
      mem.write_bytes(0x10000, a.finish());
      results[engine] = cpu.call_function(0x10000 | 1, {arg});
      r4s[engine] = cpu.state().regs[1];
    }
    EXPECT_EQ(results[0], results[1]) << "arg=" << arg;
    EXPECT_EQ(r4s[0], r4s[1]) << "arg=" << arg;
  }
}

}  // namespace
}  // namespace ndroid::arm
