// Parameterized sweeps over the ARM substrate: condition codes, shifter
// operand forms, constant synthesis, assembler<->decoder agreement on
// randomized instruction streams, and the cross-engine differential fuzzer
// (seeded random ARM/Thumb programs diffed across execution tiers).
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <random>

#include "arm/assembler.h"
#include "arm/cpu.h"
#include "arm/thumb_assembler.h"
#include "core/instruction_tracer.h"
#include "farm/farm.h"
#include "farm/providers.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define NDROID_NO_FORK_TESTS 1
#endif
#endif
#if !defined(NDROID_NO_FORK_TESTS) && defined(__SANITIZE_THREAD__)
#define NDROID_NO_FORK_TESTS 1
#endif

namespace ndroid::arm {
namespace {

class CpuHarness {
 public:
  static constexpr GuestAddr kCode = 0x10000;

  CpuHarness() : cpu_(mem_, map_) {
    map_.add("code", kCode, 0x8000, mem::kRX);
    map_.add("data", 0x20000, 0x8000, mem::kRW);
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

// --- All condition codes against a reference evaluator ---------------------

class ConditionSweep : public ::testing::TestWithParam<int> {};

TEST_P(ConditionSweep, MatchesReferenceSemantics) {
  const Cond cond = static_cast<Cond>(GetParam());
  // For a battery of (a, b) pairs: cmp a, b; mov<cond> r0, #1.
  const std::pair<u32, u32> pairs[] = {
      {0, 0},          {1, 0},   {0, 1},
      {0xFFFFFFFF, 1}, {1, 0xFFFFFFFF},
      {0x80000000, 1}, {1, 0x80000000},
      {0x7FFFFFFF, 0xFFFFFFFF},  // overflow territory
      {42, 42},
  };
  for (const auto& [x, y] : pairs) {
    CpuHarness h;
    Assembler a(CpuHarness::kCode);
    a.mov_imm(R(0), 0);
    a.cmp(R(1), R(2));
    a.mov_imm(R(0), 1, cond);
    a.ret();
    const u32 got = h.run(a, {0, x, y});

    // Reference: evaluate the condition from first principles.
    const u32 diff = x - y;
    const bool n = (diff >> 31) != 0;
    const bool z = diff == 0;
    const bool c = x >= y;  // no borrow
    const bool v = (((x ^ y) & (x ^ diff)) >> 31) != 0;
    bool expect = false;
    switch (cond) {
      case Cond::kEQ: expect = z; break;
      case Cond::kNE: expect = !z; break;
      case Cond::kCS: expect = c; break;
      case Cond::kCC: expect = !c; break;
      case Cond::kMI: expect = n; break;
      case Cond::kPL: expect = !n; break;
      case Cond::kVS: expect = v; break;
      case Cond::kVC: expect = !v; break;
      case Cond::kHI: expect = c && !z; break;
      case Cond::kLS: expect = !c || z; break;
      case Cond::kGE: expect = n == v; break;
      case Cond::kLT: expect = n != v; break;
      case Cond::kGT: expect = !z && n == v; break;
      case Cond::kLE: expect = z || n != v; break;
      case Cond::kAL: expect = true; break;
    }
    EXPECT_EQ(got, expect ? 1u : 0u)
        << "cond " << to_string(cond) << " x=" << x << " y=" << y;
  }
}

INSTANTIATE_TEST_SUITE_P(AllConds, ConditionSweep, ::testing::Range(0, 15));

// --- mov_imm32 synthesises any constant -------------------------------------

class Imm32Sweep : public ::testing::TestWithParam<u32> {};

TEST_P(Imm32Sweep, RoundTrips) {
  std::mt19937 rng(GetParam());
  for (int i = 0; i < 40; ++i) {
    const u32 value = static_cast<u32>(rng());
    CpuHarness h;
    Assembler a(CpuHarness::kCode);
    a.mov_imm32(R(0), value);
    a.ret();
    EXPECT_EQ(h.run(a), value);
  }
  // Plus the classic edge constants.
  for (u32 value : {0u, 1u, 0xFFu, 0x100u, 0xFFFFu, 0x10000u, 0xFFFFFFFFu,
                    0x80000000u, 0x12345678u, 0xFF00FF00u}) {
    CpuHarness h;
    Assembler a(CpuHarness::kCode);
    a.mov_imm32(R(0), value);
    a.ret();
    EXPECT_EQ(h.run(a), value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Imm32Sweep, ::testing::Range(1u, 5u));

// --- Shifter operand semantics via the thumb shift-by-imm path --------------

TEST(Shifter, Lsr32ViaImmEncoding) {
  // LSR #32 (encoded as amount 0) must yield 0 and carry = bit31.
  CpuHarness h;
  Assembler a(CpuHarness::kCode);
  a.lsr(R(0), R(0), 32);
  a.ret();
  EXPECT_EQ(h.run(a, {0xFFFFFFFF}), 0u);
}

TEST(Shifter, AsrPropagatesSign) {
  CpuHarness h;
  Assembler a(CpuHarness::kCode);
  a.asr(R(0), R(0), 32);
  a.ret();
  EXPECT_EQ(h.run(a, {0x80000000}), 0xFFFFFFFFu);
  CpuHarness h2;
  Assembler b(CpuHarness::kCode);
  b.asr(R(0), R(0), 32);
  b.ret();
  EXPECT_EQ(h2.run(b, {0x7FFFFFFF}), 0u);
}

// --- Randomized assemble->decode->execute consistency ------------------------

class RandomProgram : public ::testing::TestWithParam<u32> {};

TEST_P(RandomProgram, MatchesHostReferenceModel) {
  std::mt19937 rng(GetParam() * 2654435761u);

  // Random arithmetic over r0-r3 (the argument registers), checked against
  // a host-side reference model instruction by instruction.
  std::array<u32, 4> regs{};
  for (auto& r : regs) r = rng();
  std::array<u32, 4> ref = regs;

  Assembler a(CpuHarness::kCode);
  const u32 steps = 8 + rng() % 24;
  for (u32 i = 0; i < steps; ++i) {
    const u8 rd = static_cast<u8>(rng() % 4);
    const u8 rn = static_cast<u8>(rng() % 4);
    const u8 rm = static_cast<u8>(rng() % 4);
    switch (rng() % 7) {
      case 0: a.add(R(rd), R(rn), R(rm)); ref[rd] = ref[rn] + ref[rm]; break;
      case 1: a.sub(R(rd), R(rn), R(rm)); ref[rd] = ref[rn] - ref[rm]; break;
      case 2: a.eor(R(rd), R(rn), R(rm)); ref[rd] = ref[rn] ^ ref[rm]; break;
      case 3: a.and_(R(rd), R(rn), R(rm)); ref[rd] = ref[rn] & ref[rm]; break;
      case 4: a.orr(R(rd), R(rn), R(rm)); ref[rd] = ref[rn] | ref[rm]; break;
      case 5: a.mul(R(rd), R(rn), R(rm)); ref[rd] = ref[rn] * ref[rm]; break;
      case 6: {
        const u8 amount = static_cast<u8>(1 + rng() % 31);
        a.lsl(R(rd), R(rm), amount);
        ref[rd] = ref[rm] << amount;
        break;
      }
    }
  }
  // Fold all registers into r0 so every value is observable.
  for (u8 r = 1; r < 4; ++r) a.eor(R(0), R(0), R(r));
  a.ret();

  u32 expect = ref[0];
  for (u32 r = 1; r < 4; ++r) expect ^= ref[r];

  CpuHarness h;
  EXPECT_EQ(h.run(a, {regs[0], regs[1], regs[2], regs[3]}), expect)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgram, ::testing::Range(1u, 9u));

// --- LDM/STM corner cases ----------------------------------------------------

TEST(BlockTransfer, StmIaThenLdmIaRoundTrip) {
  CpuHarness h;
  Assembler a(CpuHarness::kCode);
  a.mov_imm32(R(4), 0x20000);
  a.mov_imm(R(1), 11);
  a.mov_imm(R(2), 22);
  a.mov_imm(R(3), 33);
  a.stm_ia(R(4), (1u << 1) | (1u << 2) | (1u << 3), /*writeback=*/false);
  a.mov_imm(R(1), 0);
  a.mov_imm(R(2), 0);
  a.mov_imm(R(3), 0);
  a.ldm_ia(R(4), (1u << 1) | (1u << 2) | (1u << 3), /*writeback=*/false);
  a.add(R(0), R(1), R(2));
  a.add(R(0), R(0), R(3));
  a.ret();
  EXPECT_EQ(h.run(a), 66u);
  EXPECT_EQ(h.mem_.read32(0x20000), 11u);
  EXPECT_EQ(h.mem_.read32(0x20008), 33u);
}

TEST(BlockTransfer, WritebackAdjustsBase) {
  CpuHarness h;
  Assembler a(CpuHarness::kCode);
  a.mov_imm32(R(4), 0x20000);
  a.mov_imm(R(1), 1);
  a.mov_imm(R(2), 2);
  a.stm_ia(R(4), (1u << 1) | (1u << 2), /*writeback=*/true);
  a.mov(R(0), R(4));
  a.ret();
  EXPECT_EQ(h.run(a), 0x20008u);
}

TEST(Multiply, MlaAccumulates) {
  CpuHarness h;
  Assembler a(CpuHarness::kCode);
  a.mla(R(0), R(1), R(2), R(3));  // r0 = r1*r2 + r3
  a.ret();
  EXPECT_EQ(h.run(a, {0, 6, 7, 100}), 142u);
}

TEST(Extend, ArmModeExtendInstructions) {
  struct Case {
    void (Assembler::*emit)(Reg, Reg);
    u32 input;
    u32 expect;
  };
  const Case cases[] = {
      {&Assembler::sxtb, 0x80, 0xFFFFFF80},
      {&Assembler::sxtb, 0x7F, 0x7F},
      {&Assembler::sxth, 0x8000, 0xFFFF8000},
      {&Assembler::uxtb, 0xABCD, 0xCD},
      {&Assembler::uxth, 0xABCD1234, 0x1234},
  };
  for (const Case& c : cases) {
    CpuHarness h;
    Assembler a(CpuHarness::kCode);
    (a.*c.emit)(R(0), R(0));
    a.ret();
    EXPECT_EQ(h.run(a, {c.input}), c.expect);
  }
  // CLZ of 0 is 32 (unary class companion).
  CpuHarness h;
  Assembler a(CpuHarness::kCode);
  a.clz(R(0), R(0));
  a.ret();
  EXPECT_EQ(h.run(a, {0}), 32u);
}

// --- Cross-engine differential fuzzing ---------------------------------------
//
// Seeded random ARM programs (a bounded loop of ALU / memory / conditional
// instructions that calls a random Thumb leaf) are executed under every
// engine configuration — interpreter and the threaded micro-op tier (generic
// and fused taint emission) — with taint tracking off and on. Final r0, a
// digest of guest memory, the tracer's instruction count, and a digest of
// the full shadow state (register taints plus the data-region taint map,
// the inputs every leak report is computed from) must agree bit-for-bit
// with the interpreter baseline. Leak *events* themselves are diffed
// separately by the golden logs.

constexpr GuestAddr kFuzzCode = 0x10000;
constexpr GuestAddr kFuzzThumb = 0x14000;
constexpr GuestAddr kFuzzData = 0x20000;

struct FuzzProgram {
  std::vector<u8> arm_code;    // entry at kFuzzCode
  std::vector<u8> thumb_code;  // leaf at kFuzzThumb (Thumb state)
};

/// Registers the random body may use freely. r4 (data base) and r5 (loop
/// counter) are off-limits so the loop always terminates; r6 is only ever a
/// freshly re-derived scratch pointer for indexed addressing modes.
constexpr u8 kBodyRegs[] = {0, 1, 2, 3, 7};

FuzzProgram generate_program(u32 seed) {
  std::mt19937 rng(seed * 2654435761u + 0x9E3779B9u);
  const auto reg = [&] { return R(kBodyRegs[rng() % std::size(kBodyRegs)]); };

  // Thumb leaf: low-register ALU plus word loads/stores through r4.
  ThumbAssembler t(kFuzzThumb);
  const u32 thumb_steps = 4 + rng() % 10;
  for (u32 i = 0; i < thumb_steps; ++i) {
    const Reg rd = R(static_cast<u8>(rng() % 4));
    const Reg rm = R(static_cast<u8>(rng() % 4));
    switch (rng() % 9) {
      case 0: t.adds(rd, rd, rm); break;
      case 1: t.subs(rd, rd, rm); break;
      case 2: t.eors(rd, rm); break;
      case 3: t.ands(rd, rm); break;
      case 4: t.muls(rd, rm); break;
      case 5: t.lsls(rd, rm, static_cast<u8>(1 + rng() % 7)); break;
      case 6: t.uxth(rd, rm); break;
      case 7: t.str(rd, R(4), static_cast<u8>(4 * (rng() % 16))); break;
      case 8: t.ldr(rd, R(4), static_cast<u8>(4 * (rng() % 16))); break;
    }
  }
  t.bx(LR);

  // ARM main: bounded loop over a random body.
  Assembler a(kFuzzCode);
  std::deque<Label> labels;  // deque: binding must not move pending labels
  a.push({R(4), R(5), R(6), R(7), LR});
  a.mov_imm32(R(4), kFuzzData);
  a.mov_imm(R(5), 2 + rng() % 4);
  a.mov_imm(R(7), rng() % 256);
  Label loop;
  a.bind(loop);
  const u32 steps = 8 + rng() % 16;
  for (u32 i = 0; i < steps; ++i) {
    const Reg rd = reg(), rn = reg(), rm = reg();
    switch (rng() % 18) {
      case 0: a.add(rd, rn, rm); break;
      case 1: a.sub(rd, rn, rm); break;
      case 2: a.eor(rd, rn, rm); break;
      case 3: a.orr(rd, rn, rm); break;
      case 4: a.mul(rd, rn, rm); break;
      case 5: a.add_imm(rd, rn, rng() % 256); break;
      case 6: a.sub_imm(rd, rn, rng() % 256); break;
      case 7: a.eor_imm(rd, rn, rng() % 256); break;
      case 8: a.mov_imm(rd, rng() % 256); break;
      case 9: a.sxtb(rd, rm); break;
      case 10: a.uxth(rd, rm); break;
      case 11: a.str(rd, R(4), static_cast<i32>(4 * (rng() % 32))); break;
      case 12: a.ldr(rd, R(4), static_cast<i32>(4 * (rng() % 32))); break;
      case 13: a.strb(rd, R(4), static_cast<i32>(rng() % 128)); break;
      case 14: a.ldrsh(rd, R(4), static_cast<i32>(2 * (rng() % 32))); break;
      case 15:  // post-indexed store through a scratch pointer
        a.mov(R(6), R(4));
        a.str_post(rd, R(6), 4);
        break;
      case 16: {  // conditional forward skip over a short run
        Label& skip = labels.emplace_back();
        a.cmp(rn, rm);
        a.b(skip, static_cast<Cond>(rng() % 14));
        const u32 inner = 1 + rng() % 3;
        for (u32 j = 0; j < inner; ++j) a.add_imm(reg(), reg(), rng() % 256);
        a.bind(skip);
        break;
      }
      case 17: a.call(kFuzzThumb | 1); break;  // interwork into the leaf
    }
  }
  a.sub_imm(R(5), R(5), 1, /*s=*/true);
  a.b(loop, Cond::kNE);
  // Spill every observable register so the memory digest captures them.
  const u8 spill[] = {0, 1, 2, 3, 6, 7};
  for (u32 i = 0; i < std::size(spill); ++i) {
    a.str(R(spill[i]), R(4), static_cast<i32>(0x400 + 4 * i));
  }
  for (u8 r : {1, 2, 3, 7}) a.eor(R(0), R(0), R(r));
  a.pop({R(4), R(5), R(6), R(7), LR});
  a.ret();

  FuzzProgram prog;
  prog.arm_code = a.finish();
  prog.thumb_code = t.finish();
  return prog;
}

enum class FuzzEngine {
  kInterp,
  kThreaded,
  kThreadedFused,
};

/// The CPU engine under a fuzz configuration; the fused variant differs
/// from its base tier only in the analysis wiring.
arm::Engine cpu_engine(FuzzEngine e) {
  return e == FuzzEngine::kInterp ? arm::Engine::kInterp
                                  : arm::Engine::kThreaded;
}

struct FuzzResult {
  u32 r0 = 0;
  u64 mem_digest = 0;
  u64 traced = 0;
  u64 shadow_digest = 0;
};

u64 fnv1a(u64 h, u64 v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xFF)) * 0x100000001B3ull;
  }
  return h;
}

FuzzResult run_fuzz(const FuzzProgram& prog, FuzzEngine engine, bool taint,
                    u32 seed) {
  mem::AddressSpace mem;
  mem::MemoryMap map;
  map.add("code", kFuzzCode, 0x8000, mem::kRX);
  map.add("data", kFuzzData, 0x8000, mem::kRW);
  map.add("[stack]", 0x70000, 0x10000, mem::kRW);
  Cpu cpu(mem, map);
  cpu.set_initial_sp(0x80000);
  cpu.set_engine(cpu_engine(engine));
  mem.write_bytes(kFuzzCode, prog.arm_code);
  mem.write_bytes(kFuzzThumb, prog.thumb_code);

  core::TaintEngine taint_engine;
  std::unique_ptr<core::InstructionTracer> tracer;
  if (taint) {
    tracer = std::make_unique<core::InstructionTracer>(
        taint_engine, [](GuestAddr) { return true; });
    // Deterministic taint seed: argument registers and a stripe of the
    // data region the random loads will pull from.
    for (u8 r = 0; r < 4; ++r) {
      taint_engine.set_reg(r, 1u << ((seed + r) % 8));
    }
    for (u32 k = 0; k < 8; ++k) {
      taint_engine.map().set_range(kFuzzData + 8 * k, 4,
                                   1u << ((seed + k) % 8));
    }
    cpu.add_insn_hook(
        [&tracer](Cpu& c, const Insn& insn, GuestAddr pc) {
          tracer->on_insn(c, insn, pc);
        });
    if (engine == FuzzEngine::kThreadedFused) {
      cpu.set_trace_emitter(
          [&tracer](const TranslationBlock&, const TbInsn& ti) {
            return std::optional<TraceOp>(tracer->prepare(ti));
          });
    }
  }

  FuzzResult res;
  const u32 args[4] = {seed, seed * 2654435761u, seed ^ 0xDEADBEEFu,
                       ~seed};
  res.r0 = cpu.call_function(kFuzzCode,
                             {args[0], args[1], args[2], args[3]});
  u64 h = 0xCBF29CE484222325ull;
  for (GuestAddr addr = kFuzzData; addr < kFuzzData + 0x440; addr += 4) {
    h = fnv1a(h, mem.read32(addr));
  }
  res.mem_digest = h;
  if (taint) {
    res.traced = tracer->instructions_traced();
    u64 sh = 0xCBF29CE484222325ull;
    for (u8 r = 0; r < 16; ++r) sh = fnv1a(sh, taint_engine.reg(r));
    for (GuestAddr addr = kFuzzData; addr < kFuzzData + 0x440; addr += 4) {
      sh = fnv1a(sh, taint_engine.map().get_range(addr, 4));
    }
    res.shadow_digest = sh;
    cpu.set_trace_emitter(nullptr);  // tracer dies before the cpu
  }
  return res;
}

class DifferentialFuzz : public ::testing::TestWithParam<u32> {};

TEST_P(DifferentialFuzz, EnginesAgreeOnStateAndShadow) {
  const u32 seed = GetParam();
  const FuzzProgram prog = generate_program(seed);

  // Baseline: the seed interpretive engine with taint tracking live.
  const FuzzResult base = run_fuzz(prog, FuzzEngine::kInterp, true, seed);

  const struct {
    FuzzEngine engine;
    const char* name;
  } tiers[] = {
      {FuzzEngine::kThreaded, "threaded"},
      {FuzzEngine::kThreadedFused, "threaded+fused"},
  };
  for (const auto& tier : tiers) {
    const FuzzResult got = run_fuzz(prog, tier.engine, true, seed);
    EXPECT_EQ(got.r0, base.r0) << tier.name << " seed " << seed;
    EXPECT_EQ(got.mem_digest, base.mem_digest) << tier.name << " seed "
                                               << seed;
    EXPECT_EQ(got.traced, base.traced) << tier.name << " seed " << seed;
    EXPECT_EQ(got.shadow_digest, base.shadow_digest)
        << tier.name << " seed " << seed;
  }

  // Taint tracking must be a pure observer: with it off (every tier runs
  // its clean streams) the architectural results are unchanged.
  for (const FuzzEngine engine : {FuzzEngine::kInterp, FuzzEngine::kThreaded}) {
    const FuzzResult got = run_fuzz(prog, engine, false, seed);
    EXPECT_EQ(got.r0, base.r0) << "taint-off seed " << seed;
    EXPECT_EQ(got.mem_digest, base.mem_digest) << "taint-off seed " << seed;
  }
}

// Bounded for CI: 12 seeds x 5 engine configurations, each a few thousand
// guest instructions.
INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz, ::testing::Range(1u, 13u));

// --- Dispatch-table differential ---------------------------------------------
//
// The indirect-control-flow idioms the static VSA layer resolves — Thumb-2
// TBB/TBH, ARM literal-pool word tables, BLX through a register — exercised
// dynamically across every execution tier. The table loads go through the
// same data paths as ordinary loads (TLB probes, threaded micro-ops), so a
// tier that mishandles a PC-destination load or an interworking register
// call diverges here even if the straight-line fuzz above stays green.

/// Seeded program where every control transfer is a dispatch shape: the
/// Thumb leaf selects one of four cases via TBB or TBH on r0&3, and the ARM
/// main loop runs a word-table `ldr pc, [pc, r6]` switch on r7&3 followed
/// by a BLX-through-register interworking call into the leaf.
FuzzProgram generate_dispatch_program(u32 seed) {
  std::mt19937 rng(seed * 2654435761u + 0xD15BA7C4u);

  ThumbAssembler t(kFuzzThumb);
  const bool half = rng() % 2 != 0;
  ThumbLabel join;
  t.lsls(R(3), R(0), 30);  // r3 = r0 & 3
  t.lsrs(R(3), R(3), 30);
  const GuestAddr tb_pc = t.here();
  if (half) {
    t.tbh(PC, R(3));
  } else {
    t.tbb(PC, R(3));
  }
  const GuestAddr tb_base = tb_pc + 4;
  const GuestAddr case0 = tb_base + (half ? 8 : 4);
  for (u32 c = 0; c < 4; ++c) {
    const u32 off = (case0 + 4 * c - tb_base) / 2;
    if (half) {
      t.hword(static_cast<u16>(off));
    } else {
      t.byte(static_cast<u8>(off));
    }
  }
  for (u32 c = 0; c < 4; ++c) {
    t.movs_imm(R(2), static_cast<u8>(rng() % 256));  // 2 bytes
    t.b(join);                                       // narrow forward: 2 bytes
  }
  t.bind(join);
  t.adds(R(0), R(0), R(2));
  t.bx(LR);

  Assembler a(kFuzzCode);
  a.push({R(4), R(5), R(6), R(7), LR});
  a.mov_imm32(R(4), kFuzzData);
  a.mov_imm(R(5), 2 + rng() % 4);
  a.mov_imm(R(7), rng() % 256);
  Label loop;
  a.bind(loop);
  // Word-table switch on r7&3: `ldr pc, [pc, r6]` reads base pc+8, so one
  // pad word puts the four-entry table exactly under the base.
  a.and_imm(R(6), R(7), 3);
  a.lsl(R(6), R(6), 2);
  const GuestAddr ldr_pc = a.here();
  a.ldr_reg(PC, PC, R(6));
  a.word(0);
  const GuestAddr acase0 = ldr_pc + 8 + 16;
  for (u32 c = 0; c < 4; ++c) a.word(acase0 + 8 * c);
  Label arm_join;
  for (u32 c = 0; c < 4; ++c) {
    a.add_imm(R(1), R(1), rng() % 256);  // 4 bytes
    a.b(arm_join);                       // 4 bytes
  }
  a.bind(arm_join);
  a.str(R(1), R(4), static_cast<i32>(4 * (rng() % 32)));
  a.mov_imm32(R(6), kFuzzThumb | 1);  // BLX through a register into Thumb
  a.blx(R(6));
  a.add_imm(R(7), R(7), 1);
  a.sub_imm(R(5), R(5), 1, /*s=*/true);
  a.b(loop, Cond::kNE);
  const u8 spill[] = {0, 1, 2, 3, 6, 7};
  for (u32 i = 0; i < std::size(spill); ++i) {
    a.str(R(spill[i]), R(4), static_cast<i32>(0x400 + 4 * i));
  }
  for (u8 r : {1, 2, 3, 7}) a.eor(R(0), R(0), R(r));
  a.pop({R(4), R(5), R(6), R(7), LR});
  a.ret();

  FuzzProgram prog;
  prog.arm_code = a.finish();
  prog.thumb_code = t.finish();
  return prog;
}

class DispatchTableFuzz : public ::testing::TestWithParam<u32> {};

TEST_P(DispatchTableFuzz, EnginesAgreeOnDispatchHeavyPrograms) {
  const u32 seed = GetParam();
  const FuzzProgram prog = generate_dispatch_program(seed);

  const FuzzResult base = run_fuzz(prog, FuzzEngine::kInterp, true, seed);

  const struct {
    FuzzEngine engine;
    const char* name;
  } tiers[] = {
      {FuzzEngine::kThreaded, "threaded"},
      {FuzzEngine::kThreadedFused, "threaded+fused"},
  };
  for (const auto& tier : tiers) {
    const FuzzResult got = run_fuzz(prog, tier.engine, true, seed);
    EXPECT_EQ(got.r0, base.r0) << tier.name << " seed " << seed;
    EXPECT_EQ(got.mem_digest, base.mem_digest)
        << tier.name << " seed " << seed;
    EXPECT_EQ(got.traced, base.traced) << tier.name << " seed " << seed;
    EXPECT_EQ(got.shadow_digest, base.shadow_digest)
        << tier.name << " seed " << seed;
  }

  // Dispatch-heavy programs with taint off: every dynamic-target terminal
  // (bx/blx, the ldr-pc table switch) resolves inside the clean streams.
  for (const FuzzEngine engine : {FuzzEngine::kInterp, FuzzEngine::kThreaded}) {
    const FuzzResult got = run_fuzz(prog, engine, false, seed);
    EXPECT_EQ(got.r0, base.r0) << "taint-off seed " << seed;
    EXPECT_EQ(got.mem_digest, base.mem_digest) << "taint-off seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DispatchTableFuzz, ::testing::Range(1u, 9u));

// --- Fuzzing as a farm workload ----------------------------------------------
//
// src/farm/fuzz wraps the same tier-differential idea as the parameterized
// sweep above into hermetic farm jobs (JobKind::kFuzz): each job generates a
// seeded ARM/Thumb program, runs it across every execution tier (including
// the fused-taint threaded tier), and fails on any architectural or shadow
// divergence. Bounded for CI: 64 seeds serially plus the same 64 sharded
// across worker processes.
TEST(DifferentialFuzz, FarmFuzzWorkloadAgreesAcrossTiersAndTopologies) {
  const std::vector<farm::JobSpec> jobs = farm::fuzz_jobs(64, 0xA5F00Dull);
  farm::FarmOptions opts;
  opts.share_summaries = false;  // fuzz jobs have no libraries to lift

  const farm::FarmReport serial = farm::run_farm(jobs, opts);
  EXPECT_EQ(serial.failures, 0u);
  for (const farm::JobResult& r : serial.results) {
    EXPECT_TRUE(r.ok) << r.spec.name << ": " << r.error;
    EXPECT_NE(r.checksum, 0u) << r.spec.name;  // digests actually folded in
  }

#ifndef NDROID_NO_FORK_TESTS
  // Crash-isolated processes must reproduce the serial digests bit-for-bit
  // (the checksums ride through the wire protocol).
  opts.processes = 2;
  const farm::FarmReport procs = farm::run_farm(jobs, opts);
  EXPECT_EQ(procs.failures, 0u);
  EXPECT_EQ(procs.leak_digest(), serial.leak_digest());
#endif
}

TEST(Extend, TaintFlowsThroughExtend) {
  // SXTB is a unary op for Table V: t(Rd) = t(Rm).
  CpuHarness h;
  core::TaintEngine engine;
  core::InstructionTracer tracer(engine, [](GuestAddr) { return true; });
  h.cpu_.add_insn_hook([&](arm::Cpu& c, const Insn& i, GuestAddr pc) {
    tracer.on_insn(c, i, pc);
  });
  engine.set_reg(2, 0x40);
  Assembler a(CpuHarness::kCode);
  a.sxtb(R(0), R(2));
  a.ret();
  h.run(a, {0, 0, 0x80});
  EXPECT_EQ(engine.reg(0), 0x40u);
}

}  // namespace
}  // namespace ndroid::arm
