#include "farm/fuzz.h"

#include <array>
#include <deque>
#include <memory>
#include <optional>
#include <random>
#include <vector>

#include "arm/assembler.h"
#include "arm/cpu.h"
#include "arm/thumb_assembler.h"
#include "core/instruction_tracer.h"

namespace ndroid::farm::fuzz {
namespace {

using arm::Assembler;
using arm::Cond;
using arm::Label;
using arm::R;
using arm::ThumbAssembler;

constexpr GuestAddr kCode = 0x10000;
constexpr GuestAddr kThumb = 0x14000;
constexpr GuestAddr kData = 0x20000;

struct Program {
  std::vector<u8> arm_code;    // entry at kCode
  std::vector<u8> thumb_code;  // Thumb leaf at kThumb
};

/// Registers the random body may use freely. r4 (data base) and r5 (loop
/// counter) stay off-limits so the loop always terminates; r6 is only ever
/// a freshly re-derived scratch pointer.
constexpr u8 kBodyRegs[] = {0, 1, 2, 3, 7};

Program generate(u64 seed) {
  std::mt19937 rng(static_cast<u32>(seed * 2654435761u + 0x9E3779B9u));
  const auto reg = [&] { return R(kBodyRegs[rng() % std::size(kBodyRegs)]); };

  ThumbAssembler t(kThumb);
  // Half the leaves open with a Thumb-2 table dispatch (TBB or TBH) on the
  // caller's r0 — the jump-table evasion shape, diffed across every tier.
  if (rng() % 2 != 0) {
    const bool half = rng() % 2 != 0;
    arm::ThumbLabel join;
    t.lsls(R(3), R(0), 30);
    t.lsrs(R(3), R(3), 30);  // r3 = r0 & 3
    const GuestAddr tb_pc = t.here();
    if (half) {
      t.tbh(arm::PC, R(3));
    } else {
      t.tbb(arm::PC, R(3));
    }
    const GuestAddr base = tb_pc + 4;
    const GuestAddr case0 = base + (half ? 8 : 4);
    for (u32 c = 0; c < 4; ++c) {
      // Each case is movs (2 bytes) + narrow b (2 bytes).
      const u16 entry = static_cast<u16>((case0 + 4 * c - base) / 2);
      if (half) {
        t.hword(entry);
      } else {
        t.byte(static_cast<u8>(entry));
      }
    }
    for (u32 c = 0; c < 4; ++c) {
      t.movs_imm(R(2), static_cast<u8>(rng() % 256));
      t.b(join);
    }
    t.bind(join);
  }
  const u32 thumb_steps = 4 + rng() % 10;
  for (u32 i = 0; i < thumb_steps; ++i) {
    const arm::Reg rd = R(static_cast<u8>(rng() % 4));
    const arm::Reg rm = R(static_cast<u8>(rng() % 4));
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
  t.bx(arm::LR);

  Assembler a(kCode);
  std::deque<Label> labels;  // deque: binding must not move pending labels
  a.push({R(4), R(5), R(6), R(7), arm::LR});
  a.mov_imm32(R(4), kData);
  a.mov_imm(R(5), 2 + rng() % 4);
  a.mov_imm(R(7), rng() % 256);
  Label loop;
  a.bind(loop);
  const u32 steps = 8 + rng() % 16;
  for (u32 i = 0; i < steps; ++i) {
    const arm::Reg rd = reg(), rn = reg(), rm = reg();
    switch (rng() % 20) {
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
      case 17: a.call(kThumb | 1); break;  // interwork into the leaf
      case 18: {  // ARM word jump table: ldr pc, [pc, idx*4]
        a.and_imm(R(6), rn, 3);
        a.lsl(R(6), R(6), 2);
        const GuestAddr ldr_pc = a.here();
        a.ldr_reg(arm::PC, arm::PC, R(6));
        a.word(0);  // pad: the table must sit at ldr_pc + 8 (PC-read base)
        const GuestAddr case0 = ldr_pc + 8 + 16;
        // Each case is add_imm (4 bytes) + b join (4 bytes).
        for (u32 c = 0; c < 4; ++c) a.word(case0 + 8 * c);
        Label& join = labels.emplace_back();
        for (u32 c = 0; c < 4; ++c) {
          a.add_imm(reg(), reg(), rng() % 256);
          a.b(join);
        }
        a.bind(join);
        break;
      }
      case 19:  // the leaf call again, but through a register (BLX rm)
        a.mov_imm32(R(6), kThumb | 1);
        a.blx(R(6));
        break;
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
  a.pop({R(4), R(5), R(6), R(7), arm::LR});
  a.ret();

  Program prog;
  prog.arm_code = a.finish();
  prog.thumb_code = t.finish();
  return prog;
}

enum class Tier {
  kInterp,
  kThreaded,
  kThreadedFused,
  kJit,
  /// Host emission with the taint-fused traced stream: gated hook, an
  /// always-firing block gate, and a full TaintJitView, so every block runs
  /// inlined Table V transfers over the raw label file. Degrades to the
  /// threaded fused tier without host emission.
  kJitTraced,
};

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::kInterp: return "interp";
    case Tier::kThreaded: return "threaded";
    case Tier::kThreadedFused: return "threaded+fused";
    case Tier::kJit: return "jit";
    case Tier::kJitTraced: return "jit+traced";
  }
  return "?";
}

/// The CPU engine under a tier; the fused/traced variants differ from
/// their base tier only in the analysis wiring. Without host emission kJit
/// runs threaded.
arm::Engine engine_of(Tier t) {
  switch (t) {
    case Tier::kInterp: return arm::Engine::kInterp;
    case Tier::kThreaded:
    case Tier::kThreadedFused: return arm::Engine::kThreaded;
    case Tier::kJit:
    case Tier::kJitTraced: return arm::Engine::kJit;
  }
  return arm::Engine::kThreaded;
}

struct TierResult {
  u32 r0 = 0;
  u64 mem_digest = 0;
  u64 traced = 0;
  u64 shadow_digest = 0;
};

u64 fold(u64 h, u64 v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xFF)) * 0x100000001B3ull;
  }
  return h;
}

TierResult run_tier(const Program& prog, Tier tier, bool taint, u64 seed) {
  mem::AddressSpace mem;
  mem::MemoryMap map;
  map.add("code", kCode, 0x8000, mem::kRX);
  map.add("data", kData, 0x8000, mem::kRW);
  map.add("[stack]", 0x70000, 0x10000, mem::kRW);
  arm::Cpu cpu(mem, map);
  cpu.set_initial_sp(0x80000);
  cpu.set_engine(engine_of(tier));
  mem.write_bytes(kCode, prog.arm_code);
  mem.write_bytes(kThumb, prog.thumb_code);

  core::TaintEngine taint_engine;
  std::unique_ptr<core::InstructionTracer> tracer;
  if (taint) {
    tracer = std::make_unique<core::InstructionTracer>(
        taint_engine, [](GuestAddr) { return true; });
    for (u8 r = 0; r < 4; ++r) {
      taint_engine.set_reg(r, 1u << ((seed + r) % 8));
    }
    for (u32 k = 0; k < 8; ++k) {
      taint_engine.map().set_range(kData + 8 * k, 4, 1u << ((seed + k) % 8));
    }
    const bool traced_jit = tier == Tier::kJitTraced;
    cpu.add_insn_hook(
        [&tracer](arm::Cpu& c, const arm::Insn& insn, GuestAddr pc) {
          tracer->on_insn(c, insn, pc);
        },
        /*gated=*/traced_jit);
    if (tier == Tier::kThreadedFused || traced_jit) {
      cpu.set_trace_emitter(
          [&tracer](const arm::TranslationBlock&, const arm::TbInsn& ti) {
            return std::optional<arm::TraceOp>(tracer->prepare(ti));
          });
    }
    if (traced_jit) {
      cpu.set_block_gate([](arm::Cpu&, arm::TranslationBlock&) {
        return true;
      });
      core::attach_taint_jit(cpu, taint_engine, *tracer);
    }
  }

  TierResult res;
  const u32 s = static_cast<u32>(seed);
  res.r0 = cpu.call_function(kCode, {s, s * 2654435761u, s ^ 0xDEADBEEFu, ~s});
  u64 h = 0xCBF29CE484222325ull;
  for (GuestAddr addr = kData; addr < kData + 0x440; addr += 4) {
    h = fold(h, mem.read32(addr));
  }
  res.mem_digest = h;
  if (taint) {
    res.traced = tracer->instructions_traced();
    u64 sh = 0xCBF29CE484222325ull;
    for (u8 r = 0; r < 16; ++r) sh = fold(sh, taint_engine.reg(r));
    for (GuestAddr addr = kData; addr < kData + 0x440; addr += 4) {
      sh = fold(sh, taint_engine.map().get_range(addr, 4));
    }
    res.shadow_digest = sh;
    core::detach_taint_jit(cpu);     // view points into tracer/engine state
    cpu.set_trace_emitter(nullptr);  // tracer dies before the cpu
  }
  return res;
}

}  // namespace

Outcome run_differential(u64 seed) {
  const Program prog = generate(seed);
  Outcome out;

  const TierResult base = run_tier(prog, Tier::kInterp, true, seed);
  out.instructions_traced = base.traced;
  u64 h = 0xCBF29CE484222325ull;
  h = fold(h, base.r0);
  h = fold(h, base.mem_digest);
  h = fold(h, base.traced);
  h = fold(h, base.shadow_digest);
  out.checksum = static_cast<u32>(h ^ (h >> 32));

  for (const Tier tier : {Tier::kThreaded, Tier::kThreadedFused, Tier::kJit,
                          Tier::kJitTraced}) {
    const TierResult got = run_tier(prog, tier, true, seed);
    if (got.r0 != base.r0) {
      out.error = std::string(tier_name(tier)) + " diverged on r0";
      return out;
    }
    if (got.mem_digest != base.mem_digest) {
      out.error = std::string(tier_name(tier)) + " diverged on memory digest";
      return out;
    }
    if (got.traced != base.traced) {
      out.error = std::string(tier_name(tier)) + " diverged on traced count";
      return out;
    }
    if (got.shadow_digest != base.shadow_digest) {
      out.error = std::string(tier_name(tier)) + " diverged on shadow digest";
      return out;
    }
  }

  // Taint tracking must be a pure observer of architectural state.
  for (const Tier tier : {Tier::kInterp, Tier::kThreaded, Tier::kJit}) {
    const TierResult got = run_tier(prog, tier, false, seed);
    if (got.r0 != base.r0 || got.mem_digest != base.mem_digest) {
      out.error =
          std::string(tier_name(tier)) + " diverged with taint tracking off";
      return out;
    }
  }

  out.ok = true;
  return out;
}

}  // namespace ndroid::farm::fuzz
