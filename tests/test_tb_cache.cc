// Translation-block cache: invalidation (self-modifying code, explicit
// flush, helper registration), engine equivalence (block tiers vs. the
// interpreter, including the dense micro-op shapes), the Thumb decode-cache
// key, and the taint-liveness fast path (skip while clean, resume the first
// instruction after taint appears, counters exposed via core/report).
#include <gtest/gtest.h>

#include <thread>

#include "apps/cfbench.h"
#include "arm/assembler.h"
#include "arm/cpu.h"
#include "core/ndroid.h"
#include "core/report.h"

namespace ndroid {
namespace {

using arm::Assembler;
using arm::Cond;
using arm::Cpu;
using arm::Label;
using arm::LR;
using arm::PC;
using arm::R;

class TbCacheFixture : public ::testing::Test {
 protected:
  static constexpr GuestAddr kCode = 0x10000;

  TbCacheFixture() : cpu_(mem_, map_) {
    // RWX so the self-modifying-code tests can store into code pages.
    map_.add("code", kCode, 0x4000, mem::kRWX);
    map_.add("[stack]", 0x70000, 0x10000, mem::kRW);
    cpu_.set_initial_sp(0x80000);
  }

  u32 run(Assembler& a, const std::vector<u32>& args = {}) {
    mem_.write_bytes(kCode, a.finish());
    return cpu_.call_function(kCode, args);
  }

  mem::AddressSpace mem_;
  mem::MemoryMap map_;
  Cpu cpu_;
};

TEST_F(TbCacheFixture, CachesBlocksAndReportsHits) {
  Assembler a(kCode);
  Label loop, done;
  a.mov_imm(R(1), 0);
  a.bind(loop);
  a.cmp_imm(R(0), 0);
  a.b(done, Cond::kEQ);
  a.add_imm(R(1), R(1), 3);
  a.sub_imm(R(0), R(0), 1);
  a.b(loop);
  a.bind(done);
  a.mov(R(0), R(1));
  a.ret();
  EXPECT_EQ(run(a, {100}), 300u);

  const core::PerfCounters perf = core::collect_perf(cpu_);
  EXPECT_GT(perf.tb_translations, 0u);
  EXPECT_GT(perf.tb_hits, 0u);  // the loop re-enters its cached blocks
  EXPECT_GT(perf.tb_hit_rate(), 0.5);
  EXPECT_GT(perf.decode_lookups, 0u);
}

TEST_F(TbCacheFixture, FlushBlocksForcesRetranslationAndCounts) {
  Assembler a(kCode);
  a.mov_imm(R(0), 5);
  a.ret();
  EXPECT_EQ(run(a, {}), 5u);
  const u64 before = core::collect_perf(cpu_).tb_translations;

  cpu_.flush_blocks();
  EXPECT_EQ(cpu_.call_function(kCode), 5u);

  const core::PerfCounters perf = core::collect_perf(cpu_);
  EXPECT_GT(perf.tb_flushes, 0u);
  EXPECT_GT(perf.tb_translations, before);  // re-translated after the flush
}

TEST_F(TbCacheFixture, SelfModifyingStoreInvalidatesCachedBlock) {
  // mov r0, #1; ret — executed once so the block is cached, then the guest
  // (here: the host test, via the same write-watched address space API)
  // rewrites the mov to mov r0, #2. The write watch must kill the block.
  Assembler a(kCode);
  a.mov_imm(R(0), 1);
  a.ret();
  EXPECT_EQ(run(a, {}), 1u);

  Assembler patched(kCode);
  patched.mov_imm(R(0), 2);
  patched.ret();
  mem_.write_bytes(kCode, patched.finish());

  EXPECT_EQ(cpu_.call_function(kCode), 2u);
  EXPECT_GT(core::collect_perf(cpu_).tb_invalidated, 0u);
}

TEST_F(TbCacheFixture, BlockRewritingItselfStopsReplayingStaleCode) {
  // The block stores over its own *upcoming* instruction: after the store,
  // the executor must abandon the cached remainder and re-translate, so the
  // patched instruction (mov r0, #9 instead of mov r0, #7) executes.
  Assembler probe(kCode);
  probe.mov_imm(R(0), 9);
  const std::vector<u8> patch = probe.finish();
  const u32 patch_word = static_cast<u32>(patch[0]) |
                         (static_cast<u32>(patch[1]) << 8) |
                         (static_cast<u32>(patch[2]) << 16) |
                         (static_cast<u32>(patch[3]) << 24);

  Assembler a(kCode);
  a.mov_imm32(R(2), patch_word);  // two insns (movw/movt), offsets 0..7
  a.mov_imm32(R(3), kCode + 24);  // address of the mov r0, #7 below
  a.str(R(2), R(3), 0);           // offset 16: overwrite it
  a.nop();
  a.mov_imm(R(0), 7);             // kCode + 24
  a.ret();
  // First run already executes the patched instruction: the store happens
  // before the stale cached copy could replay.
  EXPECT_EQ(run(a, {}), 9u);
  // And the re-entry takes the re-translated (patched) block as well.
  EXPECT_EQ(cpu_.call_function(kCode), 9u);
  EXPECT_GT(core::collect_perf(cpu_).tb_invalidated, 0u);
}

TEST_F(TbCacheFixture, WriteTlbPrimedBeforeCodeInsertStillTrapsSmc) {
  // A guest store primes the write TLB for a page *before* any code is
  // cached there. When a block from that page is later inserted, the page
  // is watched late — arming it must drop the primed entry, or the
  // rewriting store below would bypass the write watch and the stale block
  // would keep executing.
  const GuestAddr fn = kCode + 0x1000;

  Assembler prime(kCode);
  prime.mov_imm32(R(3), fn + 0x800);  // same page as fn, plain data slot
  prime.mov_imm(R(2), 0x55);
  prime.str(R(2), R(3), 0);  // fused store: fills the write TLB for fn's page
  prime.mov(R(0), R(2));
  prime.ret();
  EXPECT_EQ(run(prime, {}), 0x55u);

  Assembler f(fn);
  f.mov_imm(R(0), 1);
  f.ret();
  mem_.write_bytes(fn, f.finish());
  EXPECT_EQ(cpu_.call_function(fn), 1u);  // caches the block, arms the page

  Assembler probe(fn);
  probe.mov_imm(R(0), 2);
  const std::vector<u8> patch = probe.finish();
  const u32 patch_word = static_cast<u32>(patch[0]) |
                         (static_cast<u32>(patch[1]) << 8) |
                         (static_cast<u32>(patch[2]) << 16) |
                         (static_cast<u32>(patch[3]) << 24);

  Assembler rewrite(kCode + 0x100);
  rewrite.mov_imm32(R(2), patch_word);
  rewrite.mov_imm32(R(3), fn);
  rewrite.str(R(2), R(3), 0);  // must slow-path: fn's page is watched now
  rewrite.ret();
  mem_.write_bytes(kCode + 0x100, rewrite.finish());
  cpu_.call_function(kCode + 0x100);

  EXPECT_EQ(cpu_.call_function(fn), 2u);  // stale block was invalidated
  EXPECT_GT(core::collect_perf(cpu_).tb_invalidated, 0u);
}

TEST_F(TbCacheFixture, RegisterHelperInvalidatesCoveredBlock) {
  Assembler a(kCode);
  a.mov_imm(R(0), 3);
  a.ret();
  EXPECT_EQ(run(a, {}), 3u);

  // Shadow the cached block's first instruction with a helper.
  cpu_.register_helper(kCode, [](Cpu& c) { c.state().regs[0] = 42; });
  EXPECT_EQ(cpu_.call_function(kCode), 42u);
}

TEST_F(TbCacheFixture, InterpretiveAblationMatchesTbEngine) {
  // One program, both engines, bit-identical outputs — covers the dense
  // micro-op shapes (add/sub/cmp/mov/flag shapes) against the general
  // executor.
  auto program = [](Assembler& a) {
    Label loop, done, skip;
    a.mov_imm(R(1), 0);
    a.mov_imm32(R(2), 0x12345678);
    a.bind(loop);
    a.cmp_imm(R(0), 0);
    a.b(done, Cond::kEQ);
    a.add(R(1), R(1), R(0));
    a.eor(R(1), R(1), R(2));
    a.sub_imm(R(2), R(2), 7);
    a.add(R(3), R(1), R(2), /*s=*/true);  // dense flag-setting add
    a.b(skip, Cond::kVS);
    a.sub(R(3), R(3), R(1), /*s=*/true);  // dense flag-setting sub
    a.bind(skip);
    a.orr(R(1), R(1), R(3));
    a.sub_imm(R(0), R(0), 1);
    a.b(loop);
    a.bind(done);
    a.mov(R(0), R(1));
    a.ret();
  };

  Assembler a(kCode);
  program(a);
  const u32 with_tb = run(a, {37});

  mem::AddressSpace mem2;
  mem::MemoryMap map2;
  Cpu interp(mem2, map2);
  map2.add("code", kCode, 0x4000, mem::kRWX);
  map2.add("[stack]", 0x70000, 0x10000, mem::kRW);
  interp.set_initial_sp(0x80000);
  interp.set_engine(arm::Engine::kInterp);
  Assembler b(kCode);
  program(b);
  mem2.write_bytes(kCode, b.finish());
  const u32 with_interp = interp.call_function(kCode, {37});

  EXPECT_EQ(with_tb, with_interp);
  EXPECT_EQ(core::collect_perf(interp).tb_lookups, 0u);  // engine really off
}

TEST_F(TbCacheFixture, ThumbDecodeKeyIgnoresFollowingHalfword) {
  // The same 16-bit Thumb encoding placed before *different* successor
  // halfwords must share one decode-cache entry (the key is the halfword
  // alone, not the halfword pair).
  const u16 movs_r0_1 = 0x2001;  // movs r0, #1
  const u16 movs_r1_2 = 0x2102;  // movs r1, #2
  const u16 movs_r2_3 = 0x2203;  // movs r2, #3
  mem_.write16(kCode, movs_r0_1);
  mem_.write16(kCode + 2, movs_r1_2);
  mem_.write16(kCode + 0x100, movs_r0_1);  // same insn, different successor
  mem_.write16(kCode + 0x102, movs_r2_3);

  cpu_.state().thumb = true;
  cpu_.state().set_pc(kCode);
  cpu_.step();
  const u64 hits_before = cpu_.decode_hits();
  cpu_.state().set_pc(kCode + 0x100);
  cpu_.step();
  EXPECT_EQ(cpu_.state().regs[0], 1u);
  EXPECT_GT(cpu_.decode_hits(), hits_before);
}

// --- The per-thread decode cache ------------------------------------------

TEST(TbCacheThreads, TwoCpusOnOneThreadRunTheirOwnCode) {
  // Both Cpus decode through this thread's one decode cache, with different
  // code at the same guest address: each must still run its own
  // instructions and count only its own decode lookups.
  constexpr GuestAddr kCode = 0x10000;
  struct Machine {
    mem::AddressSpace mem;
    mem::MemoryMap map;
    Cpu cpu{mem, map};
  };
  Machine a, b;
  for (Machine* m : {&a, &b}) {
    m->map.add("code", kCode, 0x1000, mem::kRX);
    m->map.add("[stack]", 0x70000, 0x10000, mem::kRW);
    m->cpu.set_initial_sp(0x80000);
  }
  Assembler pa(kCode);
  pa.mov_imm(R(0), 11);
  pa.ret();
  a.mem.write_bytes(kCode, pa.finish());
  Assembler pb(kCode);
  pb.mov_imm(R(0), 22);
  pb.add_imm(R(0), R(0), 1);
  pb.ret();
  b.mem.write_bytes(kCode, pb.finish());

  for (const arm::Engine engine :
       {arm::Engine::kInterp, arm::Engine::kThreaded}) {
    a.cpu.set_engine(engine);
    b.cpu.set_engine(engine);
    for (int round = 0; round < 3; ++round) {
      EXPECT_EQ(a.cpu.call_function(kCode), 11u);
      const u64 a_lookups = a.cpu.decode_lookups();
      const u64 b_lookups = b.cpu.decode_lookups();
      EXPECT_EQ(b.cpu.call_function(kCode), 23u);
      EXPECT_EQ(a.cpu.decode_lookups(), a_lookups);  // b's decodes are b's
      if (engine == arm::Engine::kInterp) {
        EXPECT_EQ(b.cpu.decode_lookups(), b_lookups + 3);  // one per step
      }
    }
  }
  EXPECT_GT(a.cpu.decode_hits(), 0u);
  EXPECT_GT(b.cpu.decode_hits(), 0u);
}

TEST(TbCacheThreads, DeviceBuiltOnOneThreadRunsOnAnother) {
  // A Device holds no per-thread state: built here and run on a thread that
  // has never decoded anything, it computes what a same-thread run does.
  auto checksum = [](android::Device& device) {
    apps::CfBenchApp bench(device);
    core::NDroid nd(device);
    return bench.run(*bench.find("Native MIPS"), 20);
  };
  android::Device here("tb-here");
  const u32 expected = checksum(here);

  android::Device device("tb-moved");
  u32 got = 0;
  std::thread([&] { got = checksum(device); }).join();
  EXPECT_EQ(got, expected);
}

// --- Taint-liveness fast path (NDroid attached) ---------------------------

TEST(TbCacheLiveness, FastPathSkipsCleanBlocksAndExposesCounters) {
  android::Device device("tb-test");
  apps::CfBenchApp bench(device);
  core::NDroid nd(device);
  const auto* w = bench.find("Native MIPS");
  ASSERT_NE(w, nullptr);

  bench.run(*w, 50);
  const core::PerfCounters perf = core::collect_perf(device.cpu);
  // Nothing is tainted: the gate skipped every in-scope pure-ALU block.
  EXPECT_GT(perf.fastpath_blocks, 0u);
  EXPECT_GT(perf.fastpath_insns, 0u);
  EXPECT_EQ(nd.tracer().instructions_traced(), 0u);
  // Acceptance counters all flow through core/report.
  EXPECT_GT(perf.tb_hits, 0u);
  EXPECT_GT(perf.tb_hit_rate(), 0.0);
  EXPECT_GT(perf.tb_flushes, 0u);  // NDroid's gate installation flushed
}

TEST(TbCacheLiveness, PropagationResumesFirstInstructionAfterTaint) {
  android::Device device("tb-test");
  apps::CfBenchApp bench(device);
  core::NDroid nd(device);
  const auto* w = bench.find("Native MIPS");
  ASSERT_NE(w, nullptr);

  // Warm the cache fully clean: every block is memoised as "skip".
  bench.run(*w, 50);
  ASSERT_EQ(nd.tracer().instructions_traced(), 0u);

  // Introduce register taint (r4 is never written by the loop, so liveness
  // stays hot). The liveness epoch bump must void every memoised skip: from
  // the very next executed instruction on, the tracer runs again.
  nd.taint_engine().set_reg(4, 0x2);
  const u64 retired_before = device.cpu.instructions_retired();
  bench.run(*w, 50);
  const u64 retired_delta =
      device.cpu.instructions_retired() - retired_before;
  // Every in-scope instruction of the tainted run was traced; the workload
  // body dominates the run, so the traced count is close to the retired
  // count (JNI/bridge code outside the app lib accounts for the rest).
  EXPECT_GT(nd.tracer().instructions_traced(), retired_delta / 2);

  // Clearing taint re-arms the fast path without any explicit flush.
  const u64 traced_after = nd.tracer().instructions_traced();
  const u64 fast_before = core::collect_perf(device.cpu).fastpath_insns;
  nd.taint_engine().clear_regs();
  bench.run(*w, 50);
  EXPECT_EQ(nd.tracer().instructions_traced(), traced_after);
  EXPECT_GT(core::collect_perf(device.cpu).fastpath_insns, fast_before);
}

TEST(TbCacheLiveness, TaintedResultMatchesInterpretiveEngine) {
  // Propagation through the threaded tier (fused trace streams + per-block
  // hook resolution) must match the interpreter exactly.
  auto run_once = [](bool use_tb) {
    android::Device device("tb-eq");
    apps::CfBenchApp bench(device);
    device.cpu.set_engine(use_tb ? arm::Engine::kThreaded
                                 : arm::Engine::kInterp);
    core::NDroid nd(device);
    nd.taint_engine().set_reg(4, 0x2);
    const auto* w = bench.find("Native MIPS");
    const u32 checksum = bench.run(*w, 25);
    return std::pair<u32, u64>(checksum, nd.tracer().instructions_traced());
  };
  const auto tb = run_once(true);
  const auto interp = run_once(false);
  EXPECT_EQ(tb.first, interp.first);
  EXPECT_EQ(tb.second, interp.second);
}

}  // namespace
}  // namespace ndroid
