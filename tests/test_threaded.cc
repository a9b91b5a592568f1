// Threaded-code execution tier: direct block linking (patch + follow
// counters), the stale-chain hazard (a self-modifying store into a *linked
// successor* must void the patched edge, not just the block), parity with
// the interpreter oracle, gate interaction (clean blocks keep the
// zero-hook fast path inside the threaded loop), and engine selection.
#include <gtest/gtest.h>

#include "arm/assembler.h"
#include "arm/cpu.h"
#include "core/report.h"

namespace ndroid {
namespace {

using arm::Assembler;
using arm::Cond;
using arm::Cpu;
using arm::Label;
using arm::R;

class ThreadedFixture : public ::testing::Test {
 protected:
  static constexpr GuestAddr kCode = 0x10000;
  // Separate page from kCode so per-page invalidation of the patched
  // subroutine leaves the caller's blocks translated.
  static constexpr GuestAddr kTail = kCode + 0x1000;

  ThreadedFixture() : cpu_(mem_, map_) {
    // RWX so the self-modifying-code tests can store into code pages.
    map_.add("code", kCode, 0x4000, mem::kRWX);
    map_.add("[stack]", 0x70000, 0x10000, mem::kRW);
    cpu_.set_initial_sp(0x80000);
  }

  u32 run(Assembler& a, const std::vector<u32>& args = {}) {
    mem_.write_bytes(kCode, a.finish());
    return cpu_.call_function(kCode, args);
  }

  /// Encodes a single instruction and returns its word (for guest stores
  /// that patch code).
  static u32 encode(void (*emit)(Assembler&)) {
    Assembler p(0);
    emit(p);
    const std::vector<u8>& bytes = p.finish();
    return static_cast<u32>(bytes[0]) | (static_cast<u32>(bytes[1]) << 8) |
           (static_cast<u32>(bytes[2]) << 16) |
           (static_cast<u32>(bytes[3]) << 24);
  }

  mem::AddressSpace mem_;
  mem::MemoryMap map_;
  Cpu cpu_;
};

TEST_F(ThreadedFixture, HotLoopPatchesAndFollowsDirectLinks) {
  ASSERT_EQ(cpu_.engine(), arm::Engine::kThreaded);  // production default
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
  EXPECT_EQ(run(a, {1000}), 3000u);

  const core::PerfCounters perf = core::collect_perf(cpu_);
  // The loop's back edge and its internal branch both get patched once and
  // then followed in-loop on every iteration.
  EXPECT_GT(perf.threaded_patches, 0u);
  EXPECT_GT(perf.threaded_links, perf.threaded_patches);
  // A linked transition must still count as a cache hit so the hit-rate
  // counters stay comparable with the unlinked tiers.
  EXPECT_GT(perf.tb_hit_rate(), 0.9);
}

TEST_F(ThreadedFixture, SelfModifyingStoreIntoLinkedSuccessorUnlinksEdge) {
  // The stale-chain hazard: patch caller -> tail into the threaded stream,
  // *then* store over the tail's first instruction. The patched edge must
  // not replay the stale micro-ops; the version fence has to bounce the
  // transition out to a fresh translation.
  Assembler t(kTail);
  t.add_imm(R(0), R(0), 1);  // patched at runtime to add r0, r0, #100
  t.ret();
  mem_.write_bytes(kTail, t.finish());

  const u32 patch_word =
      encode([](Assembler& p) { p.add_imm(R(0), R(0), 100); });

  Assembler a(kCode);
  Label loop, skip;
  a.push({R(4), arm::LR});
  a.mov_imm(R(0), 0);
  a.mov_imm(R(4), 4);  // iteration counter: 4, 3, 2, 1
  a.mov_imm32(R(2), patch_word);
  a.mov_imm32(R(3), kTail);
  a.bind(loop);
  a.bl_abs(kTail);  // edge under test; linked by the second traversal
  a.cmp_imm(R(4), 2);
  a.b(skip, Cond::kNE);
  a.str(R(2), R(3));  // third iteration: overwrite the linked successor
  a.bind(skip);
  a.sub_imm(R(4), R(4), 1, /*s=*/true);
  a.b(loop, Cond::kNE);
  a.pop({R(4), arm::LR});
  a.ret();

  // Iterations 1-3 run the original tail (+1 each); the store at the end of
  // iteration 3 rewrites it, so iteration 4 must execute +100:
  //   3 * 1 + 100 = 103.  A stale patched edge would yield 4.
  EXPECT_EQ(run(a), 103u);

  const core::PerfCounters perf = core::collect_perf(cpu_);
  EXPECT_GT(perf.threaded_patches, 0u);   // the edge really was linked
  EXPECT_GT(perf.tb_invalidated, 0u);     // and the store really killed it
}

TEST_F(ThreadedFixture, FlushBlocksTearsDownPatchedEdges) {
  Assembler a(kCode);
  Label loop, done;
  a.mov_imm(R(1), 0);
  a.bind(loop);
  a.cmp_imm(R(0), 0);
  a.b(done, Cond::kEQ);
  a.add_imm(R(1), R(1), 1);
  a.sub_imm(R(0), R(0), 1);
  a.b(loop);
  a.bind(done);
  a.mov(R(0), R(1));
  a.ret();
  EXPECT_EQ(run(a, {50}), 50u);
  const u64 patches_before = core::collect_perf(cpu_).threaded_patches;
  ASSERT_GT(patches_before, 0u);

  // flush_blocks() bumps the cache version: every patched edge is void and
  // the re-run must re-translate and re-patch, not follow stale streams.
  cpu_.flush_blocks();
  EXPECT_EQ(cpu_.call_function(kCode, {50}), 50u);
  const core::PerfCounters perf = core::collect_perf(cpu_);
  EXPECT_GT(perf.threaded_patches, patches_before);
  EXPECT_GT(perf.tb_flushes, 0u);
}

TEST_F(ThreadedFixture, InterpreterMatchesThreadedTier) {
  Assembler a(kCode);
  Label loop, done;
  a.mov_imm(R(1), 7);
  a.mov_imm(R(2), 0);
  a.bind(loop);
  a.cmp_imm(R(0), 0);
  a.b(done, Cond::kEQ);
  a.mul(R(1), R(1), R(1));
  a.eor(R(2), R(2), R(1));
  a.add_imm(R(2), R(2), 13);
  a.sub_imm(R(0), R(0), 1);
  a.b(loop);
  a.bind(done);
  a.mov(R(0), R(2));
  a.ret();
  const u32 threaded_result = run(a, {37});

  cpu_.set_engine(arm::Engine::kInterp);
  const u64 links_before = core::collect_perf(cpu_).threaded_links;
  EXPECT_EQ(cpu_.call_function(kCode, {37}), threaded_result);
  // The interpreter must not touch the linking machinery at all.
  EXPECT_EQ(core::collect_perf(cpu_).threaded_links, links_before);

  cpu_.set_engine(arm::Engine::kThreaded);
  EXPECT_EQ(cpu_.call_function(kCode, {37}), threaded_result);
}

TEST_F(ThreadedFixture, GatedHooksStayFastpathInsideThreadedLoop) {
  // A gated hook with an always-false block gate: the threaded loop must
  // keep executing the clean (hook-free) uop streams and account the
  // skipped blocks.
  u64 fired = 0;
  cpu_.add_insn_hook(
      [&fired](Cpu&, const arm::Insn&, GuestAddr) { ++fired; },
      /*gated=*/true);
  cpu_.set_block_gate(
      [](Cpu&, arm::TranslationBlock&) { return false; });

  Assembler a(kCode);
  Label loop, done;
  a.mov_imm(R(1), 0);
  a.bind(loop);
  a.cmp_imm(R(0), 0);
  a.b(done, Cond::kEQ);
  a.add_imm(R(1), R(1), 2);
  a.sub_imm(R(0), R(0), 1);
  a.b(loop);
  a.bind(done);
  a.mov(R(0), R(1));
  a.ret();
  EXPECT_EQ(run(a, {200}), 400u);
  EXPECT_EQ(fired, 0u);

  const core::PerfCounters perf = core::collect_perf(cpu_);
  EXPECT_GT(perf.fastpath_blocks, 0u);
  EXPECT_GT(perf.fastpath_insns, 0u);
  EXPECT_GT(perf.threaded_links, 0u);  // gating must not inhibit linking
}

TEST_F(ThreadedFixture, UngatedHookFiresOnEveryInstructionWhenThreaded) {
  u64 fired = 0;
  cpu_.add_insn_hook(
      [&fired](Cpu&, const arm::Insn&, GuestAddr) { ++fired; });

  Assembler a(kCode);
  a.mov_imm(R(0), 1);
  a.add_imm(R(0), R(0), 2);
  a.add_imm(R(0), R(0), 4);
  a.ret();
  EXPECT_EQ(run(a), 7u);
  EXPECT_EQ(fired, 4u);  // three ALU ops + the return
}

TEST(Engine, SetEngineRecordsTierAndCouplesTlb) {
  mem::AddressSpace mem;
  mem::MemoryMap map;
  Cpu cpu(mem, map);
  EXPECT_EQ(cpu.engine(), arm::Engine::kThreaded);  // production default
  cpu.set_engine(arm::Engine::kInterp);
  EXPECT_EQ(cpu.engine(), arm::Engine::kInterp);
  EXPECT_FALSE(mem.tlb_enabled());  // the oracle walks the page directory
  cpu.set_engine(arm::Engine::kThreaded);
  EXPECT_EQ(cpu.engine(), arm::Engine::kThreaded);
  EXPECT_TRUE(mem.tlb_enabled());
}

}  // namespace
}  // namespace ndroid
