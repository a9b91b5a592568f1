// Template JIT tier: host-code compilation and version-fenced direct links
// (compile + link + patch counters), the stale-chain hazard under emitted
// code (a self-modifying store into a *linked successor* must void the
// patched host edge), code-arena exhaustion (flush-and-recompile at the
// dispatch-loop safe point), strict W^X mode, and parity with the threaded
// tier. Hosts without host-code emission exercise the degrade path:
// set_engine(kJit) records kThreaded and everything rides the threaded tier.
#include <gtest/gtest.h>

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
using arm::R;

class JitFixture : public ::testing::Test {
 protected:
  static constexpr GuestAddr kCode = 0x10000;
  // Separate page from kCode so per-page invalidation of the patched
  // subroutine leaves the caller's blocks translated.
  static constexpr GuestAddr kTail = kCode + 0x1000;

  JitFixture() : cpu_(mem_, map_) {
    // RWX so the self-modifying-code tests can store into code pages.
    map_.add("code", kCode, 0x4000, mem::kRWX);
    map_.add("data", 0x20000, 0x8000, mem::kRW);
    map_.add("[stack]", 0x70000, 0x10000, mem::kRW);
    cpu_.set_initial_sp(0x80000);
    cpu_.set_engine(arm::Engine::kJit);
  }

  u32 run(Assembler& a, const std::vector<u32>& args = {}) {
    mem_.write_bytes(kCode, a.finish());
    return cpu_.call_function(kCode, args);
  }

  static u32 encode(void (*emit)(Assembler&)) {
    Assembler p(0);
    emit(p);
    const std::vector<u8>& bytes = p.finish();
    return static_cast<u32>(bytes[0]) | (static_cast<u32>(bytes[1]) << 8) |
           (static_cast<u32>(bytes[2]) << 16) |
           (static_cast<u32>(bytes[3]) << 24);
  }

  /// The mixed workload every mode variant below must agree on: ALU, loads
  /// and stores through the data page, and a counted loop. The accumulator
  /// round-trips through memory every iteration (str then ldr feeds the
  /// next add), so a wrong load or store changes the result. Each iteration
  /// adds 8: run(a, {n}) == n * 8.
  static void emit_workload(Assembler& a) {
    Label loop, done;
    a.mov_imm(R(1), 0);
    a.mov_imm32(R(2), 0x20000);
    a.bind(loop);
    a.cmp_imm(R(0), 0);
    a.b(done, Cond::kEQ);
    a.add_imm(R(1), R(1), 3);
    a.str(R(1), R(2), 4);
    a.ldr(R(3), R(2), 4);
    a.add_imm(R(1), R(3), 5);
    a.sub_imm(R(0), R(0), 1);
    a.b(loop);
    a.bind(done);
    a.mov(R(0), R(1));
    a.ret();
  }

  mem::AddressSpace mem_;
  mem::MemoryMap map_;
  Cpu cpu_;
};

TEST_F(JitFixture, UnavailableHostDegradesToThreaded) {
  // The jit tier is only ever recorded where host code can actually run;
  // NDROID_NO_JIT / non-x86-64 builds get the threaded tier instead.
  if (!Cpu::jit_available()) {
    EXPECT_EQ(cpu_.engine(), arm::Engine::kThreaded);
    Assembler a(kCode);
    emit_workload(a);
    EXPECT_EQ(run(a, {100}), 800u);
    EXPECT_EQ(core::collect_perf(cpu_).jit_blocks, 0u);
  } else {
    EXPECT_EQ(cpu_.engine(), arm::Engine::kJit);
  }
}

TEST(Engine, SetEngineRecordsTierAndCouplesTlb) {
  mem::AddressSpace mem;
  mem::MemoryMap map;
  Cpu cpu(mem, map);
  EXPECT_EQ(cpu.engine(), arm::Engine::kThreaded);  // production default
  cpu.set_engine(arm::Engine::kInterp);
  EXPECT_EQ(cpu.engine(), arm::Engine::kInterp);
  EXPECT_FALSE(mem.tlb_enabled());  // the oracle walks the page directory
  cpu.set_engine(arm::Engine::kJit);
  EXPECT_EQ(cpu.engine(), Cpu::jit_available() ? arm::Engine::kJit
                                               : arm::Engine::kThreaded);
  EXPECT_TRUE(mem.tlb_enabled());
}

TEST_F(JitFixture, HotLoopCompilesAndFollowsHostLinks) {
  if (!Cpu::jit_available()) GTEST_SKIP() << "no host code emission";
  Assembler a(kCode);
  emit_workload(a);
  EXPECT_EQ(run(a, {1000}), 8000u);

  const core::PerfCounters perf = core::collect_perf(cpu_);
  EXPECT_GT(perf.jit_blocks, 0u);
  EXPECT_GT(perf.jit_bytes, 0u);
  // The loop's back edge gets patched once and then followed natively on
  // every iteration.
  EXPECT_GT(perf.jit_patches, 0u);
  EXPECT_GT(perf.jit_links, perf.jit_patches);
  // Linked transitions still count as cache hits so hit rates stay
  // comparable with the other tiers.
  EXPECT_GT(perf.tb_hit_rate(), 0.9);
}

TEST_F(JitFixture, SelfModifyingStoreIntoLinkedSuccessorUnlinksEdge) {
  if (!Cpu::jit_available()) GTEST_SKIP() << "no host code emission";
  // The stale-chain hazard under emitted code: link caller -> tail as a
  // host jump, then store over the tail's first instruction. The version
  // fence in the emitted link tail must bounce the transition out to a
  // fresh translation instead of running stale host code.
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
  //   3 * 1 + 100 = 103.  A stale host edge would yield 4.
  EXPECT_EQ(run(a), 103u);

  const core::PerfCounters perf = core::collect_perf(cpu_);
  EXPECT_GT(perf.jit_patches, 0u);     // the edge really was host-linked
  EXPECT_GT(perf.tb_invalidated, 0u);  // and the store really killed it
}

TEST_F(JitFixture, ArenaExhaustionFlushesAndRecompiles) {
  if (!Cpu::jit_available()) GTEST_SKIP() << "no host code emission";
  // An arena too small for the working set forces the exhaustion protocol:
  // flush_pending -> (safe point) flush + reset + new generation ->
  // recompile on demand. Results must not change.
  cpu_.set_jit_config(/*arena_bytes=*/1024, /*wx=*/false);
  Assembler a(kCode);
  emit_workload(a);
  EXPECT_EQ(run(a, {1000}), 8000u);

  const core::PerfCounters perf = core::collect_perf(cpu_);
  EXPECT_GT(perf.jit_arena_flushes, 0u);
  // Execution made progress regardless of how often the arena recycled
  // (blocks that never fit ride the threaded tier via their tombstones).
  EXPECT_EQ(cpu_.call_function(kCode, {10}), 80u);
}

TEST_F(JitFixture, StrictWxModeExecutes) {
  if (!Cpu::jit_available()) GTEST_SKIP() << "no host code emission";
  cpu_.set_jit_config(/*arena_bytes=*/1u << 20, /*wx=*/true);
  Assembler a(kCode);
  emit_workload(a);
  EXPECT_EQ(run(a, {500}), 4000u);
  EXPECT_GT(core::collect_perf(cpu_).jit_blocks, 0u);
}

TEST_F(JitFixture, ThreadedTierMatchesJit) {
  Assembler a(kCode);
  emit_workload(a);
  const u32 jit_result = run(a, {123});

  cpu_.set_engine(arm::Engine::kThreaded);
  const u64 links_before = core::collect_perf(cpu_).jit_links;
  const u32 threaded_result = cpu_.call_function(kCode, {123});
  EXPECT_EQ(threaded_result, jit_result);
  // The threaded tier must not touch the host-linking machinery at all.
  EXPECT_EQ(core::collect_perf(cpu_).jit_links, links_before);

  cpu_.set_engine(arm::Engine::kJit);
  EXPECT_EQ(cpu_.call_function(kCode, {123}), jit_result);
}

TEST_F(JitFixture, UnfusedHooksFallBackToThreadedAndFireExactly) {
  // A raw (un-fused) instruction hook has no TraceEmitter or TaintJitView
  // behind it, so emitted code cannot reproduce it: the dispatch loop must
  // route every hooked dispatch off the jit tier to the threaded streams
  // (per-instruction semantics), recording the detour in the fallback
  // counter. Only the fused single-hook analysis shape (below) earns the
  // traced host stream.
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
  if (Cpu::jit_available()) {
    const core::PerfCounters perf = core::collect_perf(cpu_);
    EXPECT_GT(perf.jit_fallback_blocks, 0u);
    EXPECT_EQ(perf.jit_traced_blocks, 0u);
  }
}

// --- Taint-fused traced streams (NDroid-shaped fused analysis) ------------

/// One full-analysis run of a tainted word-copy kernel: NDroid attached,
/// source range + a callee-saved register tainted (liveness never clears,
/// so the gate fires on every block), `n` words copied src -> dst with an
/// ALU hop in between. Returns the result, the per-byte destination labels,
/// and the perf counters, so callers can diff tiers bit for bit.
struct TaintRun {
  u32 result = 0;
  std::vector<Taint> dst_labels;
  u64 propagations = 0;
  core::PerfCounters perf;
};

TaintRun run_tainted_copy(bool jit, u32 n, std::size_t arena_bytes = 0,
                          u32 pad = 0) {
  android::Device device("jit-traced-test");
  device.cpu.set_engine(jit ? arm::Engine::kJit : arm::Engine::kThreaded);
  if (arena_bytes != 0) {
    device.cpu.set_jit_config(arena_bytes, /*wx=*/false);
  }
  core::NDroid nd(device);

  const GuestAddr src = device.libc.malloc_guest(4 * n);
  const GuestAddr dst = device.libc.malloc_guest(4 * n);
  device.memory.fill(src, 0x5A, 4 * n);
  nd.taint_engine().map().set_range(src, 4 * n, 0x2);
  nd.taint_engine().set_reg(4, 0x2);  // liveness anchor (never written)

  const GuestAddr base = device.next_lib_base();
  Assembler a(base);
  Label loop, done;
  // r0 = words, r1 = src, r2 = dst: ldr -> add (Table V ALU hop) -> str.
  a.mov_imm(R(3), 0);
  a.bind(loop);
  a.cmp_imm(R(0), 0);
  a.b(done, Cond::kEQ);
  a.ldr_post(R(3), R(1), 4);
  a.add_imm(R(3), R(3), 1);
  // Optional straight-line padding (taint- and value-neutral): inflates the
  // loop body across several translation blocks so the emitted dual-stream
  // host code can outgrow a deliberately undersized arena mid-run.
  for (u32 i = 0; i < pad; ++i) a.add_imm(R(3), R(3), 0);
  a.str_post(R(3), R(2), 4);
  a.sub_imm(R(0), R(0), 1);
  a.b(loop);
  a.bind(done);
  a.mov(R(0), R(3));
  a.ret();
  device.load_native_lib("libtaintcopy.so", a.finish());

  TaintRun out;
  out.result = device.cpu.call_function(base, {n, src, dst});
  out.dst_labels.reserve(4 * n);
  for (u32 i = 0; i < 4 * n; ++i) {
    out.dst_labels.push_back(nd.taint_engine().map().get(dst + i));
  }
  out.propagations = nd.taint_engine().propagations;
  out.perf = core::collect_perf(device.cpu);
  return out;
}

TEST(JitTraced, TracedStreamMatchesThreadedTaintBitForBit) {
  // The taint-fused host stream must be observationally identical to the
  // threaded fused-trace tier: same guest result, same per-byte destination
  // labels (zero missed propagations), same rule-application count.
  const TaintRun threaded = run_tainted_copy(/*jit=*/false, 64);
  const TaintRun jit = run_tainted_copy(/*jit=*/true, 64);

  EXPECT_EQ(jit.result, threaded.result);
  ASSERT_EQ(jit.dst_labels.size(), threaded.dst_labels.size());
  EXPECT_EQ(jit.dst_labels, threaded.dst_labels);
  for (const Taint t : jit.dst_labels) EXPECT_EQ(t, 0x2u);
  EXPECT_EQ(jit.propagations, threaded.propagations);

  EXPECT_EQ(threaded.perf.jit_traced_blocks, 0u);
  if (Cpu::jit_available()) {
    // The gate fired on every block, and the traced host stream (not the
    // threaded fallback) is what actually executed the hot loop.
    EXPECT_GT(jit.perf.jit_traced_blocks, 0u);
    EXPECT_GT(jit.perf.jit_traced_blocks, jit.perf.jit_fallback_blocks);
  }
}

TEST(JitTraced, ArenaFlushWithDualStreamsLiveLinked) {
  if (!Cpu::jit_available()) GTEST_SKIP() << "no host code emission";
  // Dual-stream arena accounting: clean + traced bodies share ONE arena
  // allocation, so an exhaustion flush while both streams are live-linked
  // must recycle them atomically — no stream of a pair may survive the
  // other. An undersized arena forces repeated flush/recompile cycles in
  // the middle of the tainted loop; results and labels must not change.
  const TaintRun big = run_tainted_copy(/*jit=*/true, 96, /*arena_bytes=*/0,
                                        /*pad=*/160);
  const TaintRun tiny = run_tainted_copy(/*jit=*/true, 96,
                                         /*arena_bytes=*/8 * 1024,
                                         /*pad=*/160);
  EXPECT_EQ(tiny.result, big.result);
  EXPECT_EQ(tiny.dst_labels, big.dst_labels);
  EXPECT_EQ(tiny.propagations, big.propagations);
  EXPECT_GT(tiny.perf.jit_arena_flushes, 0u);
  EXPECT_GT(tiny.perf.jit_traced_blocks, 0u);
}

}  // namespace
}  // namespace ndroid
