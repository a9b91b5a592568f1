// Threaded-code execution tier: direct block linking (patch + follow
// counters), the stale-chain hazard (a self-modifying store into a *linked
// successor* must void the patched edge, not just the block), parity with
// the interpreter oracle, gate interaction (clean blocks keep the
// zero-hook fast path inside the threaded loop), and engine selection.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

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

TEST_F(ThreadedFixture, StoreHookInstalledAfterTranslationSeesEveryStore) {
  // push {r4, lr}; 10 x (str r2, [r1]; strb r2, [r1, #4]); pop {r4, pc}:
  // 21 store-class instructions per call.
  constexpr GuestAddr kData = 0x74000;
  Assembler a(kCode);
  Label loop;
  a.push({R(4), arm::LR});
  a.mov_imm32(R(1), kData);
  a.mov_imm(R(2), 10);
  a.bind(loop);
  a.str(R(2), R(1), 0);
  a.strb(R(2), R(1), 4);
  a.sub_imm(R(2), R(2), 1, /*s=*/true);
  a.b(loop, Cond::kNE);
  a.pop({R(4), arm::PC});
  run(a);  // translates every block with no hook installed
  ASSERT_GT(cpu_.tb_cache().size(), 0u);

  struct Seen {
    u32 calls = 0;
    u32 word_stores = 0;
    u32 stale_before_store = 0;  // memory still held the old word
  } seen;
  cpu_.set_store_hook({[](void* ctx, Cpu& cpu, const arm::Insn& insn,
                          GuestAddr) {
                         auto* s = static_cast<Seen*>(ctx);
                         ++s->calls;
                         if (insn.op == arm::Op::kStr) {
                           ++s->word_stores;
                           const auto& r = cpu.state().regs;
                           if (cpu.memory().read32(r[1]) != r[2]) {
                             ++s->stale_before_store;
                           }
                         }
                       },
                       &seen});
  for (arm::Engine engine : {arm::Engine::kThreaded, arm::Engine::kInterp}) {
    SCOPED_TRACE(engine == arm::Engine::kInterp ? "interp" : "threaded");
    cpu_.set_engine(engine);
    seen = Seen{};
    cpu_.call_function(kCode, {});
    EXPECT_EQ(seen.calls, 21u);
    EXPECT_EQ(seen.word_stores, 10u);
    // Called before each store executes: every str found the word the
    // previous call or iteration left, never the one it is about to write.
    EXPECT_EQ(seen.stale_before_store, 10u);
  }
  cpu_.set_store_hook({});
  seen = Seen{};
  cpu_.call_function(kCode, {});
  EXPECT_EQ(seen.calls, 0u);
}

// --- Helpers and SVCs inside the threaded loop ---------------------------
//
// The threaded tier runs window helpers and SVC handlers in place and then
// resumes through the front cache. Each scenario runs on the interpreter
// oracle and on the threaded tier: the result, the fault, the retired
// instruction count and the side effects must agree.

class InLoopFixture : public ThreadedFixture {
 protected:
  struct Outcome {
    u32 r0 = 0;
    u64 retired = 0;
    std::string fault;  // empty: the call returned
    bool operator==(const Outcome&) const = default;
  };

  Outcome run_on(arm::Engine engine, GuestAddr entry,
                 const std::vector<u32>& args = {}) {
    cpu_.set_engine(engine);
    const u64 before = cpu_.instructions_retired();
    Outcome o;
    try {
      o.r0 = cpu_.call_function(entry, args);
    } catch (const GuestFault& e) {
      o.fault = e.what();
    }
    o.retired = cpu_.instructions_retired() - before;
    return o;
  }

  /// Runs `entry` on both engines, resetting `side` before each run, and
  /// checks that outcome and side effect agree; returns the threaded one.
  template <typename Side>
  Outcome run_both(GuestAddr entry, Side& side,
                   const std::vector<u32>& args = {}) {
    side = Side{};
    const Outcome interp = run_on(arm::Engine::kInterp, entry, args);
    const Side interp_side = side;
    side = Side{};
    const Outcome threaded = run_on(arm::Engine::kThreaded, entry, args);
    EXPECT_EQ(threaded, interp);
    EXPECT_EQ(side, interp_side);
    return threaded;
  }

  void install(Assembler& a) { mem_.write_bytes(a.base(), a.finish()); }
};

TEST_F(InLoopFixture, HelperReentersGuestThroughCallFunction) {
  // tail(x) = 2x + 1, called from inside the helper.
  Assembler t(kTail);
  t.add(R(0), R(0), R(0));
  t.add_imm(R(0), R(0), 1);
  t.ret();
  install(t);
  u32 calls = 0;
  const GuestAddr h = cpu_.register_helper_auto([&calls](Cpu& c) {
    ++calls;
    c.state().regs[0] = c.call_function(kTail, {c.state().regs[0]});
  });

  Assembler a(kCode);
  Label loop;
  a.push({R(4), arm::LR});
  a.mov_imm(R(4), 5);
  a.mov_imm(R(0), 0);
  a.bind(loop);
  a.call(h);
  a.sub_imm(R(4), R(4), 1, /*s=*/true);
  a.b(loop, Cond::kNE);
  a.pop({R(4), arm::PC});
  install(a);

  const Outcome o = run_both(kCode, calls);
  EXPECT_EQ(o.r0, 31u);  // 0 -> 1 -> 3 -> 7 -> 15 -> 31
  EXPECT_EQ(calls, 5u);
  EXPECT_TRUE(o.fault.empty());
}

TEST_F(InLoopFixture, HelperRedirectingThePcContinuesThere) {
  // The helper tail-calls `tail` (r0 += 10, return to the caller's LR).
  Assembler t(kTail);
  t.add_imm(R(0), R(0), 10);
  t.ret();
  install(t);
  u32 calls = 0;
  const GuestAddr h = cpu_.register_helper_auto([&calls](Cpu& c) {
    ++calls;
    c.state().set_pc(kTail);
  });

  Assembler a(kCode);
  Label loop;
  a.push({R(4), arm::LR});
  a.mov_imm(R(4), 3);
  a.mov_imm(R(0), 0);
  a.bind(loop);
  a.call(h);
  a.add_imm(R(0), R(0), 1);
  a.sub_imm(R(4), R(4), 1, /*s=*/true);
  a.b(loop, Cond::kNE);
  a.pop({R(4), arm::PC});
  install(a);

  EXPECT_EQ(run_both(kCode, calls).r0, 33u);
  EXPECT_EQ(calls, 3u);
}

TEST_F(InLoopFixture, HelperFaultRetiresTheHelperAndUnwinds) {
  u32 calls = 0;
  const GuestAddr h = cpu_.register_helper_auto([&calls](Cpu& c) {
    if (++calls == 3) throw GuestFault("helper fault");
    c.state().regs[0] += 1;
  });
  Assembler a(kCode);
  Label loop;
  a.push({R(4), arm::LR});
  a.mov_imm(R(4), 5);
  a.mov_imm(R(0), 0);
  a.bind(loop);
  a.call(h);
  a.sub_imm(R(4), R(4), 1, /*s=*/true);
  a.b(loop, Cond::kNE);
  a.pop({R(4), arm::PC});
  install(a);

  const Outcome o = run_both(kCode, calls);
  EXPECT_EQ(o.fault, "helper fault");
  EXPECT_EQ(calls, 3u);
  // No helper is left marked running: the window may grow again.
  EXPECT_NO_THROW(
      cpu_.register_helper(arm::kHelperWindowBase + 4 * 4096, [](Cpu&) {}));
}

TEST_F(InLoopFixture, HelperThatFlushesBlocks) {
  u32 calls = 0;
  const GuestAddr h = cpu_.register_helper_auto([&calls](Cpu& c) {
    ++calls;
    c.flush_blocks();
    c.state().regs[0] += 2;
  });
  Assembler a(kCode);
  Label loop;
  a.push({R(4), arm::LR});
  a.mov_imm(R(4), 4);
  a.mov_imm(R(0), 0);
  a.bind(loop);
  a.call(h);
  a.add_imm(R(0), R(0), 1);
  a.sub_imm(R(4), R(4), 1, /*s=*/true);
  a.b(loop, Cond::kNE);
  a.pop({R(4), arm::PC});
  install(a);

  EXPECT_EQ(run_both(kCode, calls).r0, 12u);
  EXPECT_EQ(calls, 4u);
}

TEST_F(InLoopFixture, HelperThatRewritesItsCallersCode) {
  // On its second call the helper stores over its caller's code: the block
  // that branched to it dies, and the instruction at the return site
  // becomes `add r0, r0, #100`. The continuation must execute the new
  // instruction, never the dead block's stream or a stale link.
  const u32 add100 = encode([](Assembler& p) { p.add_imm(R(0), R(0), 100); });
  Assembler a(kCode);
  Label loop;
  a.push({R(4), arm::LR});
  a.mov_imm(R(4), 3);
  a.mov_imm(R(0), 0);
  a.bind(loop);
  const GuestAddr call_site = a.here();
  GuestAddr return_site = 0;
  u32 original = 0;
  struct Side {
    u32 calls = 0;
    bool operator==(const Side&) const = default;
  } side;
  const GuestAddr h = cpu_.register_helper_auto(
      [&side, &return_site, &original, call_site, add100](Cpu& c) {
        ++side.calls;
        if (side.calls == 1) original = c.memory().read32(return_site);
        // Rewrite the call sequence's first word with itself: kills the
        // caller's block without changing it.
        c.memory().write32(call_site, c.memory().read32(call_site));
        if (side.calls == 2) c.memory().write32(return_site, add100);
      });
  a.call(h);
  return_site = a.here();
  a.add_imm(R(0), R(0), 1);
  a.sub_imm(R(4), R(4), 1, /*s=*/true);
  a.b(loop, Cond::kNE);
  a.pop({R(4), arm::PC});
  const std::vector<u8> code = a.finish();

  Outcome runs[2];
  for (arm::Engine engine : {arm::Engine::kInterp, arm::Engine::kThreaded}) {
    mem_.write_bytes(kCode, code);  // the original code for every run
    side = Side{};
    runs[engine == arm::Engine::kThreaded] = run_on(engine, kCode);
    EXPECT_EQ(side.calls, 3u);
  }
  EXPECT_EQ(runs[1], runs[0]);
  EXPECT_EQ(runs[1].r0, 1u + 100u + 100u);
  EXPECT_NE(original, add100);
}

TEST_F(InLoopFixture, BudgetEndingExactlyAtAHelper) {
  u32 calls = 0;
  const GuestAddr h = cpu_.register_helper_auto([&calls](Cpu& c) {
    ++calls;
    c.state().regs[0] = 9;
  });
  Assembler a(kCode);
  a.push({R(4), arm::LR});
  a.mov_imm(R(0), 0);
  a.call(h);
  const u32 before_helper = (a.here() - kCode) / 4;
  a.add_imm(R(0), R(0), 1);
  a.pop({R(4), arm::PC});
  install(a);

  // The budget runs out on the helper's address: it must not run.
  cpu_.set_step_budget(before_helper);
  Outcome o = run_both(kCode, calls);
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(o.retired, before_helper);
  EXPECT_FALSE(o.fault.empty());
  // One more step runs the helper and nothing after it.
  cpu_.set_step_budget(before_helper + 1);
  o = run_both(kCode, calls);
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(o.retired, before_helper + 1);
  EXPECT_FALSE(o.fault.empty());
  cpu_.set_step_budget(before_helper + 3);
  o = run_both(kCode, calls);
  EXPECT_EQ(o.r0, 10u);
  EXPECT_TRUE(o.fault.empty());
}

TEST_F(InLoopFixture, HelperReturningToHostReturn) {
  // A tail jump to the helper: it returns straight to the host.
  u32 calls = 0;
  const GuestAddr h = cpu_.register_helper_auto([&calls](Cpu& c) {
    ++calls;
    c.state().regs[0] = 42;
  });
  Assembler a(kCode);
  a.mov_imm(R(0), 0);
  a.mov_imm32(arm::IP, h);
  a.bx(arm::IP);
  install(a);
  EXPECT_EQ(run_both(kCode, calls).r0, 42u);
  EXPECT_EQ(calls, 1u);
}

TEST_F(InLoopFixture, HelperReturnEdgeFiresBranchHooks) {
  // An ungated hook sees every taken edge, the helper's return edge
  // included, in the same order on both engines.
  struct Edges {
    std::vector<std::pair<GuestAddr, GuestAddr>> seen;
    bool operator==(const Edges&) const = default;
  } edges;
  cpu_.add_branch_hook([&edges](Cpu&, GuestAddr from, GuestAddr to) {
    edges.seen.emplace_back(from, to);
  });
  const GuestAddr h =
      cpu_.register_helper_auto([](Cpu& c) { c.state().regs[0] += 1; });
  Assembler a(kCode);
  Label loop;
  a.push({R(4), arm::LR});
  a.mov_imm(R(4), 3);
  a.mov_imm(R(0), 0);
  a.bind(loop);
  a.call(h);
  const GuestAddr return_site = a.here();
  a.sub_imm(R(4), R(4), 1, /*s=*/true);
  a.b(loop, Cond::kNE);
  a.pop({R(4), arm::PC});
  install(a);

  EXPECT_EQ(run_both(kCode, edges).r0, 3u);
  EXPECT_EQ(std::count(edges.seen.begin(), edges.seen.end(),
                       std::make_pair(h, return_site)),
            3);
}

TEST_F(InLoopFixture, GatedHelperReturnEdgeAsksTheGate) {
  // A gated hook behind a memoising gate that wants only edges leaving the
  // helper (the hook no-ops on every other edge, as a gated hook must):
  // the in-loop return has to ask the gate and fire on exactly those.
  struct Fired {
    u32 returns = 0;
    bool operator==(const Fired&) const = default;
  } fired;
  u64 epoch = 0;
  GuestAddr h = 0;
  cpu_.add_branch_hook(
      [&fired, &h](Cpu&, GuestAddr from, GuestAddr) {
        if (from == h) ++fired.returns;
      },
      /*gated=*/true);
  cpu_.set_branch_gate(
      [&h](Cpu&, GuestAddr from, GuestAddr) { return from == h; }, &epoch);
  h = cpu_.register_helper_auto([](Cpu& c) { c.state().regs[0] += 5; });
  Assembler a(kCode);
  Label loop;
  a.push({R(4), arm::LR});
  a.mov_imm(R(4), 4);
  a.mov_imm(R(0), 0);
  a.bind(loop);
  a.call(h);
  a.sub_imm(R(4), R(4), 1, /*s=*/true);
  a.b(loop, Cond::kNE);
  a.pop({R(4), arm::PC});
  install(a);

  EXPECT_EQ(run_both(kCode, fired).r0, 20u);
  EXPECT_EQ(fired.returns, 4u);
}

TEST_F(InLoopFixture, SvcContinuesInLoopAndExitSurfaces) {
  struct Svcs {
    u32 calls = 0;
    bool operator==(const Svcs&) const = default;
  } svcs;
  cpu_.set_svc_handler([&svcs](Cpu& c, u32 number) {
    ++svcs.calls;
    if (number == 1) c.state().regs[0] += 10;
    if (number == 2) {  // exit: back to the host at once
      c.state().regs[0] += 1000;
      c.state().set_pc(arm::kHostReturnAddr);
    }
  });
  Assembler a(kCode);
  Label loop;
  a.mov_imm(R(0), 0);
  a.mov_imm(R(1), 4);
  a.bind(loop);
  a.svc(1);
  a.add_imm(R(0), R(0), 1);
  a.sub_imm(R(1), R(1), 1, /*s=*/true);
  a.b(loop, Cond::kNE);
  a.svc(2);
  a.add_imm(R(0), R(0), 7);  // never runs
  a.ret();
  install(a);

  const Outcome o = run_both(kCode, svcs);
  EXPECT_EQ(o.r0, 4u * 11u + 1000u);
  EXPECT_EQ(svcs.calls, 5u);
  EXPECT_TRUE(o.fault.empty());
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
