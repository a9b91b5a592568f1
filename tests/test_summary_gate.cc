// Summary-gated dynamic instrumentation (the static-layer feedback path):
//
//  * soundness: every Table I leak case detects exactly the same leaks
//    under summary-gated instrumentation as under seed full tracing;
//  * effectiveness: the gate skips taint-irrelevant functions in situations
//    the liveness-only fast path must trace (taint live in a register the
//    function never touches / in memory its windows cannot reach).
#include <gtest/gtest.h>

#include <string>

#include "apps/cfbench.h"
#include "apps/leak_cases.h"
#include "core/ndroid.h"
#include "static/summary_cache.h"

namespace ndroid {
namespace {

struct CaseResult {
  bool detected = false;
  std::size_t native_leaks = 0;
  std::size_t framework_leaks = 0;
};

CaseResult run_case(apps::LeakScenario (*builder)(android::Device&),
                    bool summary_gated) {
  android::Device device;
  core::NDroidConfig cfg;
  if (!summary_gated) {
    // Seed full-trace configuration: no block gating at all.
    cfg.taint_liveness_fastpath = false;
    cfg.static_summaries = false;
  }
  core::NDroid nd(device, cfg);
  const auto scenario = builder(device);
  if (summary_gated) {
    EXPECT_NE(nd.attach_static_analysis(), nullptr) << "attach failed";
  }
  device.dvm.call(*scenario.entry, {});
  CaseResult r;
  r.native_leaks = nd.leaks().size();
  r.framework_leaks = device.framework.leaks().size();
  r.detected = r.native_leaks != 0 || r.framework_leaks != 0;
  return r;
}

TEST(SummaryGate, LeakParityOnAllTable1Cases) {
  for (const auto& [name, builder] : apps::all_cases()) {
    const CaseResult full = run_case(builder, /*summary_gated=*/false);
    const CaseResult gated = run_case(builder, /*summary_gated=*/true);
    EXPECT_EQ(full.detected, gated.detected) << name;
    EXPECT_EQ(full.native_leaks, gated.native_leaks) << name;
    EXPECT_EQ(full.framework_leaks, gated.framework_leaks) << name;
    EXPECT_TRUE(gated.detected) << name << ": NDroid must detect every case";
  }
}

TEST(SummaryGate, SkipsRegTaintOutsideFunctionFootprint) {
  // Taint r8 — no cfbench workload's Table V footprint includes it, but the
  // liveness gate sees live register taint and must trace every in-scope
  // block. The summary gate proves the intersection empty and skips.
  u64 baseline_propagations = 0;
  {
    android::Device device;
    core::NDroid nd(device);
    apps::CfBenchApp app(device);
    nd.taint_engine().set_reg(8, 0x40);
    app.run(*app.find("Native MIPS"), 200);
    baseline_propagations = nd.taint_engine().propagations;
    EXPECT_EQ(nd.summary_gate_skips, 0u);  // not attached
  }
  {
    android::Device device;
    core::NDroid nd(device);
    apps::CfBenchApp app(device);
    ASSERT_NE(nd.attach_static_analysis(), nullptr);
    nd.taint_engine().set_reg(8, 0x40);
    app.run(*app.find("Native MIPS"), 200);
    EXPECT_GT(nd.summary_gate_skips, 0u);
    EXPECT_EQ(nd.taint_engine().propagations, 0u)
        << "summary-gated run must not trace taint-irrelevant blocks";
    EXPECT_EQ(nd.taint_engine().reg(8), 0x40u) << "taint must survive intact";
  }
  EXPECT_GT(baseline_propagations, 0u)
      << "liveness-only gating must have traced these blocks";
}

TEST(SummaryGate, SkipsMemTaintOutsideStaticWindows) {
  // Taint one native-heap byte far from nativeMemRead's constant windows
  // (which live inside the .so image). Liveness gating must trace every
  // block containing loads; the summary gate checks the windows against the
  // shadow pages and skips.
  android::Device device;
  core::NDroid nd(device);
  apps::CfBenchApp app(device);
  ASSERT_NE(nd.attach_static_analysis(), nullptr);
  nd.taint_engine().map().add(android::Layout::kHeapBase + 0x100, 0x80);
  app.run(*app.find("Native Memory Read"), 50);
  EXPECT_GT(nd.summary_gate_skips, 0u);
  EXPECT_EQ(nd.taint_engine().propagations, 0u);
}

TEST(SummaryGate, ConservativeWhenTaintIntersectsFootprint) {
  // Control: a tainted argument — r2, inside every workload's footprint —
  // and the summary gate must NOT license a skip; the tracer runs as before.
  android::Device device;
  core::NDroid nd(device);
  apps::CfBenchApp app(device);
  ASSERT_NE(nd.attach_static_analysis(), nullptr);
  // nativeMips touches only r0-r3; its iteration count arrives in r2.
  device.dvm.call(*app.find("Native MIPS")->method, {dvm::Slot{50, 0x40}});
  EXPECT_GT(nd.taint_engine().propagations, 0u)
      << "intersecting taint must keep the tracer running";
}

/// The facts the gate acts on, compared field by field.
void expect_same_summary(const static_analysis::TaintSummary* a,
                         const static_analysis::TaintSummary* b,
                         GuestAddr pc) {
  ASSERT_EQ(a == nullptr, b == nullptr) << std::hex << pc;
  if (a == nullptr) return;
  EXPECT_EQ(a->entry, b->entry) << std::hex << pc;
  EXPECT_EQ(a->touched_regs, b->touched_regs) << std::hex << pc;
  EXPECT_EQ(a->mem_kind, b->mem_kind) << std::hex << pc;
  ASSERT_EQ(a->windows.size(), b->windows.size()) << std::hex << pc;
  for (std::size_t i = 0; i < a->windows.size(); ++i) {
    EXPECT_EQ(a->windows[i].lo, b->windows[i].lo) << std::hex << pc;
    EXPECT_EQ(a->windows[i].hi, b->windows[i].hi) << std::hex << pc;
  }
  EXPECT_EQ(a->has_svc, b->has_svc) << std::hex << pc;
  EXPECT_EQ(a->truncated, b->truncated) << std::hex << pc;
  EXPECT_EQ(a->unresolved_calls, b->unresolved_calls) << std::hex << pc;
  EXPECT_EQ(a->args_to_ret, b->args_to_ret) << std::hex << pc;
  EXPECT_EQ(a->args_to_mem, b->args_to_mem) << std::hex << pc;
  EXPECT_EQ(a->args_to_call, b->args_to_call) << std::hex << pc;
  EXPECT_EQ(a->ret_depends_on_mem, b->ret_depends_on_mem) << std::hex << pc;
  EXPECT_EQ(a->transparent, b->transparent) << std::hex << pc;
}

TEST(SummaryGate, AlternateBasesMatchAFreshBindAndRelocateOncePerBase) {
  namespace sa = static_analysis;
  android::Device device;
  apps::CfBenchApp app(device);
  const mem::Region* lib_region = device.memmap.find_by_name("libcfbench.so");
  ASSERT_NE(lib_region, nullptr);
  const sa::CodeRegion region{lib_region->start, lib_region->end,
                              lib_region->name};
  std::vector<sa::FunctionEntry> entries;
  for (const dvm::Method* m : device.dvm.native_methods()) {
    const GuestAddr stripped = m->native_addr & ~1u;
    if (stripped >= region.start && stripped < region.end) {
      entries.push_back({m->native_addr, m->name});
    }
  }
  ASSERT_FALSE(entries.empty());
  const auto snapshot = std::make_shared<const sa::LibrarySummary>(
      sa::analyze_library(device.memory, region, entries));
  const u64 key = sa::library_key(device.memory, region, entries);
  ASSERT_EQ(snapshot->key, key);

  sa::SummaryCache cache;
  int lifts = 0;
  const auto lift = [&] {
    ++lifts;
    return *snapshot;
  };
  const GuestAddr other = region.start + 0x00100000;
  for (int round = 0; round < 3; ++round) {
    for (const GuestAddr base : {region.start, other}) {
      const core::SummaryGate cached({cache.acquire(key, base, lift)});
      const core::SummaryGate fresh({sa::bind_library(snapshot, base)});
      std::size_t checked = 0;
      for (const auto& [entry, bounds] : fresh.libraries()[0]->boundaries) {
        for (const GuestAddr pc : bounds) {
          for (const bool thumb : {false, true}) {
            expect_same_summary(cached.lookup(pc, thumb),
                                fresh.lookup(pc, thumb), pc);
            ++checked;
          }
        }
      }
      EXPECT_GT(checked, 0u);
    }
  }
  EXPECT_EQ(lifts, 1);
  const sa::SummaryCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 5u);
  EXPECT_EQ(stats.rebinds, 1u);
}

}  // namespace
}  // namespace ndroid
