// Position-independent library artifacts (src/static/library_summary):
// content-hash keys, the zero-copy same-base bind, and the conservative
// relocation rules the farm's cross-app summary cache relies on.
#include <gtest/gtest.h>

#include <vector>

#include "arm/assembler.h"
#include "mem/address_space.h"
#include "static/library_summary.h"
#include "static/summary_cache.h"

namespace ndroid {
namespace {

namespace sa = static_analysis;
using arm::Assembler;
using arm::Cond;
using arm::Label;
using arm::LR;
using arm::R;

constexpr GuestAddr kBaseA = 0x10000;
constexpr GuestAddr kBaseB = 0x58000;

/// A three-function image assembled at `base`:
///   konst    — mov r0, #42; ret                (transparent)
///   stamp    — writes r0 into a fixed global   (kStatic window)
///   caller   — saves lr, bl konst, ret         (has a call site)
struct TestLib {
  std::vector<u8> image;
  GuestAddr konst = 0, stamp = 0, caller = 0;
  GuestAddr global = 0;
};

TestLib assemble(GuestAddr base) {
  Assembler a(base);
  TestLib lib;

  Label konst_lbl;
  a.align(4);
  a.bind(konst_lbl);
  lib.konst = a.here();
  a.mov_imm(R(0), 42);
  a.ret();

  a.align(4);
  lib.global = a.here();
  a.word(0);

  a.align(4);
  lib.stamp = a.here();
  a.mov_imm32(R(3), lib.global);
  a.str(R(0), R(3));
  a.ret();

  a.align(4);
  lib.caller = a.here();
  a.push({R(4), LR});
  a.bl(konst_lbl);
  a.pop({R(4), LR});
  a.ret();

  lib.image = a.finish();
  return lib;
}

std::vector<sa::FunctionEntry> entries_of(const TestLib& lib) {
  return {{lib.konst, "konst"}, {lib.stamp, "stamp"}, {lib.caller, "caller"}};
}

sa::LibrarySummary analyze_at(GuestAddr base, const TestLib& lib) {
  mem::AddressSpace mem;
  mem.write_bytes(base, lib.image);
  const sa::CodeRegion region{base, base + static_cast<u32>(lib.image.size()),
                              "libtest.so"};
  return sa::analyze_library(mem, region, entries_of(lib));
}

TEST(LibrarySummary, KeyIgnoresEntryOrderAndLoadBase) {
  const TestLib at_a = assemble(kBaseA);
  const TestLib at_a2 = at_a;

  std::vector<sa::FunctionEntry> fwd = entries_of(at_a);
  std::vector<sa::FunctionEntry> rev(fwd.rbegin(), fwd.rend());
  EXPECT_EQ(sa::library_key(at_a.image, fwd, kBaseA),
            sa::library_key(at_a2.image, rev, kBaseA));

  // Same offsets at a different claimed base: the key is position-free.
  std::vector<sa::FunctionEntry> shifted;
  for (const sa::FunctionEntry& e : fwd) {
    shifted.push_back({e.addr - kBaseA + kBaseB, e.name});
  }
  EXPECT_EQ(sa::library_key(at_a.image, fwd, kBaseA),
            sa::library_key(at_a.image, shifted, kBaseB));
}

TEST(LibrarySummary, KeyChangesWithEveryImageByte) {
  // The key hashes the image a word at a time; pad the image so it ends in
  // a partial word and the tail bytes are covered too.
  std::vector<u8> image = assemble(kBaseA).image;
  image.insert(image.end(), {0x11, 0x22, 0x33});
  ASSERT_NE(image.size() % 8, 0u);
  const std::vector<sa::FunctionEntry> entries = {{kBaseA, "entry"}};
  const u64 key = sa::library_key(image, entries, kBaseA);
  for (std::size_t i = 0; i < image.size(); ++i) {
    for (const u8 mask : {0x01, 0x80}) {
      image[i] ^= mask;
      EXPECT_NE(sa::library_key(image, entries, kBaseA), key)
          << "byte " << i << " mask " << int{mask};
      image[i] ^= mask;
    }
  }
  // The tail word is zero-padded, so a trailing zero byte changes only the
  // length, which is hashed too.
  image.push_back(0);
  EXPECT_NE(sa::library_key(image, entries, kBaseA), key);
}

TEST(LibrarySummary, SameBaseBindIsZeroCopy) {
  const TestLib lib = assemble(kBaseA);
  auto snapshot =
      std::make_shared<const sa::LibrarySummary>(analyze_at(kBaseA, lib));
  EXPECT_EQ(sa::bind_library(snapshot, kBaseA).get(), snapshot.get());
}

TEST(LibrarySummary, RebindShiftsStructure) {
  const TestLib lib = assemble(kBaseA);
  auto snapshot =
      std::make_shared<const sa::LibrarySummary>(analyze_at(kBaseA, lib));
  const auto bound = sa::bind_library(snapshot, kBaseB);
  const GuestAddr delta = kBaseB - kBaseA;

  ASSERT_NE(bound.get(), snapshot.get());
  EXPECT_EQ(bound->lifted_base, kBaseB);
  EXPECT_EQ(bound->key, snapshot->key);

  for (const auto& [entry, fn] : snapshot->program.functions) {
    const auto it = bound->program.functions.find(entry + delta);
    ASSERT_NE(it, bound->program.functions.end()) << fn.name;
    EXPECT_EQ(it->second.name, fn.name);
    EXPECT_EQ(it->second.lo, fn.lo + delta);
    EXPECT_EQ(it->second.hi, fn.hi + delta);
    EXPECT_EQ(it->second.blocks.size(), fn.blocks.size());
  }
  // Instruction boundaries (the gate's mid-instruction defence) shift too.
  for (const auto& [entry, bounds] : snapshot->boundaries) {
    const auto it = bound->boundaries.find(entry + delta);
    ASSERT_NE(it, bound->boundaries.end());
    EXPECT_EQ(it->second.size(), bounds.size());
    for (const GuestAddr pc : bounds) {
      EXPECT_TRUE(it->second.contains(pc + delta));
    }
  }
}

TEST(LibrarySummary, TransparentCallFreeFunctionRelocatesLosslessly) {
  const TestLib lib = assemble(kBaseA);
  auto snapshot =
      std::make_shared<const sa::LibrarySummary>(analyze_at(kBaseA, lib));
  const sa::TaintSummary* before = snapshot->index.find(lib.konst);
  ASSERT_NE(before, nullptr);
  ASSERT_TRUE(before->transparent) << "fixture expects konst transparent";

  const auto bound = sa::bind_library(snapshot, kBaseB);
  const sa::TaintSummary* after =
      bound->index.find(lib.konst + (kBaseB - kBaseA));
  ASSERT_NE(after, nullptr);
  EXPECT_TRUE(after->transparent);
  EXPECT_EQ(after->mem_kind, sa::MemKind::kNone);
  EXPECT_EQ(after->touched_regs, before->touched_regs);
  EXPECT_EQ(after->args_to_ret, before->args_to_ret);
}

TEST(LibrarySummary, ConstantWindowsDegradeToOpaqueOnRebind) {
  const TestLib lib = assemble(kBaseA);
  auto snapshot =
      std::make_shared<const sa::LibrarySummary>(analyze_at(kBaseA, lib));
  const sa::TaintSummary* before = snapshot->index.find(lib.stamp);
  ASSERT_NE(before, nullptr);
  ASSERT_EQ(before->mem_kind, sa::MemKind::kStatic)
      << "fixture expects stamp's store resolved to a constant window";

  const auto bound = sa::bind_library(snapshot, kBaseB);
  const sa::TaintSummary* after =
      bound->index.find(lib.stamp + (kBaseB - kBaseA));
  ASSERT_NE(after, nullptr);
  // The MOVW/MOVT-derived window points at the old absolute address; the
  // relocated summary must not claim to know where the store lands.
  EXPECT_EQ(after->mem_kind, sa::MemKind::kOpaque);
  EXPECT_TRUE(after->windows.empty());
}

TEST(LibrarySummary, CallSitesReResolveOnRebind) {
  const TestLib lib = assemble(kBaseA);
  auto snapshot =
      std::make_shared<const sa::LibrarySummary>(analyze_at(kBaseA, lib));
  const sa::TaintSummary* before = snapshot->index.find(lib.caller);
  ASSERT_NE(before, nullptr);
  ASSERT_FALSE(before->unresolved_calls)
      << "fixture expects caller's BL edge resolved at the lifted base";

  const auto bound = sa::bind_library(snapshot, kBaseB);
  const GuestAddr delta = kBaseB - kBaseA;
  const sa::TaintSummary* after = bound->index.find(lib.caller + delta);
  ASSERT_NE(after, nullptr);
  // BL edges are PC-relative: they shift with the code and the rebound
  // summary fixed point recomputes genuine facts through them — no
  // worst-case fallback.
  EXPECT_FALSE(after->unresolved_calls);
  EXPECT_EQ(after->args_to_ret, before->args_to_ret);
  EXPECT_EQ(after->args_to_mem, before->args_to_mem);
  EXPECT_EQ(after->ret_depends_on_mem, before->ret_depends_on_mem);
  EXPECT_EQ(after->touched_regs, before->touched_regs);

  // The relocated call graph really carries the shifted edge.
  const sa::FunctionCfg* caller_fn =
      bound->program.function(lib.caller + delta);
  ASSERT_NE(caller_fn, nullptr);
  ASSERT_EQ(caller_fn->callees.size(), 1u);
  EXPECT_EQ(caller_fn->callees[0] & ~1u, lib.konst + delta);
}

TEST(SummaryCache, HitsShareOneSnapshotAndRebindsCount) {
  const TestLib lib = assemble(kBaseA);
  sa::SummaryCache cache;
  const u64 key = sa::library_key(lib.image, entries_of(lib), kBaseA);

  int lifts = 0;
  const auto lift = [&] {
    ++lifts;
    return analyze_at(kBaseA, lib);
  };
  const auto first = cache.acquire(key, kBaseA, lift);
  const auto second = cache.acquire(key, kBaseA, lift);
  const auto moved = cache.acquire(key, kBaseB, lift);

  EXPECT_EQ(lifts, 1);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_NE(moved.get(), first.get());
  EXPECT_EQ(moved->lifted_base, kBaseB);

  const sa::SummaryCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.rebinds, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace ndroid
