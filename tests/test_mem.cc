#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mem/address_space.h"
#include "mem/memory_map.h"
#include "mem/shadow_memory.h"

namespace ndroid::mem {
namespace {

TEST(AddressSpace, ZeroFilledByDefault) {
  AddressSpace mem;
  EXPECT_EQ(mem.read8(0x1000), 0u);
  EXPECT_EQ(mem.read32(0xDEADBEE0), 0u);
  EXPECT_EQ(mem.resident_pages(), 0u);
}

TEST(AddressSpace, ReadWriteRoundTrip) {
  AddressSpace mem;
  mem.write8(0x100, 0xAB);
  mem.write16(0x200, 0x1234);
  mem.write32(0x300, 0xCAFEBABE);
  mem.write64(0x400, 0x1122334455667788ull);
  EXPECT_EQ(mem.read8(0x100), 0xAB);
  EXPECT_EQ(mem.read16(0x200), 0x1234);
  EXPECT_EQ(mem.read32(0x300), 0xCAFEBABEu);
  EXPECT_EQ(mem.read64(0x400), 0x1122334455667788ull);
}

TEST(AddressSpace, LittleEndianLayout) {
  AddressSpace mem;
  mem.write32(0x100, 0x0A0B0C0D);
  EXPECT_EQ(mem.read8(0x100), 0x0D);
  EXPECT_EQ(mem.read8(0x103), 0x0A);
}

TEST(AddressSpace, CrossPageAccess) {
  AddressSpace mem;
  const GuestAddr addr = AddressSpace::kPageSize - 2;
  mem.write32(addr, 0x11223344);
  EXPECT_EQ(mem.read32(addr), 0x11223344u);
  EXPECT_EQ(mem.resident_pages(), 2u);
}

TEST(AddressSpace, CStringRoundTrip) {
  AddressSpace mem;
  mem.write_cstr(0x500, "hello JNI");
  EXPECT_EQ(mem.read_cstr(0x500), "hello JNI");
}

TEST(AddressSpace, CStringUnterminatedThrows) {
  AddressSpace mem;
  mem.fill(0x500, 'x', 64);
  EXPECT_THROW((void)mem.read_cstr(0x500, 32), GuestFault);
}

TEST(AddressSpace, CopyOverlappingForward) {
  AddressSpace mem;
  mem.write_cstr(0x100, "abcdef");
  mem.copy(0x102, 0x100, 6);
  u8 buf[8];
  mem.read_bytes(0x100, buf);
  EXPECT_EQ(std::string(reinterpret_cast<char*>(buf), 8),
            std::string("ababcdef"));
}

TEST(AddressSpace, CopyOverlappingBackward) {
  AddressSpace mem;
  mem.write_cstr(0x102, "abcdef");
  mem.copy(0x100, 0x102, 6);  // dst below src: forward chunk order
  u8 buf[8];
  mem.read_bytes(0x100, buf);
  // memmove semantics: the copied window shifts down, the source tail stays.
  EXPECT_EQ(std::string(reinterpret_cast<char*>(buf), 8),
            std::string("abcdefef"));
}

TEST(AddressSpace, CopySelfIsNoop) {
  AddressSpace mem;
  mem.write_cstr(0x100, "abc");
  mem.copy(0x100, 0x100, 3);
  EXPECT_EQ(mem.read_cstr(0x100), "abc");
}

TEST(AddressSpace, CopyOverlappingAcrossPagesMisaligned) {
  // Forward-overlapping copy crossing a page boundary where src and dst sit
  // at different page offsets, so chunks are bounded by both boundaries.
  AddressSpace mem;
  const GuestAddr src = AddressSpace::kPageSize - 100;
  std::vector<u8> data(300);
  for (u32 i = 0; i < 300; ++i) data[i] = static_cast<u8>(i * 7 + 1);
  mem.write_bytes(src, data);
  mem.copy(src + 37, src, 300);
  std::vector<u8> out(300);
  mem.read_bytes(src + 37, out);
  EXPECT_EQ(out, data);
}

TEST(AddressSpace, CopyFromAbsentReadsZero) {
  AddressSpace mem;
  mem.fill(0x100, 0xEE, 16);
  mem.copy(0x100, 0x800000, 16);  // source never touched
  for (u32 i = 0; i < 16; ++i) EXPECT_EQ(mem.read8(0x100 + i), 0u);
}

TEST(AddressSpace, CStringAcrossPages) {
  AddressSpace mem;
  const GuestAddr addr = AddressSpace::kPageSize - 3;
  mem.write_cstr(addr, "spans a page");
  EXPECT_EQ(mem.read_cstr(addr), "spans a page");
}

TEST(AddressSpace, CStringStopsAtAbsentPage) {
  AddressSpace mem;
  // Fill the tail of one page with non-NUL bytes; the next page is absent
  // and reads as zero, which terminates the string.
  const GuestAddr addr = AddressSpace::kPageSize - 8;
  mem.fill(addr, 'y', 8);
  EXPECT_EQ(mem.read_cstr(addr), "yyyyyyyy");
}

TEST(AddressSpace, CStringLongUsesChunks) {
  AddressSpace mem;
  mem.fill(0x100000, 'z', 3 * AddressSpace::kPageSize);
  mem.write8(0x100000 + 3 * AddressSpace::kPageSize, 0);
  EXPECT_EQ(mem.read_cstr(0x100000).size(), 3u * AddressSpace::kPageSize);
}

TEST(AddressSpace, WatchedPageStoresAlwaysFire) {
  // The write-TLB contract: a store entry for a watched page is never
  // cached, so *every* store to it reaches the watch — not just the first.
  AddressSpace mem;
  mem.set_page_watched(0x5000u >> AddressSpace::kPageShift, true);
  int fires = 0;
  mem.set_write_watch([&](GuestAddr, u32) { ++fires; });
  mem.write8(0x5000, 1);
  mem.write8(0x5001, 2);
  mem.write32(0x5004, 3);
  EXPECT_EQ(fires, 3);
  // Stores to an unwatched page never fire, cached or not.
  mem.write8(0x9000, 1);
  mem.write8(0x9001, 2);
  EXPECT_EQ(fires, 3);
  mem.set_write_watch({});
}

TEST(AddressSpace, WatchingAPageDropsItsCachedWriteEntry) {
  // Arming a page after a store cached its write-TLB entry (the TB cache
  // inserts a block into an already-written page) must drop that entry by
  // itself — no separate invalidate call — so the next store fires.
  AddressSpace mem;
  int fires = 0;
  mem.set_write_watch([&](GuestAddr, u32) { ++fires; });
  mem.write8(0x5000, 1);  // unwatched: cached, no fire
  EXPECT_EQ(fires, 0);
  mem.set_page_watched(0x5000u >> AddressSpace::kPageShift, true);
  mem.write8(0x5002, 2);  // must take the slow path and fire
  EXPECT_EQ(fires, 1);
  mem.write8(0x5003, 3);  // and it keeps firing (never re-cached)
  EXPECT_EQ(fires, 2);
  mem.set_write_watch({});
}

TEST(AddressSpace, UnwatchedPageStopsFiringAndCachesAgain) {
  AddressSpace mem;
  int fires = 0;
  mem.set_write_watch([&](GuestAddr, u32) { ++fires; });
  const u32 page = 0x5000u >> AddressSpace::kPageShift;
  mem.set_page_watched(page, true);
  mem.write8(0x5000, 1);
  EXPECT_EQ(fires, 1);
  mem.set_page_watched(page, false);
  mem.write8(0x5001, 2);
  mem.write8(0x5002, 3);
  EXPECT_EQ(fires, 1);
  EXPECT_NE(mem.tlb_probe_write(0x5004, 4), nullptr);  // cacheable again
  mem.set_write_watch({});
}

TEST(AddressSpace, WatchInUntouchedRegionMaterialisesNoPage) {
  // A page in a never-touched 4 MiB region can be watched and unwatched:
  // the mark lives in the directory leaf, and no guest page is allocated.
  AddressSpace mem;
  int fires = 0;
  mem.set_write_watch([&](GuestAddr, u32) { ++fires; });
  const GuestAddr addr = 0x7F400000;
  mem.set_page_watched(addr >> AddressSpace::kPageShift, true);
  EXPECT_EQ(mem.resident_pages(), 0u);
  EXPECT_EQ(mem.read32(addr), 0u);
  mem.set_page_watched(addr >> AddressSpace::kPageShift, false);
  mem.set_page_watched(addr >> AddressSpace::kPageShift, false);  // idempotent
  EXPECT_EQ(mem.resident_pages(), 0u);
  mem.write32(addr, 7);
  EXPECT_EQ(fires, 0);
  EXPECT_EQ(mem.read32(addr), 7u);
  mem.set_write_watch({});
}

TEST(AddressSpace, ResidentPagesAcrossLeavesAndWatchOnlyLeaves) {
  // A directory leaf spans 4 MiB. Pages spread over three leaves, plus a
  // fourth leaf that holds only a watch mark, count exactly the pages
  // touched; the space frees them all when it goes (LeakSanitizer checks
  // that in the sanitizer build).
  AddressSpace mem;
  mem.write8(0x00001000, 1);
  mem.write32(0x00002FFE, 0xA1B2C3D4);  // straddles 0x2000 and 0x3000
  mem.write8(0x00400000, 2);             // second leaf
  mem.fill(0xBE0FF000, 3, 0x2000);       // third leaf, two pages
  EXPECT_EQ(mem.resident_pages(), 6u);
  mem.fill(0x00800000, 0, 0x1000);  // zero fill of untouched memory
  EXPECT_EQ(mem.resident_pages(), 6u);

  const u32 watched_page = 0x7F400000 >> AddressSpace::kPageShift;
  mem.set_page_watched(watched_page, true);
  EXPECT_EQ(mem.resident_pages(), 6u);
  EXPECT_FALSE(mem.is_resident(0x7F400000));
  EXPECT_EQ(mem.read32(0x7F400000), 0u);

  int fires = 0;
  mem.set_write_watch([&](GuestAddr, u32) { ++fires; });
  mem.write32(0x7F400010, 9);
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(mem.resident_pages(), 7u);
  mem.set_write_watch({});

  EXPECT_EQ(mem.read8(0x00001000), 1u);
  EXPECT_EQ(mem.read32(0x00002FFE), 0xA1B2C3D4u);
  EXPECT_EQ(mem.read8(0x00400000), 2u);
  EXPECT_EQ(mem.read8(0xBE100FFF), 3u);
  EXPECT_EQ(mem.read32(0x7F400010), 9u);
}

TEST(AddressSpace, TlbDisabledMatchesEnabled) {
  AddressSpace on;
  AddressSpace off;
  off.set_tlb_enabled(false);
  for (u32 i = 0; i < 64; ++i) {
    const GuestAddr a = 0x1000 + i * 257;
    on.write32(a, i * 0x01010101u);
    off.write32(a, i * 0x01010101u);
  }
  for (u32 i = 0; i < 64; ++i) {
    const GuestAddr a = 0x1000 + i * 257;
    EXPECT_EQ(on.read32(a), off.read32(a));
  }
}

TEST(MemoryMap, FindByAddressAndName) {
  MemoryMap map;
  map.add("libdvm.so", 0x40000000, 0x10000, kRX);
  map.add("libc.so", 0x40100000, 0x8000, kRX);
  map.add("[stack]", 0xBE000000, 0x100000, kRW);

  EXPECT_EQ(map.module_of(0x40000123), "libdvm.so");
  EXPECT_EQ(map.module_of(0x40100000), "libc.so");
  EXPECT_EQ(map.module_of(0x30000000), "<unmapped>");
  ASSERT_NE(map.find_by_name("[stack]"), nullptr);
  EXPECT_EQ(map.find_by_name("[stack]")->start, 0xBE000000u);
  EXPECT_EQ(map.find_by_name("libm.so"), nullptr);
}

TEST(MemoryMap, RejectsOverlap) {
  MemoryMap map;
  map.add("a", 0x1000, 0x1000, kRW);
  EXPECT_THROW(map.add("b", 0x1800, 0x1000, kRW), GuestFault);
  EXPECT_THROW(map.add("c", 0x0800, 0x1000, kRW), GuestFault);
  // Adjacent is fine.
  map.add("d", 0x2000, 0x1000, kRW);
}

TEST(MemoryMap, FindFreeSkipsExisting) {
  MemoryMap map;
  map.add("a", 0x1000, 0x1000, kRW);
  map.add("b", 0x2000, 0x1000, kRW);
  const GuestAddr free_at = map.find_free(0x1000, 0x1000);
  EXPECT_GE(free_at, 0x3000u);
}

TEST(ShadowMemory, DefaultClear) {
  ShadowMemory shadow;
  EXPECT_EQ(shadow.get(0x1234), kTaintClear);
  EXPECT_EQ(shadow.tainted_bytes(), 0u);
}

TEST(ShadowMemory, AddIsUnion) {
  ShadowMemory shadow;
  shadow.add(0x100, 0x2);
  shadow.add(0x100, 0x200);
  EXPECT_EQ(shadow.get(0x100), 0x202u);
}

TEST(ShadowMemory, SetOverwrites) {
  ShadowMemory shadow;
  shadow.add(0x100, 0xFF);
  shadow.set(0x100, 0x1);
  EXPECT_EQ(shadow.get(0x100), 0x1u);
  shadow.set(0x100, 0);
  EXPECT_EQ(shadow.get(0x100), kTaintClear);
}

TEST(ShadowMemory, RangeUnion) {
  ShadowMemory shadow;
  shadow.set(0x100, 0x1);
  shadow.set(0x105, 0x4);
  EXPECT_EQ(shadow.get_range(0x100, 8), 0x5u);
  EXPECT_EQ(shadow.get_range(0x101, 4), kTaintClear);
}

TEST(ShadowMemory, CopyRangeMirrorsMemcpy) {
  ShadowMemory shadow;
  shadow.set(0x100, 0x2);
  shadow.set(0x102, 0x8);
  shadow.copy_range(0x200, 0x100, 4);
  EXPECT_EQ(shadow.get(0x200), 0x2u);
  EXPECT_EQ(shadow.get(0x201), kTaintClear);
  EXPECT_EQ(shadow.get(0x202), 0x8u);
}

TEST(ShadowMemory, CopyRangeOverlapping) {
  ShadowMemory shadow;
  shadow.set(0x100, 0x1);
  shadow.set(0x101, 0x2);
  shadow.set(0x102, 0x4);
  shadow.copy_range(0x101, 0x100, 3);  // overlapping forward copy
  EXPECT_EQ(shadow.get(0x101), 0x1u);
  EXPECT_EQ(shadow.get(0x102), 0x2u);
  EXPECT_EQ(shadow.get(0x103), 0x4u);
}

TEST(ShadowMemory, TaintedBytesCountsNonZero) {
  ShadowMemory shadow;
  shadow.set_range(0x100, 10, 0x2);
  shadow.set(0x104, 0);
  EXPECT_EQ(shadow.tainted_bytes(), 9u);
}

TEST(ShadowMemory, CrossPageRange) {
  ShadowMemory shadow;
  const GuestAddr addr = ShadowMemory::kPageSize - 2;
  shadow.set_range(addr, 4, 0x10);
  EXPECT_EQ(shadow.get(addr + 3), 0x10u);
  EXPECT_EQ(shadow.get_range(addr, 4), 0x10u);
}

TEST(ShadowMemory, CopyRangeSelfIsNoop) {
  ShadowMemory shadow;
  u64 liveness = 0;
  u64 mutation = 0;
  shadow.set_liveness_epoch_slot(&liveness);
  shadow.set_mutation_epoch_slot(&mutation);
  shadow.set_range(0x100, 8, 0x3);
  const u64 live0 = liveness;
  const u64 mut0 = mutation;
  shadow.copy_range(0x100, 0x100, 8);
  EXPECT_EQ(shadow.get_range(0x100, 8), 0x3u);
  EXPECT_EQ(shadow.tainted_bytes(), 8u);
  EXPECT_EQ(liveness, live0);
  EXPECT_EQ(mutation, mut0);
}

TEST(ShadowMemory, CopyRangeBackwardOverlap) {
  // dst above src and overlapping: chunks must run in descending order.
  ShadowMemory shadow;
  for (u32 i = 0; i < 6; ++i) shadow.set(0x100 + i, 0x10 + i);
  shadow.copy_range(0x103, 0x100, 6);
  for (u32 i = 0; i < 6; ++i) EXPECT_EQ(shadow.get(0x103 + i), 0x10u + i);
  EXPECT_EQ(shadow.get(0x100), 0x10u);  // below dst: untouched
  EXPECT_EQ(shadow.tainted_bytes(), 9u);
}

TEST(ShadowMemory, CopyRangeOverlapAcrossPagesMisaligned) {
  // Overlapping copy whose chunks are split by *both* the source and the
  // destination page boundaries (different page offsets).
  ShadowMemory shadow;
  const GuestAddr src = ShadowMemory::kPageSize - 100;
  for (u32 i = 0; i < 300; ++i) shadow.set(src + i, (i % 7) + 1);
  shadow.copy_range(src + 37, src, 300);  // backward-ordered chunks
  for (u32 i = 0; i < 300; ++i) {
    EXPECT_EQ(shadow.get(src + 37 + i), (i % 7) + 1) << i;
  }
  EXPECT_EQ(shadow.tainted_bytes(), 337u);
}

TEST(ShadowMemory, CopyRangeFromClearClearsDestination) {
  ShadowMemory shadow;
  u64 mutation = 0;
  shadow.set_mutation_epoch_slot(&mutation);
  shadow.set_range(0x100, 16, 0x2);
  const u64 mut0 = mutation;
  shadow.copy_range(0x100, 0x900000, 16);  // source never tainted
  EXPECT_EQ(shadow.get_range(0x100, 16), kTaintClear);
  EXPECT_EQ(shadow.tainted_bytes(), 0u);
  EXPECT_EQ(mutation, mut0 + 1);  // the dst page crossed live -> dead
}

TEST(ShadowMemory, OrCopyRangeIsUnion) {
  ShadowMemory shadow;
  shadow.set(0x100, 0x1);
  shadow.set(0x102, 0x4);
  shadow.set(0x201, 0x8);  // pre-existing dst taint must survive
  shadow.or_copy_range(0x200, 0x100, 4);
  EXPECT_EQ(shadow.get(0x200), 0x1u);
  EXPECT_EQ(shadow.get(0x201), 0x8u);
  EXPECT_EQ(shadow.get(0x202), 0x4u);
  // Live bytes: src 0x100/0x102, dst 0x200/0x201/0x202.
  EXPECT_EQ(shadow.tainted_bytes(), 5u);
}

TEST(ShadowMemory, OrCopyRangeOverlapCascades) {
  // Historical semantics of the per-byte syslib model: with dst one past
  // src, each ORed byte is re-read as the next source byte, so one tainted
  // byte cascades through the whole destination range.
  ShadowMemory shadow;
  shadow.set(0x100, 0x2);
  shadow.or_copy_range(0x101, 0x100, 3);
  EXPECT_EQ(shadow.get(0x101), 0x2u);
  EXPECT_EQ(shadow.get(0x102), 0x2u);
  EXPECT_EQ(shadow.get(0x103), 0x2u);
}

TEST(ShadowMemory, AnyTaintedInWideWindow) {
  // Regression: a multi-GiB window must walk resident directory leaves, not
  // probe every 4 KiB page number in the window. With the old per-page
  // probing, this loop was ~2^18 hash lookups per query and the test took
  // minutes; now each miss is a handful of null root-slot checks.
  ShadowMemory shadow;
  shadow.set(0xF0000000, 0x2);
  EXPECT_TRUE(shadow.any_tainted_in(0x10000000, 0xF0000001));
  EXPECT_TRUE(shadow.any_tainted_in(0xF0000000, 0xFFFFFFFF));
  for (u32 i = 0; i < 4096; ++i) {
    EXPECT_FALSE(shadow.any_tainted_in(0x10000000 + i, 0xE0000000));
  }
  shadow.set(0xF0000000, 0);
  EXPECT_FALSE(shadow.any_tainted_in(0x10000000, 0xF0000001));
}

TEST(ShadowMemory, ResidentPagesTracksDirectory) {
  ShadowMemory shadow;
  EXPECT_EQ(shadow.resident_pages(), 0u);
  shadow.set(0x100, 0x1);
  shadow.set(0x40000000, 0x1);
  EXPECT_EQ(shadow.resident_pages(), 2u);
  shadow.set(0x101, 0x1);  // same page
  EXPECT_EQ(shadow.resident_pages(), 2u);
  shadow.clear_all();
  EXPECT_EQ(shadow.resident_pages(), 0u);
  EXPECT_EQ(shadow.tainted_bytes(), 0u);
}

TEST(ShadowMemory, ClearAllThenRetouchCountsExactly) {
  ShadowMemory shadow;
  shadow.set(0x00001000, 0x1);
  shadow.set_range(0x003FFFFE, 4, 0x2);  // last page of leaf 0, first of 1
  shadow.add_range(0xC0000000, 8, 0x4);
  EXPECT_EQ(shadow.resident_pages(), 4u);
  EXPECT_EQ(shadow.tainted_bytes(), 13u);

  shadow.clear_all();
  EXPECT_EQ(shadow.resident_pages(), 0u);
  EXPECT_EQ(shadow.tainted_bytes(), 0u);
  EXPECT_EQ(shadow.get(0x00001000), kTaintClear);
  EXPECT_EQ(shadow.get_range(0x003FFFFE, 4), kTaintClear);
  EXPECT_FALSE(shadow.any_tainted_in(0, 0xFFFFFFFF));

  // Touching again allocates fresh, zeroed pages: nothing of the old
  // labels survives, and the count restarts from the pages touched now.
  shadow.add(0x00001001, 0x8);
  shadow.copy_range(0x00400000, 0x00001000, 4);
  EXPECT_EQ(shadow.resident_pages(), 2u);
  EXPECT_EQ(shadow.tainted_bytes(), 2u);
  EXPECT_EQ(shadow.get(0x00001000), kTaintClear);
  EXPECT_EQ(shadow.get(0x00400001), 0x8u);
  EXPECT_EQ(shadow.get(0x003FFFFF), kTaintClear);
  EXPECT_EQ(shadow.get(0xC0000000), kTaintClear);
  EXPECT_TRUE(shadow.any_tainted_in(0x00400000, 0x00400002));
  EXPECT_FALSE(shadow.any_tainted_in(0xC0000000, 0xC0001000));
}

TEST(ShadowMemory, EpochSlotsTrackCrossings) {
  ShadowMemory shadow;
  u64 liveness = 0;
  u64 mutation = 0;
  shadow.set_liveness_epoch_slot(&liveness);
  shadow.set_mutation_epoch_slot(&mutation);

  shadow.set(0x100, 0x1);  // dead -> live (both epochs)
  EXPECT_EQ(liveness, 1u);
  EXPECT_EQ(mutation, 1u);
  shadow.set(0x101, 0x1);  // same page stays live: no crossings
  EXPECT_EQ(liveness, 1u);
  EXPECT_EQ(mutation, 1u);
  shadow.set(0x40000000, 0x1);  // new page crosses, total stays live
  EXPECT_EQ(liveness, 1u);
  EXPECT_EQ(mutation, 2u);
  shadow.set_range(0x100, 2, 0);  // first page dies, total stays live
  EXPECT_EQ(liveness, 1u);
  EXPECT_EQ(mutation, 3u);
  shadow.clear_all();  // last page dies, total dies
  EXPECT_EQ(liveness, 2u);
  EXPECT_EQ(mutation, 4u);
}

}  // namespace
}  // namespace ndroid::mem
