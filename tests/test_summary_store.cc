// The persistent on-disk SummaryStore (src/static/summary_store): payload
// codec determinism, hash-verified loads, rejection of truncated /
// bit-flipped / version-skewed / mis-keyed entries, re-lift-and-rewrite
// through the SummaryCache, atomic tempfile+rename visibility under
// concurrent readers, and strict directory-scan parsing.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "static/summary_cache.h"
#include "static/summary_store.h"

namespace ndroid {
namespace {

namespace sa = static_analysis;

std::string make_temp_dir() {
  char tmpl[] = "/tmp/ndroid_store_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

/// A small but fully populated LibrarySummary: one function with a block,
/// an instruction, a memory access, a taint summary with a window, and
/// block boundaries — every payload section non-empty so the codec tests
/// exercise every encoder.
sa::LibrarySummary make_lib(u64 key, u32 image_size = 0x200) {
  sa::LibrarySummary lib;
  lib.key = key;
  lib.name = "libsynthetic.so";
  lib.lifted_base = 0x10000;
  lib.image_size = image_size;

  sa::BasicBlock bb;
  bb.start = 0x10000;
  bb.end = 0x10008;
  arm::Insn insn;
  insn.rd = 0;
  insn.rn = 1;
  insn.imm = 0x2A;
  insn.imm_operand = true;
  insn.raw = 0xE3A0002A;
  insn.length = 4;
  bb.insns.push_back(insn);
  bb.succs.push_back(0x10008);
  bb.is_return = true;
  bb.call_targets.push_back(0x10040);
  bb.call_target_relocatable.push_back(1);
  bb.jump_table = {sa::JumpTableKind::kTbb, 0x10010, 3, true};

  sa::FunctionCfg fn;
  fn.entry = 0x10000;
  fn.thumb = false;
  fn.name = "Java_com_example_f";
  fn.lo = 0x10000;
  fn.hi = 0x10008;
  fn.blocks.emplace(bb.start, bb);
  fn.insn_count = 1;
  sa::MemAccess access;
  access.pc = 0x10004;
  access.kind = sa::MemAccess::Kind::kConstAddr;
  access.addr = 0x20000;
  access.size = 4;
  access.is_store = true;
  access.image_rel = true;
  fn.mem_accesses.push_back(access);
  fn.resolved_indirect_branches = 1;
  fn.unresolved_indirect_branches = 2;
  fn.resolved_indirect_calls = 3;
  fn.unresolved_indirect_calls = 4;
  fn.degrade(0x10004, sa::DegradeReason::kUnknownMemAccess);
  fn.degrade(0x10006, sa::DegradeReason::kStaleJumpTable);
  lib.program.functions.emplace(fn.entry, fn);

  sa::TaintSummary summary;
  summary.entry = 0x10000;
  summary.name = fn.name;
  summary.touched_regs = 0x000F;
  summary.mem_kind = sa::MemKind::kStatic;
  sa::Window win;
  win.lo = 0x20000;
  win.hi = 0x20010;
  summary.windows.push_back(win);
  summary.args_to_ret = 0x3;
  lib.index.summaries.emplace(summary.entry, summary);

  lib.boundaries[0x10000] = {0x10000, 0x10004};
  return lib;
}

void flip_byte(const std::string& path, std::size_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x01);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

std::size_t file_size(const std::string& path) {
  struct stat st{};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return static_cast<std::size_t>(st.st_size);
}

TEST(SummaryStore, PayloadCodecRoundTripsDeterministically) {
  const sa::LibrarySummary lib = make_lib(0xABCDEF0123456789ull);
  const std::vector<u8> bytes = sa::SummaryStore::encode(lib);
  ASSERT_FALSE(bytes.empty());

  const sa::LibrarySummary back = sa::SummaryStore::decode(bytes);
  EXPECT_EQ(back.key, lib.key);
  EXPECT_EQ(back.name, lib.name);
  EXPECT_EQ(back.lifted_base, lib.lifted_base);
  EXPECT_EQ(back.image_size, lib.image_size);
  ASSERT_EQ(back.program.functions.size(), 1u);
  const sa::FunctionCfg& fn = back.program.functions.begin()->second;
  EXPECT_EQ(fn.name, "Java_com_example_f");
  ASSERT_EQ(fn.blocks.size(), 1u);
  const sa::BasicBlock& bb = fn.blocks.begin()->second;
  ASSERT_EQ(bb.insns.size(), 1u);
  EXPECT_EQ(bb.insns[0].raw, 0xE3A0002Au);
  EXPECT_TRUE(bb.insns[0].imm_operand);
  ASSERT_EQ(fn.mem_accesses.size(), 1u);
  EXPECT_EQ(fn.mem_accesses[0].kind, sa::MemAccess::Kind::kConstAddr);
  // The v2 precision surface survives the round trip verbatim.
  EXPECT_TRUE(fn.mem_accesses[0].image_rel);
  EXPECT_EQ(bb.jump_table.kind, sa::JumpTableKind::kTbb);
  EXPECT_EQ(bb.jump_table.table, 0x10010u);
  EXPECT_EQ(bb.jump_table.entries, 3u);
  EXPECT_TRUE(bb.jump_table.image_rel);
  ASSERT_EQ(bb.call_target_relocatable.size(), 1u);
  EXPECT_EQ(bb.call_target_relocatable[0], 1u);
  EXPECT_EQ(fn.resolved_indirect_branches, 1u);
  EXPECT_EQ(fn.unresolved_indirect_branches, 2u);
  EXPECT_EQ(fn.resolved_indirect_calls, 3u);
  EXPECT_EQ(fn.unresolved_indirect_calls, 4u);
  ASSERT_EQ(fn.degrade_sites.size(), 2u);
  EXPECT_EQ(fn.degrade_sites[0].pc, 0x10004u);
  EXPECT_EQ(fn.degrade_sites[0].reason,
            sa::DegradeReason::kUnknownMemAccess);
  EXPECT_EQ(fn.degrade_sites[1].reason, sa::DegradeReason::kStaleJumpTable);
  ASSERT_EQ(back.index.summaries.size(), 1u);
  EXPECT_EQ(back.index.summaries.begin()->second.windows.size(), 1u);
  EXPECT_EQ(back.boundaries.at(0x10000),
            (std::vector<GuestAddr>{0x10000, 0x10004}));

  // Deterministic: decode → encode reproduces the exact bytes.
  EXPECT_EQ(sa::SummaryStore::encode(back), bytes);
}

TEST(SummaryStore, SaveThenLoadRoundTrips) {
  const std::string dir = make_temp_dir();
  const u64 key = 0x1122334455667788ull;
  const sa::LibrarySummary lib = make_lib(key);

  sa::SummaryStore store(dir);
  ASSERT_TRUE(store.save(lib));
  EXPECT_EQ(store.stats().writes, 1u);
  EXPECT_EQ(file_size(store.path_for(key)),
            sa::SummaryStore::kHeaderSize + sa::SummaryStore::encode(lib).size());

  // A *different* store instance (a later run) sees the entry.
  sa::SummaryStore reopened(dir);
  const auto loaded = reopened.load(key);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(sa::SummaryStore::encode(*loaded), sa::SummaryStore::encode(lib));
  EXPECT_EQ(reopened.stats().loads, 1u);
  EXPECT_EQ(reopened.stats().hits, 1u);
  EXPECT_EQ(reopened.stats().corrupt, 0u);

  // Absent keys are misses, not corruption.
  EXPECT_EQ(reopened.load(key + 1), nullptr);
  EXPECT_EQ(reopened.stats().corrupt, 0u);
}

TEST(SummaryStore, TruncatedEntryRejectedThenRewritten) {
  const std::string dir = make_temp_dir();
  const u64 key = 0x42;
  sa::SummaryStore store(dir);
  ASSERT_TRUE(store.save(make_lib(key)));
  const std::string path = store.path_for(key);

  ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(file_size(path) - 7)),
            0);
  EXPECT_EQ(store.load(key), nullptr);
  EXPECT_EQ(store.stats().corrupt, 1u);

  // Truncated below the header too (the fstat guard path).
  ASSERT_EQ(::truncate(path.c_str(), 9), 0);
  EXPECT_EQ(store.load(key), nullptr);
  EXPECT_EQ(store.stats().corrupt, 2u);

  // save() rewrites the slot whole; the entry is valid again.
  ASSERT_TRUE(store.save(make_lib(key)));
  EXPECT_NE(store.load(key), nullptr);
  EXPECT_EQ(store.stats().corrupt, 2u);
}

TEST(SummaryStore, BitFlipAnywhereRejected) {
  const std::string dir = make_temp_dir();
  const u64 key = 0x43;
  sa::SummaryStore store(dir);
  ASSERT_TRUE(store.save(make_lib(key)));
  const std::string path = store.path_for(key);

  // In the payload: the stored FNV-1a no longer matches.
  flip_byte(path, sa::SummaryStore::kHeaderSize + 3);
  EXPECT_EQ(store.load(key), nullptr);
  EXPECT_EQ(store.stats().corrupt, 1u);
  flip_byte(path, sa::SummaryStore::kHeaderSize + 3);  // restore
  ASSERT_NE(store.load(key), nullptr);

  // In the header: magic breaks.
  flip_byte(path, 0);
  EXPECT_EQ(store.load(key), nullptr);

  // In the header: the key field no longer matches the requested key.
  flip_byte(path, 0);  // restore magic
  flip_byte(path, 8);
  EXPECT_EQ(store.load(key), nullptr);
}

TEST(SummaryStore, VersionSkewRejectedEvenWithValidHash) {
  const std::string dir = make_temp_dir();
  const u64 key = 0x44;
  sa::SummaryStore store(dir);
  ASSERT_TRUE(store.save(make_lib(key)));

  // The version field (header offset 4) is outside the payload hash, so
  // this entry is bytewise self-consistent — only the version check can
  // reject it. Stale-format facts must never deserialize.
  flip_byte(store.path_for(key), 4);
  EXPECT_EQ(store.load(key), nullptr);
  EXPECT_EQ(store.stats().corrupt, 1u);
}

TEST(SummaryStore, MisKeyedEntryRejected) {
  const std::string dir = make_temp_dir();
  const u64 key = 0x45;
  const u64 other = 0x46;
  sa::SummaryStore store(dir);
  ASSERT_TRUE(store.save(make_lib(key)));

  // A valid entry renamed over another key's slot (header and payload both
  // still name `key`) must not satisfy a load of `other`.
  ASSERT_EQ(::rename(store.path_for(key).c_str(),
                     store.path_for(other).c_str()),
            0);
  EXPECT_EQ(store.load(other), nullptr);
  EXPECT_EQ(store.stats().corrupt, 1u);
}

TEST(SummaryStore, KeysScansOnlyWellFormedEntryNames) {
  const std::string dir = make_temp_dir();
  sa::SummaryStore store(dir);
  ASSERT_TRUE(store.save(make_lib(0x10)));
  ASSERT_TRUE(store.save(make_lib(0x2000)));

  // Junk that must not parse as entries: wrong prefix, wrong length,
  // non-hex digits, and a leftover tempfile from a crashed writer.
  for (const char* junk :
       {"foo.txt", "sum_zz00000000000000.nss", "sum_123.nss",
        ".nss.tmp.12345.1", "sum_0000000000000010.nss.bak"}) {
    std::ofstream(dir + "/" + junk) << "junk";
  }

  EXPECT_EQ(store.keys(), (std::vector<u64>{0x10, 0x2000}));
}

TEST(SummaryStore, CtorThrowsWhenDirectoryUncreatable) {
  const std::string dir = make_temp_dir();
  const std::string blocker = dir + "/file";
  std::ofstream(blocker) << "x";
  EXPECT_THROW(sa::SummaryStore{blocker + "/sub"}, std::runtime_error);
}

TEST(SummaryStore, CacheReliftsCorruptEntryAndRewritesIt) {
  const std::string dir = make_temp_dir();
  const u64 key = 0x77;
  sa::SummaryStore store(dir);

  int lifts = 0;
  const auto lift = [&] {
    ++lifts;
    return make_lib(key);
  };

  {  // First acquire: miss everywhere → lift → written back to disk.
    sa::SummaryCache cache;
    cache.set_store(&store);
    ASSERT_NE(cache.acquire(key, 0x10000, lift), nullptr);
    EXPECT_EQ(lifts, 1);
    EXPECT_EQ(cache.stats().store_writes, 1u);
  }
  {  // Fresh cache (a new run): served from disk, no lift.
    sa::SummaryCache cache;
    cache.set_store(&store);
    ASSERT_NE(cache.acquire(key, 0x10000, lift), nullptr);
    EXPECT_EQ(lifts, 1);
    EXPECT_EQ(cache.stats().store_hits, 1u);
  }

  flip_byte(store.path_for(key), sa::SummaryStore::kHeaderSize + 1);

  {  // Corrupt entry: rejected, re-lifted, and rewritten...
    sa::SummaryCache cache;
    cache.set_store(&store);
    ASSERT_NE(cache.acquire(key, 0x10000, lift), nullptr);
    EXPECT_EQ(lifts, 2);
    EXPECT_EQ(cache.stats().store_hits, 0u);
    EXPECT_EQ(cache.stats().store_writes, 1u);
  }
  {  // ...so the next run is warm again.
    sa::SummaryCache cache;
    cache.set_store(&store);
    ASSERT_NE(cache.acquire(key, 0x10000, lift), nullptr);
    EXPECT_EQ(lifts, 2);
    EXPECT_EQ(cache.stats().store_hits, 1u);
  }
}

/// Overwrites the header's version field (offset 4) with `version`.
void set_version(const std::string& path, u32 version) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekp(4);
  f.write(reinterpret_cast<const char*>(&version), sizeof version);
}

u32 read_version(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  u32 version = 0;
  f.seekg(4);
  f.read(reinterpret_cast<char*>(&version), sizeof version);
  return version;
}

TEST(SummaryStore, V3EntryReadsAsAMissAndIsRewritten) {
  // Format 4 changed how library_key hashes an image, so a format-3 entry
  // describes a different key's library: it must never be served.
  ASSERT_EQ(sa::SummaryStore::kFormatVersion, 4u);
  const std::string dir = make_temp_dir();
  const u64 key = 0x78;
  sa::SummaryStore store(dir);
  ASSERT_TRUE(store.save(make_lib(key)));
  set_version(store.path_for(key), 3);

  int lifts = 0;
  sa::SummaryCache cache;
  cache.set_store(&store);
  ASSERT_NE(cache.acquire(key, 0x10000,
                          [&] {
                            ++lifts;
                            return make_lib(key);
                          }),
            nullptr);
  EXPECT_EQ(lifts, 1);
  EXPECT_EQ(cache.stats().store_hits, 0u);
  EXPECT_EQ(cache.stats().store_writes, 1u);
  EXPECT_EQ(store.stats().corrupt, 1u);
  EXPECT_EQ(read_version(store.path_for(key)), 4u);
  EXPECT_NE(store.load(key), nullptr);
}

TEST(SummaryStore, WarmFromStorePublishesEverythingSkippingCorrupt) {
  const std::string dir = make_temp_dir();
  sa::SummaryStore store(dir);
  ASSERT_TRUE(store.save(make_lib(0x100)));
  ASSERT_TRUE(store.save(make_lib(0x200)));
  ASSERT_TRUE(store.save(make_lib(0x300)));
  flip_byte(store.path_for(0x200), sa::SummaryStore::kHeaderSize);

  sa::SummaryCache cache;
  cache.set_store(&store);
  EXPECT_EQ(cache.warm_from_store(), 2u);
  EXPECT_EQ(cache.size(), 2u);

  // Warmed entries serve without lifting; the corrupt one re-lifts.
  int lifts = 0;
  const auto lift_of = [&](u64 key) {
    return [&lifts, key] {
      ++lifts;
      return make_lib(key);
    };
  };
  EXPECT_NE(cache.acquire(0x100, 0x10000, lift_of(0x100)), nullptr);
  EXPECT_NE(cache.acquire(0x300, 0x10000, lift_of(0x300)), nullptr);
  EXPECT_EQ(lifts, 0);
  EXPECT_NE(cache.acquire(0x200, 0x10000, lift_of(0x200)), nullptr);
  EXPECT_EQ(lifts, 1);
  // The re-lift repaired the on-disk entry.
  EXPECT_NE(store.load(0x200), nullptr);
}

TEST(SummaryStore, ConcurrentReadersNeverObserveAPartialWrite) {
  // The atomicity contract: save() goes through a tempfile + rename(2), so
  // a reader racing the writer sees either the complete old entry or the
  // complete new one. Any partial write would fail the hash check and show
  // up in the corrupt counter.
  const std::string dir = make_temp_dir();
  const u64 key = 0x99;
  sa::SummaryStore store(dir);
  ASSERT_TRUE(store.save(make_lib(key, /*image_size=*/0x100)));

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (u32 i = 0; i < 100; ++i) {
      // Alternate two distinct contents so renames actually change bytes.
      EXPECT_TRUE(store.save(make_lib(key, i % 2 == 0 ? 0x100 : 0x200)));
    }
    done = true;
  });

  u64 observed = 0;
  while (!done || observed == 0) {
    const auto lib = store.load(key);
    ASSERT_NE(lib, nullptr);
    EXPECT_TRUE(lib->image_size == 0x100 || lib->image_size == 0x200)
        << lib->image_size;
    ++observed;
  }
  writer.join();
  EXPECT_EQ(store.stats().corrupt, 0u);
  EXPECT_EQ(store.stats().hits, observed);
}

}  // namespace
}  // namespace ndroid
