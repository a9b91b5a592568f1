#include "static/library_summary.h"

#include <algorithm>
#include <cstring>

namespace ndroid::static_analysis {

u64 fnv1a(std::span<const u8> bytes, u64 seed) {
  u64 h = seed;
  for (const u8 b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

/// One step of the word-wise content hash. For a fixed `word` it is a
/// bijection of `h`, and for a fixed `h` a bijection of `word`, so changing
/// any single input word always changes the final key.
u64 mix(u64 h, u64 word) {
  h = (h ^ word) * 0x9E3779B97F4A7C15ull;
  return h ^ (h >> 32);
}

/// The image half of library_key, fed in pieces of any size. Whole 32-byte
/// blocks go one word to each of four lanes, so four multiply chains run
/// side by side; finish() folds the lanes in order, then hashes the last
/// whole words and the zero-padded tail word one after another. Every step
/// is a bijection of the word it takes and of the state it updates, so a
/// change to any single word changes the result.
class ImageHasher {
 public:
  static constexpr std::size_t kLanes = 4;
  static constexpr std::size_t kBlock = 8 * kLanes;

  explicit ImageHasher(u64 size) {
    // The length goes in first: the tail word is zero-padded.
    const u64 h = mix(0xcbf29ce484222325ull, size);
    for (std::size_t i = 0; i < kLanes; ++i) lanes_[i] = mix(h, i);
  }

  void update(const u8* p, std::size_t n) {
    if (pending_ != 0) {
      const std::size_t take = std::min(n, kBlock - pending_);
      std::memcpy(buf_ + pending_, p, take);
      pending_ += take;
      p += take;
      n -= take;
      if (pending_ < kBlock) return;
      block(buf_);
      pending_ = 0;
    }
    for (; n >= kBlock; p += kBlock, n -= kBlock) block(p);
    std::memcpy(buf_, p, n);
    pending_ = n;
  }

  [[nodiscard]] u64 finish() const {
    u64 h = lanes_[0];
    for (std::size_t i = 1; i < kLanes; ++i) h = mix(h, lanes_[i]);
    std::size_t at = 0;
    for (; at + 8 <= pending_; at += 8) h = mix(h, load(buf_ + at));
    if (at < pending_) {
      u64 tail = 0;
      std::memcpy(&tail, buf_ + at, pending_ - at);
      h = mix(h, tail);
    }
    return h;
  }

 private:
  static u64 load(const u8* p) {
    u64 word;
    std::memcpy(&word, p, 8);
    return word;
  }
  void block(const u8* p) {
    for (std::size_t i = 0; i < kLanes; ++i) {
      lanes_[i] = mix(lanes_[i], load(p + 8 * i));
    }
  }

  u64 lanes_[kLanes];
  u8 buf_[kBlock];
  std::size_t pending_ = 0;
};

/// The entry half of library_key: entry *offsets* only — not names and not
/// order. Names carry app-side identity (the registering class's
/// descriptor), and two apps registering the same .so must share one
/// artifact; what the analysis depends on is where lifting starts, which
/// the offsets capture completely. The labels baked into a shared snapshot
/// are therefore the first lifter's.
u64 mix_entries(u64 h, const std::vector<FunctionEntry>& entries,
                GuestAddr base) {
  std::vector<u32> offs;
  offs.reserve(entries.size());
  for (const FunctionEntry& e : entries) {
    offs.push_back(static_cast<u32>(e.addr - base));
  }
  std::sort(offs.begin(), offs.end());
  offs.erase(std::unique(offs.begin(), offs.end()), offs.end());
  for (const u32 off : offs) h = mix(h, off);
  return h;
}

/// Drops the spare capacity the lifter's and the relocation's push_backs
/// leave in `lib`: snapshots and their relocated copies live as long as
/// the cache does.
void compact(LibrarySummary& lib) {
  for (auto& [entry, fn] : lib.program.functions) {
    for (auto& [start, bb] : fn.blocks) {
      bb.insns.shrink_to_fit();
      bb.succs.shrink_to_fit();
      bb.call_targets.shrink_to_fit();
      bb.call_target_relocatable.shrink_to_fit();
    }
    fn.callees.shrink_to_fit();
    fn.mem_accesses.shrink_to_fit();
    fn.degrade_sites.shrink_to_fit();
  }
  for (auto& [entry, summary] : lib.index.summaries) {
    summary.windows.shrink_to_fit();
  }
  for (auto& [entry, bounds] : lib.boundaries) bounds.shrink_to_fit();
}

}  // namespace

u64 library_key(std::span<const u8> image,
                const std::vector<FunctionEntry>& entries, GuestAddr base) {
  ImageHasher hasher(image.size());
  hasher.update(image.data(), image.size());
  return mix_entries(hasher.finish(), entries, base);
}

u64 library_key(const mem::AddressSpace& memory, const CodeRegion& region,
                const std::vector<FunctionEntry>& entries) {
  constexpr u32 kPageSize = mem::AddressSpace::kPageSize;
  static constexpr u8 kZeroPage[kPageSize] = {};
  ImageHasher hasher(region.end - region.start);
  for (GuestAddr at = region.start; at < region.end;) {
    const u32 offset = at & (kPageSize - 1);
    const u32 len = std::min<u32>(kPageSize - offset, region.end - at);
    const u8* page = memory.resident_page(at);
    hasher.update((page == nullptr ? kZeroPage : page) + offset, len);
    at += len;
  }
  return mix_entries(hasher.finish(), entries, region.start);
}

LibrarySummary analyze_library(const mem::AddressSpace& memory,
                               const CodeRegion& region,
                               const std::vector<FunctionEntry>& entries) {
  LibrarySummary lib;
  lib.name = region.name;
  lib.lifted_base = region.start;
  lib.image_size = static_cast<u32>(region.end - region.start);

  lib.key = library_key(memory, region, entries);

  const CfgLifter lifter(memory, {region});
  lib.program = lifter.lift(entries);
  lib.index = summarize(lib.program);
  for (const auto& [entry, fn] : lib.program.functions) {
    std::vector<GuestAddr>& bounds = lib.boundaries[entry];
    for (const auto& [start, bb] : fn.blocks) {
      GuestAddr pc = bb.start;
      for (const arm::Insn& insn : bb.insns) {
        bounds.push_back(pc);
        pc += insn.length;
      }
    }
    // Blocks may overlap (a branch into the middle of another block).
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  }
  compact(lib);
  return lib;
}

namespace {

/// Relocates one function's CFG by `delta`. PC-relative structure — block
/// addresses, successors, BL targets, and anything the value-set analysis
/// proved image-relative (literal windows, PC-derived jump tables and call
/// targets) — shifts exactly. Only facts anchored to *absolute* addresses
/// (materialised MOVW/MOVT constants, word jump tables whose entries are
/// absolute code pointers) go stale; each such loss is recorded as a
/// kStale* degradation site.
FunctionCfg relocate_cfg(const FunctionCfg& fn, GuestAddr delta,
                         GuestAddr image_lo, GuestAddr image_hi) {
  FunctionCfg out;
  out.entry = fn.entry + delta;
  out.thumb = fn.thumb;
  out.name = fn.name;
  out.lo = fn.lo + delta;
  out.hi = fn.hi + delta;
  out.has_svc = fn.has_svc;
  out.truncated = fn.truncated;
  out.insn_count = fn.insn_count;

  // Original degradations travel with the code; stale ones are appended.
  for (const DegradeSite& site : fn.degrade_sites) {
    out.degrade(site.pc + delta, site.reason);
  }

  for (const auto& [start, bb] : fn.blocks) {
    BasicBlock nb;
    nb.start = bb.start + delta;
    nb.end = bb.end + delta;
    nb.insns = bb.insns;
    nb.is_return = bb.is_return;
    nb.has_indirect_jump = bb.has_indirect_jump;
    nb.has_indirect_call = bb.has_indirect_call;
    for (const GuestAddr s : bb.succs) nb.succs.push_back(s + delta);

    // A resolved indirect branch survives the rebase iff its successor set
    // shifts uniformly with the code: TBB/TBH and computed branches through
    // a PC-derived base do (their targets are code-relative offsets), while
    // word tables hold absolute code pointers and always go stale — the
    // block degrades back to has_indirect_jump truncation.
    GuestAddr term_pc = nb.end;
    if (!nb.insns.empty()) term_pc -= nb.insns.back().length;
    nb.jump_table = bb.jump_table;
    if (bb.jump_table.kind != JumpTableKind::kNone) {
      const bool survives =
          bb.jump_table.image_rel &&
          bb.jump_table.kind != JumpTableKind::kWordTable;
      if (survives) {
        nb.jump_table.table = bb.jump_table.table + delta;
      } else {
        nb.jump_table = JumpTable{};
        nb.has_indirect_jump = true;
        out.degrade(term_pc, DegradeReason::kStaleJumpTable);
      }
    }

    // Call sites in block order, guided by the per-site relocatable flag:
    // BL targets are PC-relative and always move; a resolved BLX target
    // moves only when VSA proved the value PC-derived, else it points at
    // the old absolute address and the site regresses to unresolved.
    GuestAddr pc = bb.start;
    std::size_t call_idx = 0;
    for (const arm::Insn& insn : bb.insns) {
      const GuestAddr site_pc = pc;
      pc += insn.length;
      if (insn.op != arm::Op::kBl && insn.op != arm::Op::kBlxReg) continue;
      if (call_idx >= bb.call_targets.size()) break;
      const GuestAddr target = bb.call_targets[call_idx];
      const bool relocatable =
          call_idx < bb.call_target_relocatable.size() &&
          bb.call_target_relocatable[call_idx] != 0;
      ++call_idx;
      if (target != kUnresolvedCallTarget &&
          (insn.op == arm::Op::kBl || relocatable)) {
        nb.call_targets.push_back(target + delta);
        nb.call_target_relocatable.push_back(1);
        continue;
      }
      nb.call_targets.push_back(kUnresolvedCallTarget);
      nb.call_target_relocatable.push_back(0);
      nb.has_indirect_call = true;
      if (target != kUnresolvedCallTarget) {
        // Was resolved before the rebase; the absolute constant went stale.
        out.degrade(site_pc + delta, DegradeReason::kStaleCallTarget);
      }
    }
    out.blocks.emplace(nb.start, std::move(nb));
  }

  // Callees: rebuilt from the relocated, still-resolved call sites. The
  // filter is the whole relocated image, matching the lifter's in_code().
  for (const auto& [start, bb] : out.blocks) {
    for (const GuestAddr t : bb.call_targets) {
      if (t != kUnresolvedCallTarget && (t & ~1u) >= image_lo &&
          (t & ~1u) < image_hi) {
        out.callees.push_back(t);
      }
    }
  }
  std::sort(out.callees.begin(), out.callees.end());
  out.callees.erase(std::unique(out.callees.begin(), out.callees.end()),
                    out.callees.end());

  // Access sites shift with their instructions. Image-relative windows
  // (literal pools, PC-derived bases) re-resolve at the new base; windows
  // built from absolute constants no longer describe anything and degrade.
  for (const MemAccess& a : fn.mem_accesses) {
    MemAccess na = a;
    na.pc = a.pc + delta;
    if (na.kind == MemAccess::Kind::kConstAddr) {
      if (na.image_rel) {
        na.addr = a.addr + delta;
      } else {
        na.kind = MemAccess::Kind::kUnknown;
        na.addr = 0;
        out.degrade(na.pc, DegradeReason::kStaleAbsoluteConst);
      }
    }
    out.mem_accesses.push_back(na);
  }

  // Precision counters and roll-up flags, recomputed from the relocated
  // blocks (stale resolutions moved between the buckets above).
  for (const auto& [start, bb] : out.blocks) {
    if (bb.has_indirect_jump) {
      ++out.unresolved_indirect_branches;
    } else if (bb.jump_table.kind != JumpTableKind::kNone) {
      ++out.resolved_indirect_branches;
    }
    out.has_indirect_jumps = out.has_indirect_jumps || bb.has_indirect_jump;
    out.has_indirect_calls = out.has_indirect_calls || bb.has_indirect_call;
    std::size_t call_idx = 0;
    for (const arm::Insn& insn : bb.insns) {
      if (insn.op != arm::Op::kBlxReg) {
        if (insn.op == arm::Op::kBl) ++call_idx;
        continue;
      }
      if (call_idx >= bb.call_targets.size()) break;
      if (bb.call_targets[call_idx] == kUnresolvedCallTarget) {
        ++out.unresolved_indirect_calls;
      } else {
        ++out.resolved_indirect_calls;
      }
      ++call_idx;
    }
  }
  return out;
}

}  // namespace

std::shared_ptr<const LibrarySummary> bind_library(
    std::shared_ptr<const LibrarySummary> lib, GuestAddr base) {
  if (lib == nullptr || base == lib->lifted_base) return lib;

  const GuestAddr delta = base - lib->lifted_base;
  auto bound = std::make_shared<LibrarySummary>();
  bound->key = lib->key;
  bound->name = lib->name;
  bound->lifted_base = base;
  bound->image_size = lib->image_size;
  for (const auto& [entry, fn] : lib->program.functions) {
    bound->program.functions.emplace(
        entry + delta,
        relocate_cfg(fn, delta, base, base + lib->image_size));
  }
  // Re-run the interprocedural summary fixed point over the relocated CFGs
  // instead of degrading every call-site function to worst-case facts: the
  // structure (including image-relative windows, surviving jump tables and
  // relocatable call edges) is exact, so the dataflow recomputes genuine
  // arg-flow facts — only the recorded kStale* degradations weaken.
  bound->index = summarize(bound->program);
  for (const auto& [entry, bounds] : lib->boundaries) {
    std::vector<GuestAddr>& shifted = bound->boundaries[entry + delta];
    shifted.reserve(bounds.size());
    for (const GuestAddr pc : bounds) shifted.push_back(pc + delta);
  }
  compact(*bound);
  return bound;
}

}  // namespace ndroid::static_analysis
