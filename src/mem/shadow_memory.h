// Byte-granularity sparse taint map over guest memory.
//
// This is the storage half of NDroid's Taint Engine (paper §V-E): "NDroid
// maintains shadow registers to store the related registers' taints and a
// taint map to store the memories' taints. The taint granularity of NDroid
// is byte." Combination is bitwise OR of 32-bit labels.
//
// Data-plane layout mirrors AddressSpace (see address_space.h):
//  * a direct-mapped shadow TLB of (page number -> Page*) replaces the old
//    one-entry cursor, so interleaved accesses to a handful of pages (the
//    memcpy pattern: alternating src/dst) stay lookup-free;
//  * a flat two-level page directory replaces the unordered_map, making
//    misses two dependent loads and any_tainted_in a walk over resident
//    leaves only;
//  * range ops are page-chunked and word-granular: get_range OR-reduces
//    64 bits per step, set_range/add_range/copy_range account live-byte
//    deltas from chunk scans and bulk fill/copy instead of per-byte
//    read-modify-write.
//
// Exact bookkeeping the fast paths must preserve:
//  * `tainted_bytes()` is O(1), maintained by every mutation (the
//    taint-liveness gate reads it per block);
//  * the liveness epoch bumps when tainted_bytes() crosses zero and the
//    mutation epoch bumps when any page's live count crosses zero. Range
//    ops bump per (op, page) — the net transition a gate could observe —
//    rather than per byte; gates only ever sample between ops, so
//    intermediate same-op oscillation (clear then retaint of one page
//    inside a single copy) is indistinguishable either way.
#pragma once

#include <array>
#include <memory>

#include "common/types.h"

namespace ndroid::mem {

class ShadowMemory {
 public:
  static constexpr u32 kPageShift = 12;
  static constexpr u32 kPageSize = 1u << kPageShift;
  static constexpr u32 kPageMask = kPageSize - 1;

  // Two-level directory over the 2^20 page numbers (same shape as
  // AddressSpace's, see there for the layout rationale).
  static constexpr u32 kLeafBits = 10;
  static constexpr u32 kLeafSlots = 1u << kLeafBits;
  static constexpr u32 kRootSlots = 1u << (32 - kPageShift - kLeafBits);

  // Shadow TLB: smaller than the guest-memory one — taint access locality
  // is a few pages (tracer window, memcpy src+dst), not a working set.
  static constexpr u32 kTlbBits = 6;
  static constexpr u32 kTlbSlots = 1u << kTlbBits;

  static constexpr u32 kNoPage = 0xFFFFFFFFu;

  ShadowMemory() = default;
  ShadowMemory(const ShadowMemory&) = delete;
  ShadowMemory& operator=(const ShadowMemory&) = delete;

  /// Taint of one guest byte (clear if never set).
  [[nodiscard]] Taint get(GuestAddr addr) const;

  /// Union of the taints of [addr, addr+len).
  [[nodiscard]] Taint get_range(GuestAddr addr, u32 len) const;

  /// Overwrites the taint of one byte (clears it when taint == 0).
  void set(GuestAddr addr, Taint taint);

  /// ORs taint into one byte.
  void add(GuestAddr addr, Taint taint);

  void set_range(GuestAddr addr, u32 len, Taint taint);
  void add_range(GuestAddr addr, u32 len, Taint taint);
  void clear_range(GuestAddr addr, u32 len) { set_range(addr, len, 0); }

  /// Copies taints byte-for-byte, dst[i] = src[i] (memcpy's shadow op).
  /// Handles overlap like memmove; self-copy (dst == src) is a no-op.
  void copy_range(GuestAddr dst, GuestAddr src, u32 len);

  /// ORs taints byte-for-byte, dst[i] |= src[i] — the shadow op of the
  /// syslib string/memcpy models (Table VI: add(dst+i, get(src+i))).
  /// On overlapping ranges this falls back to the per-byte forward loop so
  /// the historical cascade semantics (a byte ORed early can be re-read as
  /// a later source byte) are preserved bit-for-bit.
  void or_copy_range(GuestAddr dst, GuestAddr src, u32 len);

  void clear_all();

  /// Count of bytes with a non-zero label. O(1): maintained incrementally
  /// by every mutation (the taint-liveness fast path reads it per block).
  [[nodiscard]] u64 tainted_bytes() const { return live_bytes_; }

  /// Number of shadow pages currently materialised. O(1).
  [[nodiscard]] std::size_t resident_pages() const { return resident_; }

  /// True when any byte of [lo, hi) *may* be tainted, answered at page
  /// granularity from the per-page live counters: every page overlapping the
  /// range must be absent or fully clear for a false answer. Conservative by
  /// design — the summary gate only ever uses a false answer to skip work.
  /// Cost scales with *resident* leaves in the window (a multi-GiB query
  /// over a near-empty map is a few root-slot null checks), not with the
  /// window's page count.
  [[nodiscard]] bool any_tainted_in(GuestAddr lo, GuestAddr hi) const;

  /// Optional counter bumped whenever tainted_bytes() crosses zero in either
  /// direction — the liveness epoch the block-gate memo is validated against
  /// (see arm::Cpu::set_block_gate). Wired by TaintEngine.
  void set_liveness_epoch_slot(u64* slot) { epoch_slot_ = slot; }

  /// Optional counter bumped whenever any page's live-byte count crosses
  /// zero — exactly the events that can change an any_tainted_in() answer.
  /// Strictly more frequent than the liveness epoch; the summary-gated block
  /// memo is validated against this one. Wired by TaintEngine.
  void set_mutation_epoch_slot(u64* slot) { mutation_slot_ = slot; }

 private:
  struct Page {
    std::array<Taint, kPageSize> bytes;
    u32 live = 0;  // bytes of this page with a non-zero label
  };
  struct Leaf {
    std::array<std::unique_ptr<Page>, kLeafSlots> pages;
  };

  struct TlbEntry {
    u32 page = kNoPage;
    Page* host = nullptr;
  };

  [[nodiscard]] Page* find_page(GuestAddr addr) const {
    const u32 page_no = addr >> kPageShift;
    TlbEntry& e = tlb_[page_no & (kTlbSlots - 1)];
    if (e.page == page_no) return e.host;
    const Leaf* leaf = root_[page_no >> kLeafBits].get();
    Page* p =
        leaf == nullptr ? nullptr : leaf->pages[page_no & (kLeafSlots - 1)].get();
    if (p != nullptr) e = {page_no, p};
    return p;
  }
  Page& touch_page(GuestAddr addr);

  /// Bumps the liveness epoch if live_bytes_ crossed zero since `was`.
  void note_liveness(bool was) {
    if (epoch_slot_ != nullptr && (live_bytes_ != 0) != was) ++*epoch_slot_;
  }
  /// Bumps the mutation epoch if a page's live count crossed zero.
  void note_page(u32 live_before, u32 live_after) {
    if (mutation_slot_ != nullptr && (live_before != 0) != (live_after != 0)) {
      ++*mutation_slot_;
    }
  }
  /// Live bytes within [first, first+count) of a page, using the page
  /// counter shortcut at the extremes.
  [[nodiscard]] static u32 count_live(const Page& p, u32 first, u32 count) {
    if (p.live == 0) return 0;
    if (count == kPageSize) return p.live;
    u32 n = 0;
    for (u32 i = 0; i < count; ++i) n += p.bytes[first + i] != kTaintClear;
    return n;
  }

  std::array<std::unique_ptr<Leaf>, kRootSlots> root_;
  std::size_t resident_ = 0;
  u64 live_bytes_ = 0;
  u64* epoch_slot_ = nullptr;
  u64* mutation_slot_ = nullptr;
  mutable std::array<TlbEntry, kTlbSlots> tlb_;
};

}  // namespace ndroid::mem
