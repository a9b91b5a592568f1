// Sparse paged guest address space with a softmmu-style fast path.
//
// The emulated machine is a 32-bit ARM system; this class provides its flat
// physical/virtual memory (we do not model an MMU — Android processes are
// distinguished by non-overlapping map ranges, which is sufficient for the
// analyses in the paper). Storage is allocated lazily in 4 KiB pages so a
// full 4 GiB space costs only what is touched.
//
// Data-plane layout (the QEMU-softmmu analogue the paper's NDroid rides on):
//  * a direct-mapped software TLB of (page number -> host pointer) entries,
//    probed inline by every read*/write* call — a hit is one tag compare and
//    one host memory access, no hash probe and no function call;
//  * a flat two-level page directory (1024-entry root of lazily allocated
//    1024-slot leaves) behind the TLB, so even a miss is two dependent loads
//    rather than an unordered_map probe. The directory holds raw pointers;
//    the pages and leaves are owned by two lists, so teardown frees what was
//    allocated instead of visiting every slot of every leaf;
//  * page-chunked bulk ops (read_bytes/write_bytes/fill/copy/read_cstr)
//    that run memcpy/memset/memchr per resident page instead of per byte.
//
// Write-watch coherence rule: each directory leaf carries a watch byte per
// page slot, and the write TLB never caches a watched page, so every store to
// one takes the slow path and fires the watch (self-modifying-code
// invalidation keeps working). set_page_watched() drops the page's write-TLB
// slot when it arms, so a page watched *after* a write entry was cached is
// covered too.
#pragma once

#include <array>
#include <cstddef>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"

namespace ndroid::mem {

class AddressSpace {
 public:
  static constexpr u32 kPageShift = 12;
  static constexpr u32 kPageSize = 1u << kPageShift;
  static constexpr u32 kPageMask = kPageSize - 1;

  // Two-level directory over the 2^20 page numbers of the 4 GiB space.
  static constexpr u32 kLeafBits = 10;
  static constexpr u32 kLeafSlots = 1u << kLeafBits;
  static constexpr u32 kRootSlots = 1u << (32 - kPageShift - kLeafBits);

  // Direct-mapped software TLB, indexed by the low page-number bits so
  // consecutive pages occupy distinct slots.
  static constexpr u32 kTlbBits = 8;
  static constexpr u32 kTlbSlots = 1u << kTlbBits;

  AddressSpace() = default;
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  // Reads fault-free: untouched memory reads as zero (like zero-fill mmap).
  [[nodiscard]] u8 read8(GuestAddr addr) const {
    const u32 page = addr >> kPageShift;
    const TlbEntry& e = read_tlb_[page & (kTlbSlots - 1)];
    if (e.page == page) [[likely]] return e.host[addr & kPageMask];
    return read8_slow(addr);
  }
  [[nodiscard]] u16 read16(GuestAddr addr) const {
    if ((addr & kPageMask) <= kPageSize - 2) [[likely]] {
      const u32 page = addr >> kPageShift;
      const TlbEntry& e = read_tlb_[page & (kTlbSlots - 1)];
      if (e.page == page) [[likely]] {
        u16 v;
        std::memcpy(&v, e.host + (addr & kPageMask), 2);
        return v;
      }
    }
    return read16_slow(addr);
  }
  [[nodiscard]] u32 read32(GuestAddr addr) const {
    if ((addr & kPageMask) <= kPageSize - 4) [[likely]] {
      const u32 page = addr >> kPageShift;
      const TlbEntry& e = read_tlb_[page & (kTlbSlots - 1)];
      if (e.page == page) [[likely]] {
        u32 v;
        std::memcpy(&v, e.host + (addr & kPageMask), 4);
        return v;
      }
    }
    return read32_slow(addr);
  }
  [[nodiscard]] u64 read64(GuestAddr addr) const;

  void write8(GuestAddr addr, u8 value) {
    const u32 page = addr >> kPageShift;
    const TlbEntry& e = write_tlb_[page & (kTlbSlots - 1)];
    if (e.page == page) [[likely]] {
      e.host[addr & kPageMask] = value;
      return;
    }
    write8_slow(addr, value);
  }
  void write16(GuestAddr addr, u16 value) {
    if ((addr & kPageMask) <= kPageSize - 2) [[likely]] {
      const u32 page = addr >> kPageShift;
      const TlbEntry& e = write_tlb_[page & (kTlbSlots - 1)];
      if (e.page == page) [[likely]] {
        std::memcpy(e.host + (addr & kPageMask), &value, 2);
        return;
      }
    }
    write16_slow(addr, value);
  }
  void write32(GuestAddr addr, u32 value) {
    if ((addr & kPageMask) <= kPageSize - 4) [[likely]] {
      const u32 page = addr >> kPageShift;
      const TlbEntry& e = write_tlb_[page & (kTlbSlots - 1)];
      if (e.page == page) [[likely]] {
        std::memcpy(e.host + (addr & kPageMask), &value, 4);
        return;
      }
    }
    write32_slow(addr, value);
  }
  void write64(GuestAddr addr, u64 value);

  void read_bytes(GuestAddr addr, std::span<u8> out) const;
  void write_bytes(GuestAddr addr, std::span<const u8> in);

  /// Reads a NUL-terminated guest string (bounded to keep a missing
  /// terminator from scanning the whole space). Page-chunked memchr — a
  /// long string costs one directory lookup per page, not per byte.
  [[nodiscard]] std::string read_cstr(GuestAddr addr,
                                      u32 max_len = 1u << 20) const;
  void write_cstr(GuestAddr addr, std::string_view s);

  void fill(GuestAddr addr, u8 value, u32 len);

  /// Byte-wise copy within guest memory; handles overlap like memmove.
  /// Page-chunked: memmove per resident source chunk, zero-fill for
  /// untouched source pages.
  void copy(GuestAddr dst, GuestAddr src, u32 len);

  /// Number of pages currently materialised (memory footprint diagnostics).
  /// Exact and O(1): the length of the owned-page list.
  [[nodiscard]] std::size_t resident_pages() const { return pages_.size(); }
  [[nodiscard]] bool is_resident(GuestAddr addr) const {
    return find_page(addr) != nullptr;
  }

  /// Write watch: `watch` fires after any write touching a page marked with
  /// set_page_watched(). The translation-block cache uses this to invalidate
  /// cached code on self-modification (both guest stores and host-side loads
  /// go through these write paths). Pass {} to clear; page marks persist.
  using WriteWatch = std::function<void(GuestAddr addr, u32 len)>;
  void set_write_watch(WriteWatch watch) { watch_ = std::move(watch); }

  /// Marks or unmarks page `page_no` as write-watched. Arming drops the
  /// page's write-TLB entry, so a store cached while the page was unwatched
  /// cannot bypass the watch. Costs one directory leaf for a page in a
  /// never-touched 4 MiB region; no guest page is materialised.
  void set_page_watched(u32 page_no, bool on);

  /// Raw TLB probes for callers that inline memory accesses themselves (the
  /// threaded-code micro-ops): a hit returns the host pointer for `len`
  /// bytes wholly inside one page, a miss returns nullptr and the caller
  /// falls back to read*/write* (which refills the TLB). The write probe
  /// inherits the watch coherence rule for free — watched pages are never in
  /// the write TLB, so a hit store provably cannot touch cached code.
  [[nodiscard]] const u8* tlb_probe_read(GuestAddr addr, u32 len) const {
    if ((addr & kPageMask) <= kPageSize - len) [[likely]] {
      const u32 page = addr >> kPageShift;
      const TlbEntry& e = read_tlb_[page & (kTlbSlots - 1)];
      if (e.page == page) [[likely]] return e.host + (addr & kPageMask);
    }
    return nullptr;
  }
  [[nodiscard]] u8* tlb_probe_write(GuestAddr addr, u32 len) {
    if ((addr & kPageMask) <= kPageSize - len) [[likely]] {
      const u32 page = addr >> kPageShift;
      const TlbEntry& e = write_tlb_[page & (kTlbSlots - 1)];
      if (e.page == page) [[likely]] return e.host + (addr & kPageMask);
    }
    return nullptr;
  }

  /// Host pointer to [addr, addr + len) when the whole range lies inside
  /// one resident page that is not write-watched; nullptr otherwise. Reads
  /// and writes through it touch the guest bytes themselves (there is no
  /// second copy), but writes bypass the write watch, which is why watched
  /// pages never qualify. Pages are never released, so the pointer stays
  /// valid; a page armed later would be written unwatched through it,
  /// though, so take it again after running anything that may translate
  /// code.
  [[nodiscard]] u8* host_window(GuestAddr addr, u32 len) {
    const u32 offset = addr & kPageMask;
    if (len > kPageSize - offset) return nullptr;
    const u32 page_no = addr >> kPageShift;
    const Leaf* leaf = root_[page_no >> kLeafBits];
    if (leaf == nullptr) return nullptr;
    const u32 slot = page_no & (kLeafSlots - 1);
    Page* p = leaf->pages[slot];
    if (p == nullptr || leaf->watched[slot] != 0) return nullptr;
    return p->data() + offset;
  }

  void tlb_flush_write() {
    write_tlb_.fill(TlbEntry{});
  }
  void tlb_flush() {
    read_tlb_.fill(TlbEntry{});
    tlb_flush_write();
  }

  /// Disabling empties both TLBs and stops refills, so every access walks
  /// the page directory (the pre-TLB configuration the interpreter oracle
  /// runs on; Cpu::set_engine drives this). Enabled by default.
  void set_tlb_enabled(bool on) {
    tlb_enabled_ = on;
    tlb_flush();
  }
  [[nodiscard]] bool tlb_enabled() const { return tlb_enabled_; }

 private:
  using Page = std::array<u8, kPageSize>;
  struct Leaf {
    std::array<Page*, kLeafSlots> pages{};  // owned by pages_
    std::array<u8, kLeafSlots> watched{};  // set_page_watched marks
  };
  static constexpr u32 kNoPage = 0xFFFFFFFFu;

  struct TlbEntry {
    u32 page = kNoPage;  // page number, kNoPage = empty slot
    u8* host = nullptr;  // host pointer to the page's first byte
  };

  [[nodiscard]] Page* find_page(GuestAddr addr) const {
    const u32 page_no = addr >> kPageShift;
    const Leaf* leaf = root_[page_no >> kLeafBits];
    return leaf == nullptr ? nullptr
                           : leaf->pages[page_no & (kLeafSlots - 1)];
  }
  Page& touch_page(GuestAddr addr);
  Leaf& touch_leaf(u32 page_no);

  /// Refill policies. Reads may cache any resident page; writes must never
  /// cache a watched page or every subsequent store would skip the watch.
  void fill_read_tlb(u32 page_no, Page& p) const {
    if (!tlb_enabled_) return;
    read_tlb_[page_no & (kTlbSlots - 1)] = {page_no, p.data()};
  }
  void fill_write_tlb(u32 page_no, Page& p) {
    if (!tlb_enabled_ || is_watched(page_no)) return;
    write_tlb_[page_no & (kTlbSlots - 1)] = {page_no, p.data()};
  }
  [[nodiscard]] bool is_watched(u32 page_no) const {
    const Leaf* leaf = root_[page_no >> kLeafBits];
    return leaf != nullptr && leaf->watched[page_no & (kLeafSlots - 1)] != 0;
  }

  [[nodiscard]] u8 read8_slow(GuestAddr addr) const;
  [[nodiscard]] u16 read16_slow(GuestAddr addr) const;
  [[nodiscard]] u32 read32_slow(GuestAddr addr) const;
  void write8_slow(GuestAddr addr, u8 value);
  void write16_slow(GuestAddr addr, u16 value);
  void write32_slow(GuestAddr addr, u32 value);

  /// One predictable branch on the hot write path when no page is watched.
  void notify_write(GuestAddr addr, u32 len) {
    if (watched_pages_ == 0) [[likely]] return;
    const u32 first = addr >> kPageShift;
    const u32 last = (addr + len - 1) >> kPageShift;
    for (u32 page = first; page <= last; ++page) {
      if (is_watched(page)) {
        if (watch_) watch_(addr, len);
        return;
      }
    }
  }

  std::array<Leaf*, kRootSlots> root_{};  // owned by leaves_
  std::vector<std::unique_ptr<Leaf>> leaves_;
  std::vector<std::unique_ptr<Page>> pages_;
  std::size_t watched_pages_ = 0;
  mutable std::array<TlbEntry, kTlbSlots> read_tlb_;
  std::array<TlbEntry, kTlbSlots> write_tlb_;
  bool tlb_enabled_ = true;
  WriteWatch watch_;
};

}  // namespace ndroid::mem
