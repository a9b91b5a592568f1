// The guest native heap: the one allocator behind libc's malloc family and
// the JNI accessors' buffers (GetStringUTFChars, Get*ArrayElements), which
// Dalvik backs with malloc/free too.
//
// It owns the kernel's [heap] region and hands out its pages in address
// order (map_pages, which is also the mmap syscall's anonymous memory and is
// never returned). On those pages:
//  * blocks of up to kMaxSmall bytes come in 16-byte size classes. Each
//    class carves its blocks from pages of its own, so small blocks share
//    pages, and a freed block goes on its class's LIFO free list, to be
//    handed out again before any new block is carved;
//  * larger blocks take whole pages and are reused by exact page count.
//
// Every carved page records its block size and one live bit per block, so
// block_size() is O(1), and freeing an address that is not a live block
// (foreign, interior or already freed) is ignored.
//
// Reused memory keeps the bytes, and in NDroid's shadow map the taint, of
// its earlier owner: whoever hands a block out decides what it holds (the
// malloc model clears its shadow, the JNI accessor hooks set it).
#pragma once

#include <array>
#include <map>
#include <vector>

#include "common/types.h"

namespace ndroid::os {

class NativeHeap {
 public:
  static constexpr u32 kPageSize = 0x1000;
  static constexpr u32 kGranule = 16;
  static constexpr u32 kMaxSmall = 2048;
  static constexpr u32 kClasses = kMaxSmall / kGranule;

  NativeHeap(GuestAddr base, u32 size) : base_(base), end_(base + size) {}

  /// `len` bytes rounded up to whole pages, never freed (the mmap syscall).
  /// Throws GuestFault("guest heap exhausted") past the region's end.
  GuestAddr map_pages(u32 len);

  /// A block of at least `size` bytes (a 16-byte one for 0), 16-aligned.
  GuestAddr alloc(u32 size);
  /// Returns a live block to its free list; any other address is ignored.
  void free(GuestAddr addr);
  /// Usable bytes of the live block at `addr`, or 0 if there is none.
  [[nodiscard]] u32 block_size(GuestAddr addr) const;

  /// Bytes of the region handed out so far: the heap's high-water mark.
  [[nodiscard]] u32 mapped_bytes() const { return next_ - base_; }
  [[nodiscard]] u32 live_blocks() const { return live_blocks_; }

 private:
  struct PageInfo {
    // 0: not carved into blocks (mapped pages, a large block's tail pages);
    // up to kMaxSmall: the size class's block size; else a large block's
    // size, on its first page.
    u32 block_bytes = 0;
    std::array<u64, 4> live{};  // bit k: the page's k-th block is live
  };
  struct SizeClass {
    std::vector<GuestAddr> free;
    GuestAddr next = 0;  // next block to carve on the class's newest page
    GuestAddr end = 0;   // end of that page
  };

  [[nodiscard]] const PageInfo* page_of(GuestAddr addr) const;
  PageInfo& page_info(GuestAddr addr) {
    return pages_[(addr - base_) / kPageSize];
  }
  static void set_live(PageInfo& page, u32 slot, bool live);
  static bool is_live(const PageInfo& page, u32 slot) {
    return (page.live[slot / 64] >> (slot % 64) & 1) != 0;
  }
  GuestAddr alloc_large(u32 size);

  GuestAddr base_;
  GuestAddr end_;
  GuestAddr next_ = base_;
  std::vector<PageInfo> pages_;  // one per page handed out
  std::array<SizeClass, kClasses> classes_;
  std::map<u32, std::vector<GuestAddr>> large_free_;  // by page count
  u32 live_blocks_ = 0;
};

}  // namespace ndroid::os
