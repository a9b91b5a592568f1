#include "os/native_heap.h"

namespace ndroid::os {

GuestAddr NativeHeap::map_pages(u32 len) {
  const u64 bytes = (u64{len} + kPageSize - 1) & ~u64{kPageSize - 1};
  if (next_ + bytes > end_) throw GuestFault("guest heap exhausted");
  const GuestAddr addr = next_;
  next_ += static_cast<u32>(bytes);
  pages_.resize((next_ - base_) / kPageSize);
  return addr;
}

GuestAddr NativeHeap::alloc(u32 size) {
  if (size > kMaxSmall) return alloc_large(size);
  const u32 cls = size == 0 ? 0 : (size - 1) / kGranule;
  const u32 bytes = (cls + 1) * kGranule;
  SizeClass& c = classes_[cls];
  GuestAddr addr;
  if (!c.free.empty()) {
    addr = c.free.back();
    c.free.pop_back();
  } else {
    if (c.next + bytes > c.end) {
      c.next = map_pages(kPageSize);
      c.end = c.next + kPageSize;
      page_info(c.next).block_bytes = bytes;
    }
    addr = c.next;
    c.next += bytes;
  }
  set_live(page_info(addr), (addr % kPageSize) / bytes, true);
  ++live_blocks_;
  return addr;
}

GuestAddr NativeHeap::alloc_large(u32 size) {
  const u32 pages =
      static_cast<u32>((u64{size} + kPageSize - 1) / kPageSize);
  GuestAddr addr;
  auto it = large_free_.find(pages);
  if (it != large_free_.end() && !it->second.empty()) {
    addr = it->second.back();
    it->second.pop_back();
  } else {
    if (u64{pages} * kPageSize > end_ - base_) {
      throw GuestFault("guest heap exhausted");
    }
    addr = map_pages(pages * kPageSize);
    page_info(addr).block_bytes = pages * kPageSize;
  }
  set_live(page_info(addr), 0, true);
  ++live_blocks_;
  return addr;
}

void NativeHeap::free(GuestAddr addr) {
  const u32 bytes = block_size(addr);
  if (bytes == 0) return;
  PageInfo& page = page_info(addr);
  if (bytes <= kMaxSmall) {
    set_live(page, (addr % kPageSize) / bytes, false);
    classes_[bytes / kGranule - 1].free.push_back(addr);
  } else {
    set_live(page, 0, false);
    large_free_[bytes / kPageSize].push_back(addr);
  }
  --live_blocks_;
}

u32 NativeHeap::block_size(GuestAddr addr) const {
  const PageInfo* page = page_of(addr);
  if (page == nullptr || page->block_bytes == 0) return 0;
  const u32 offset = addr % kPageSize;
  const u32 bytes = page->block_bytes;
  if (bytes > kMaxSmall) return offset == 0 && is_live(*page, 0) ? bytes : 0;
  if (offset % bytes != 0) return 0;
  return is_live(*page, offset / bytes) ? bytes : 0;
}

const NativeHeap::PageInfo* NativeHeap::page_of(GuestAddr addr) const {
  if (addr < base_ || addr >= next_) return nullptr;
  return &pages_[(addr - base_) / kPageSize];
}

void NativeHeap::set_live(PageInfo& page, u32 slot, bool live) {
  const u64 bit = u64{1} << (slot % 64);
  if (live) {
    page.live[slot / 64] |= bit;
  } else {
    page.live[slot / 64] &= ~bit;
  }
}

}  // namespace ndroid::os
