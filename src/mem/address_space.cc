#include "mem/address_space.h"

#include <algorithm>
#include <cstring>

namespace ndroid::mem {

AddressSpace::Leaf& AddressSpace::touch_leaf(u32 page_no) {
  Leaf*& leaf = root_[page_no >> kLeafBits];
  if (leaf == nullptr) {
    leaves_.push_back(std::make_unique<Leaf>());
    leaf = leaves_.back().get();
  }
  return *leaf;
}

AddressSpace::Page& AddressSpace::touch_page(GuestAddr addr) {
  const u32 page_no = addr >> kPageShift;
  Page*& page = touch_leaf(page_no).pages[page_no & (kLeafSlots - 1)];
  if (page == nullptr) {
    pages_.push_back(std::make_unique<Page>());  // value-initialised: zeros
    page = pages_.back().get();
  }
  return *page;
}

void AddressSpace::set_page_watched(u32 page_no, bool on) {
  if (!on && root_[page_no >> kLeafBits] == nullptr) return;
  u8& watched = touch_leaf(page_no).watched[page_no & (kLeafSlots - 1)];
  if (watched == static_cast<u8>(on)) return;
  watched = on;
  if (!on) {
    --watched_pages_;
    return;
  }
  ++watched_pages_;
  TlbEntry& e = write_tlb_[page_no & (kTlbSlots - 1)];
  if (e.page == page_no) e = TlbEntry{};
}

u8 AddressSpace::read8_slow(GuestAddr addr) const {
  Page* p = find_page(addr);
  if (p == nullptr) return 0;
  fill_read_tlb(addr >> kPageShift, *p);
  return (*p)[addr & kPageMask];
}

u16 AddressSpace::read16_slow(GuestAddr addr) const {
  if ((addr & kPageMask) > kPageSize - 2)  // straddles a page boundary
    return static_cast<u16>(read8(addr)) |
           (static_cast<u16>(read8(addr + 1)) << 8);
  Page* p = find_page(addr);
  if (p == nullptr) return 0;
  fill_read_tlb(addr >> kPageShift, *p);
  u16 v;
  std::memcpy(&v, p->data() + (addr & kPageMask), 2);
  return v;
}

u32 AddressSpace::read32_slow(GuestAddr addr) const {
  if ((addr & kPageMask) > kPageSize - 4)
    return static_cast<u32>(read16(addr)) |
           (static_cast<u32>(read16(addr + 2)) << 16);
  Page* p = find_page(addr);
  if (p == nullptr) return 0;
  fill_read_tlb(addr >> kPageShift, *p);
  u32 v;
  std::memcpy(&v, p->data() + (addr & kPageMask), 4);
  return v;
}

u64 AddressSpace::read64(GuestAddr addr) const {
  return static_cast<u64>(read32(addr)) |
         (static_cast<u64>(read32(addr + 4)) << 32);
}

void AddressSpace::write8_slow(GuestAddr addr, u8 value) {
  Page& p = touch_page(addr);
  p[addr & kPageMask] = value;
  notify_write(addr, 1);
  fill_write_tlb(addr >> kPageShift, p);
}

void AddressSpace::write16_slow(GuestAddr addr, u16 value) {
  if ((addr & kPageMask) > kPageSize - 2) {
    write8(addr, static_cast<u8>(value));
    write8(addr + 1, static_cast<u8>(value >> 8));
    return;
  }
  Page& p = touch_page(addr);
  std::memcpy(p.data() + (addr & kPageMask), &value, 2);
  notify_write(addr, 2);
  fill_write_tlb(addr >> kPageShift, p);
}

void AddressSpace::write32_slow(GuestAddr addr, u32 value) {
  if ((addr & kPageMask) > kPageSize - 4) {
    write16(addr, static_cast<u16>(value));
    write16(addr + 2, static_cast<u16>(value >> 16));
    return;
  }
  Page& p = touch_page(addr);
  std::memcpy(p.data() + (addr & kPageMask), &value, 4);
  notify_write(addr, 4);
  fill_write_tlb(addr >> kPageShift, p);
}

void AddressSpace::write64(GuestAddr addr, u64 value) {
  write32(addr, static_cast<u32>(value));
  write32(addr + 4, static_cast<u32>(value >> 32));
}

void AddressSpace::read_bytes(GuestAddr addr, std::span<u8> out) const {
  std::size_t done = 0;
  while (done < out.size()) {
    const GuestAddr cur = addr + static_cast<u32>(done);
    const u32 in_page = cur & kPageMask;
    const u32 chunk = std::min<u32>(kPageSize - in_page,
                                    static_cast<u32>(out.size() - done));
    if (const Page* p = find_page(cur)) {
      std::memcpy(out.data() + done, p->data() + in_page, chunk);
    } else {
      std::memset(out.data() + done, 0, chunk);
    }
    done += chunk;
  }
}

void AddressSpace::write_bytes(GuestAddr addr, std::span<const u8> in) {
  std::size_t done = 0;
  while (done < in.size()) {
    const GuestAddr cur = addr + static_cast<u32>(done);
    const u32 in_page = cur & kPageMask;
    const u32 chunk = std::min<u32>(kPageSize - in_page,
                                    static_cast<u32>(in.size() - done));
    std::memcpy(touch_page(cur).data() + in_page, in.data() + done, chunk);
    done += chunk;
  }
  if (!in.empty()) notify_write(addr, static_cast<u32>(in.size()));
}

std::string AddressSpace::read_cstr(GuestAddr addr, u32 max_len) const {
  std::string out;
  u32 scanned = 0;
  while (scanned < max_len) {
    const GuestAddr cur = addr + scanned;
    const u32 chunk =
        std::min(kPageSize - (cur & kPageMask), max_len - scanned);
    const Page* p = find_page(cur);
    if (p == nullptr) return out;  // absent page reads as zero: terminator
    const u8* base = p->data() + (cur & kPageMask);
    if (const void* nul = std::memchr(base, 0, chunk)) {
      out.append(reinterpret_cast<const char*>(base),
                 static_cast<std::size_t>(static_cast<const u8*>(nul) - base));
      return out;
    }
    out.append(reinterpret_cast<const char*>(base), chunk);
    scanned += chunk;
  }
  throw GuestFault("unterminated guest string at 0x" + std::to_string(addr));
}

void AddressSpace::write_cstr(GuestAddr addr, std::string_view s) {
  write_bytes(addr, {reinterpret_cast<const u8*>(s.data()), s.size()});
  write8(addr + static_cast<u32>(s.size()), 0);
}

void AddressSpace::fill(GuestAddr addr, u8 value, u32 len) {
  if (len == 0) return;
  u32 done = 0;
  while (done < len) {
    const GuestAddr cur = addr + done;
    const u32 chunk = std::min(kPageSize - (cur & kPageMask), len - done);
    if (value == 0 && find_page(cur) == nullptr) {
      done += chunk;  // untouched memory already reads as zero
      continue;
    }
    Page& p = touch_page(cur);
    std::memset(p.data() + (cur & kPageMask), value, chunk);
    done += chunk;
  }
  notify_write(addr, len);
}

void AddressSpace::copy(GuestAddr dst, GuestAddr src, u32 len) {
  if (len == 0 || dst == src) return;
  // Chunks are bounded by both the source and destination page boundaries,
  // so each is a single memmove (or memset for an untouched source page)
  // between host pages. Chunks run in ascending address order when dst is
  // below src and descending when the ranges overlap with dst above src;
  // with the per-chunk memmove that reproduces full memmove semantics.
  const bool backward = dst > src && dst < src + len;
  u32 done = backward ? len : 0;
  for (u32 remaining = len; remaining > 0;) {
    u32 pos;
    u32 chunk;
    if (backward) {
      const u32 src_room = ((src + done - 1) & kPageMask) + 1;
      const u32 dst_room = ((dst + done - 1) & kPageMask) + 1;
      chunk = std::min({src_room, dst_room, remaining});
      pos = done - chunk;
      done = pos;
    } else {
      const u32 src_room = kPageSize - ((src + done) & kPageMask);
      const u32 dst_room = kPageSize - ((dst + done) & kPageMask);
      chunk = std::min({src_room, dst_room, remaining});
      pos = done;
      done += chunk;
    }
    const Page* sp = find_page(src + pos);
    u8* d = touch_page(dst + pos).data() + ((dst + pos) & kPageMask);
    if (sp != nullptr) {
      std::memmove(d, sp->data() + ((src + pos) & kPageMask), chunk);
    } else {
      std::memset(d, 0, chunk);
    }
    remaining -= chunk;
  }
  notify_write(dst, len);
}

}  // namespace ndroid::mem
