#include "mem/shadow_memory.h"

#include <algorithm>
#include <cstring>

namespace ndroid::mem {

ShadowMemory::Page& ShadowMemory::touch_page(GuestAddr addr) {
  const u32 page_no = addr >> kPageShift;
  TlbEntry& e = tlb_[page_no & (kTlbSlots - 1)];
  if (e.page == page_no) return *e.host;
  Leaf*& leaf = root_[page_no >> kLeafBits];
  if (leaf == nullptr) {
    leaves_.push_back(std::make_unique<Leaf>());
    leaf = leaves_.back().get();
  }
  Page*& page = leaf->pages[page_no & (kLeafSlots - 1)];
  if (page == nullptr) {
    pages_.push_back(std::make_unique<Page>());
    page = pages_.back().get();
    page->bytes.fill(0);
  }
  e = {page_no, page};
  return *page;
}

Taint ShadowMemory::get(GuestAddr addr) const {
  const Page* p = find_page(addr);
  return p ? p->bytes[addr & kPageMask] : kTaintClear;
}

Taint ShadowMemory::get_range(GuestAddr addr, u32 len) const {
  if (live_bytes_ == 0) return kTaintClear;  // nothing tainted anywhere
  Taint t = kTaintClear;
  u32 done = 0;
  while (done < len) {
    const GuestAddr cur = addr + done;
    const u32 in_page = cur & kPageMask;
    const u32 chunk = std::min(kPageSize - in_page, len - done);
    const Page* p = find_page(cur);
    if (p != nullptr && p->live != 0) {  // dead pages contribute nothing
      // Plain reduction loop: the compiler vectorizes this to wide ORs,
      // which beats a hand-rolled 64-bit gather on every tested shape.
      const Taint* s = p->bytes.data() + in_page;
      Taint acc = kTaintClear;
      for (u32 i = 0; i < chunk; ++i) acc |= s[i];
      t |= acc;
    }
    done += chunk;
  }
  return t;
}

bool ShadowMemory::any_tainted_in(GuestAddr lo, GuestAddr hi) const {
  if (live_bytes_ == 0 || lo >= hi) return false;
  const u32 first = lo >> kPageShift;
  const u32 last = (hi - 1) >> kPageShift;
  // Walk the directory, not the page numbers: an absent leaf rules out
  // 4 MiB per null check, so a multi-GiB window costs O(resident pages
  // inside it), not O(window size).
  for (u32 r = first >> kLeafBits; r <= (last >> kLeafBits); ++r) {
    const Leaf* leaf = root_[r];
    if (leaf == nullptr) continue;
    const u32 base = r << kLeafBits;
    const u32 s_lo = r == (first >> kLeafBits) ? first - base : 0;
    const u32 s_hi = r == (last >> kLeafBits) ? last - base : kLeafSlots - 1;
    for (u32 s = s_lo; s <= s_hi; ++s) {
      const Page* p = leaf->pages[s];
      if (p != nullptr && p->live != 0) return true;
    }
  }
  return false;
}

void ShadowMemory::set(GuestAddr addr, Taint taint) {
  if (taint == kTaintClear && find_page(addr) == nullptr) return;
  const bool was = live_bytes_ != 0;
  Page& p = touch_page(addr);
  Taint& slot = p.bytes[addr & kPageMask];
  const u32 page_was = p.live;
  const int delta = (taint != kTaintClear) - (slot != kTaintClear);
  live_bytes_ += delta;
  p.live += delta;
  slot = taint;
  note_page(page_was, p.live);
  note_liveness(was);
}

void ShadowMemory::add(GuestAddr addr, Taint taint) {
  if (taint == kTaintClear) return;
  const bool was = live_bytes_ != 0;
  Page& p = touch_page(addr);
  Taint& slot = p.bytes[addr & kPageMask];
  const u32 page_was = p.live;
  const u32 delta = (slot == kTaintClear);
  live_bytes_ += delta;
  p.live += delta;
  slot |= taint;
  note_page(page_was, p.live);
  note_liveness(was);
}

void ShadowMemory::set_range(GuestAddr addr, u32 len, Taint taint) {
  const bool was = live_bytes_ != 0;
  u32 done = 0;
  while (done < len) {
    const GuestAddr cur = addr + done;
    const u32 in_page = cur & kPageMask;
    const u32 chunk = std::min(kPageSize - in_page, len - done);
    if (taint == kTaintClear) {
      Page* p = find_page(cur);
      if (p == nullptr || p->live == 0) {  // already clear
        done += chunk;
        continue;
      }
      const u32 page_was = p->live;
      const u32 already = count_live(*p, in_page, chunk);
      std::fill_n(p->bytes.data() + in_page, chunk, kTaintClear);
      live_bytes_ -= already;
      p->live -= already;
      note_page(page_was, p->live);
    } else {
      Page& p = touch_page(cur);
      const u32 page_was = p.live;
      const u32 already = count_live(p, in_page, chunk);
      std::fill_n(p.bytes.data() + in_page, chunk, taint);
      live_bytes_ += chunk - already;
      p.live += chunk - already;
      note_page(page_was, p.live);
    }
    done += chunk;
  }
  note_liveness(was);
}

void ShadowMemory::add_range(GuestAddr addr, u32 len, Taint taint) {
  if (taint == kTaintClear) return;
  const bool was = live_bytes_ != 0;
  u32 done = 0;
  while (done < len) {
    const GuestAddr cur = addr + done;
    const u32 in_page = cur & kPageMask;
    const u32 chunk = std::min(kPageSize - in_page, len - done);
    Page& p = touch_page(cur);
    const u32 page_was = p.live;
    if (p.live == 0) {  // every byte is fresh: bulk fill
      std::fill_n(p.bytes.data() + in_page, chunk, taint);
      live_bytes_ += chunk;
      p.live += chunk;
    } else {
      Taint* s = p.bytes.data() + in_page;
      u32 fresh = 0;
      for (u32 i = 0; i < chunk; ++i) {
        fresh += s[i] == kTaintClear;
        s[i] |= taint;
      }
      live_bytes_ += fresh;
      p.live += fresh;
    }
    note_page(page_was, p.live);
    done += chunk;
  }
  note_liveness(was);
}

void ShadowMemory::copy_range(GuestAddr dst, GuestAddr src, u32 len) {
  if (len == 0 || dst == src) return;
  const bool was = live_bytes_ != 0;
  // Same chunking and ordering as AddressSpace::copy: chunks bounded by
  // both page boundaries, ascending order unless dst overlaps src from
  // above. Per-chunk memmove over the label arrays plus a live recount of
  // the overwritten destination region keeps the counters exact.
  //
  // Epoch dedup: a destination page can be split across two chunks by a
  // source page boundary; `pending` holds that page's live count from
  // before its first chunk so note_page sees the per-(op, page) transition
  // exactly once.
  const bool backward = dst > src && dst < src + len;
  u32 pending_page = kNoPage;
  u32 pending_before = 0;
  Page* pending = nullptr;
  const auto flush = [&] {
    if (pending != nullptr) note_page(pending_before, pending->live);
    pending = nullptr;
    pending_page = kNoPage;
  };
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
    remaining -= chunk;
    const GuestAddr s_at = src + pos;
    const GuestAddr d_at = dst + pos;
    const u32 s_off = s_at & kPageMask;
    const u32 d_off = d_at & kPageMask;
    const Page* sp = find_page(s_at);
    const u32 src_live = sp != nullptr ? count_live(*sp, s_off, chunk) : 0;
    Page* dp = find_page(d_at);
    if (dp == nullptr) {
      if (src_live == 0) continue;  // copying clear onto absent: no-op
      dp = &touch_page(d_at);
    }
    const u32 d_page = d_at >> kPageShift;
    if (d_page != pending_page) {
      flush();
      pending_page = d_page;
      pending = dp;
      pending_before = dp->live;
    }
    const u32 before = count_live(*dp, d_off, chunk);
    if (sp != nullptr) {
      std::memmove(dp->bytes.data() + d_off, sp->bytes.data() + s_off,
                   chunk * sizeof(Taint));
    } else {
      std::fill_n(dp->bytes.data() + d_off, chunk, kTaintClear);
    }
    dp->live = dp->live - before + src_live;
    live_bytes_ = live_bytes_ - before + src_live;
  }
  flush();
  note_liveness(was);
}

void ShadowMemory::or_copy_range(GuestAddr dst, GuestAddr src, u32 len) {
  if (len == 0 || dst == src) return;
  if (live_bytes_ == 0) return;  // every source label is clear: no-op
  if (dst < src + len && src < dst + len) {
    // Overlapping regions: keep the per-byte forward cascade (a label
    // ORed into dst early may be re-read as a later source byte), which
    // is what the per-byte syslib model historically computed.
    for (u32 i = 0; i < len; ++i) add(dst + i, get(src + i));
    return;
  }
  u32 done = 0;
  while (done < len) {
    const GuestAddr s_at = src + done;
    const GuestAddr d_at = dst + done;
    const u32 src_room = kPageSize - (s_at & kPageMask);
    const u32 dst_room = kPageSize - (d_at & kPageMask);
    const u32 chunk = std::min({src_room, dst_room, len - done});
    done += chunk;
    const Page* sp = find_page(s_at);
    if (sp == nullptr || count_live(*sp, s_at & kPageMask, chunk) == 0) {
      continue;  // ORing clear labels changes nothing, allocates nothing
    }
    Page& dp = touch_page(d_at);
    const u32 page_was = dp.live;
    const Taint* s = sp->bytes.data() + (s_at & kPageMask);
    Taint* d = dp.bytes.data() + (d_at & kPageMask);
    u32 fresh = 0;
    for (u32 i = 0; i < chunk; ++i) {
      fresh += d[i] == kTaintClear && s[i] != kTaintClear;
      d[i] |= s[i];
    }
    dp.live += fresh;
    live_bytes_ += fresh;
    note_page(page_was, dp.live);
  }
  // live_bytes_ was non-zero on entry and OR only grows it: no liveness
  // crossing is possible, matching the per-byte add() sequence.
}

void ShadowMemory::clear_all() {
  const bool was = live_bytes_ != 0;
  if (mutation_slot_ != nullptr && live_bytes_ != 0) ++*mutation_slot_;
  root_.fill(nullptr);
  leaves_.clear();
  pages_.clear();
  live_bytes_ = 0;
  tlb_.fill(TlbEntry{});
  note_liveness(was);
}

}  // namespace ndroid::mem
