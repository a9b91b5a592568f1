#include "arm/tb_cache.h"

#include <algorithm>

namespace ndroid::arm {

std::shared_ptr<TranslationBlock> TbCache::lookup(GuestAddr pc, bool thumb) {
  ++lookups_;
  auto it = blocks_.find(key(pc, thumb));
  if (it == blocks_.end()) return nullptr;
  ++hits_;
  return it->second;
}

void TbCache::insert(std::shared_ptr<TranslationBlock> tb) {
  ++translations_;
  const u32 first_page = tb->pc >> kPageShift;
  const u32 last_page =
      (tb->pc + (tb->byte_length == 0 ? 0 : tb->byte_length - 1)) >>
      kPageShift;
  for (u32 page = first_page; page <= last_page; ++page) {
    std::vector<TranslationBlock*>& list = page_blocks_[page];
    list.push_back(tb.get());
    // First block on the page: watch it (which also drops any write-TLB
    // entry cached while the page was unwatched).
    if (list.size() == 1) memory_.set_page_watched(page, true);
  }
  blocks_[key(tb->pc, tb->thumb)] = std::move(tb);
}

void TbCache::kill_block(TranslationBlock* tb) {
  if (tb->dead) return;
  tb->dead = true;
  ++invalidated_;
  ++version_;
  // Keep the block alive past its own cleanup: the executor may be running
  // it (or an outer frame may hold a raw pointer), so park it in the
  // graveyard until the Cpu signals a safe point.
  auto it = blocks_.find(key(tb->pc, tb->thumb));
  if (it != blocks_.end() && it->second.get() == tb) {
    graveyard_.push_back(std::move(it->second));
    blocks_.erase(it);
  }
  const u32 first_page = tb->pc >> kPageShift;
  const u32 last_page =
      (tb->pc + (tb->byte_length == 0 ? 0 : tb->byte_length - 1)) >>
      kPageShift;
  for (u32 page = first_page; page <= last_page; ++page) {
    auto pit = page_blocks_.find(page);
    if (pit == page_blocks_.end()) continue;
    std::erase(pit->second, tb);
    if (pit->second.empty()) {
      page_blocks_.erase(pit);
      memory_.set_page_watched(page, false);
    }
  }
}

void TbCache::invalidate_range(GuestAddr addr, u32 len) {
  if (len == 0) return;
  const u32 first_page = addr >> kPageShift;
  const u32 last_page = (addr + len - 1) >> kPageShift;
  const GuestAddr end = addr + len;
  // Collect first: kill_block edits the page lists being walked.
  std::vector<TranslationBlock*> victims;
  for (u32 page = first_page; page <= last_page; ++page) {
    auto it = page_blocks_.find(page);
    if (it == page_blocks_.end()) continue;
    for (TranslationBlock* tb : it->second) {
      if (!tb->dead && tb->pc < end && tb->pc + tb->byte_length > addr) {
        victims.push_back(tb);
      }
    }
  }
  for (TranslationBlock* tb : victims) kill_block(tb);
}

void TbCache::flush() {
  ++flushes_;
  ++version_;
  invalidated_ += blocks_.size();
  for (auto& [k, tb] : blocks_) {
    tb->dead = true;
    graveyard_.push_back(std::move(tb));
  }
  blocks_.clear();
  unwatch_all();
}

void TbCache::unwatch_all() {
  for (const auto& [page, list] : page_blocks_) {
    memory_.set_page_watched(page, false);
  }
  page_blocks_.clear();
}

}  // namespace ndroid::arm
