#include "static/summary_cache.h"

#include "static/summary_store.h"

namespace ndroid::static_analysis {

std::shared_ptr<const LibrarySummary> SummaryCache::acquire(
    u64 key, GuestAddr base, const std::function<LibrarySummary()>& lift) {
  std::shared_ptr<Slot> slot;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slots_.find(key);
    if (it == slots_.end()) {
      slot = std::make_shared<Slot>();
      slots_.emplace(key, slot);
      owner = true;
      ++stats_.misses;
    } else {
      slot = it->second;
      ++stats_.hits;
      std::lock_guard<std::mutex> slot_lock(slot->m);
      if (slot->ready && slot->from_store) ++stats_.store_hits;
    }
  }

  if (owner) {
    try {
      // Two-level lookup: the persistent store first (hash-verified; any
      // corruption reads as a miss and we lift fresh), then the lift.
      std::shared_ptr<const LibrarySummary> lib;
      bool from_store = false;
      if (store_ != nullptr) {
        lib = store_->load(key);
        from_store = lib != nullptr;
      }
      if (lib == nullptr) {
        lib = std::make_shared<const LibrarySummary>(lift());
        if (store_ != nullptr && store_->save(*lib)) {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.store_writes;
        }
      }
      if (from_store) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.store_hits;
      }
      {
        std::lock_guard<std::mutex> lock(slot->m);
        slot->lib = std::move(lib);
        slot->from_store = from_store;
        slot->ready = true;
      }
      slot->cv.notify_all();
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(slot->m);
        slot->failed = true;
        slot->ready = true;
      }
      slot->cv.notify_all();
      // Abandon the slot so a later acquire retries the lift.
      std::lock_guard<std::mutex> lock(mu_);
      auto it = slots_.find(key);
      if (it != slots_.end() && it->second == slot) slots_.erase(it);
      throw;
    }
  }

  std::shared_ptr<const LibrarySummary> lib;
  bool relocated = false;
  {
    std::unique_lock<std::mutex> lock(slot->m);
    slot->cv.wait(lock, [&] { return slot->ready; });
    if (slot->failed) {
      // The owner's lift failed after we were counted as a hit; fall back
      // to lifting privately so this caller still makes progress.
      lock.unlock();
      return std::make_shared<const LibrarySummary>(lift());
    }
    lib = slot->lib;
    if (base != lib->lifted_base) {
      // Relocated under the slot lock, so each (key, base) relocates once.
      std::shared_ptr<const LibrarySummary>& bound = slot->bound[base];
      if (bound == nullptr) {
        bound = bind_library(lib, base);
        relocated = true;
      }
      lib = bound;
    }
  }
  if (relocated) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.rebinds;
  }
  return lib;
}

std::size_t SummaryCache::warm_from_store() {
  if (store_ == nullptr) return 0;
  std::size_t published = 0;
  for (const u64 key : store_->keys()) {
    std::shared_ptr<const LibrarySummary> lib = store_->load(key);
    if (lib == nullptr) continue;  // corrupt entry: left for a fresh lift
    auto slot = std::make_shared<Slot>();
    slot->lib = std::move(lib);
    slot->from_store = true;
    slot->ready = true;
    std::lock_guard<std::mutex> lock(mu_);
    if (slots_.emplace(key, std::move(slot)).second) ++published;
  }
  return published;
}

SummaryCache::Stats SummaryCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t SummaryCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

void SummaryCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  slots_.clear();
  stats_ = Stats{};
}

}  // namespace ndroid::static_analysis
