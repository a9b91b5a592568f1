// Process-wide, concurrency-safe cache of per-library static analysis
// artifacts (the center of the analysis farm, src/farm).
//
// Keyed by library content hash (library_key): the first caller to meet a
// distinct library lifts it and publishes an immutable shared_ptr snapshot;
// every concurrent and later caller for the same key blocks until the
// snapshot is ready and then shares it. Exactly one lift happens per key no
// matter how many workers race on first access — the lift runs outside the
// cache-wide lock, so concurrent lifts of *different* libraries proceed in
// parallel.
//
// acquire() also performs the per-process binding step: a snapshot lifted at
// the requesting process's load base is returned as-is (zero-copy); a
// mismatched base gets a relocated copy (bind_library). Binding is a pure
// function of (snapshot, base), so the slot keeps each relocated copy for
// the next acquire at that base: one relocation per (key, base), counted in
// Stats::rebinds. The canonical snapshot itself stays pristine.
//
// With a persistent SummaryStore attached (set_store), the cache becomes
// the in-memory tier of a two-level hierarchy: a first-acquire miss
// consults the on-disk store before lifting (Stats::store_hits), a fresh
// lift is written back (Stats::store_writes), and warm_from_store()
// pre-publishes every on-disk entry — the farm supervisor calls it before
// forking worker processes so every worker inherits a fully warmed cache
// through copy-on-write memory.
#pragma once

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "static/library_summary.h"

namespace ndroid::static_analysis {

class SummaryStore;

class SummaryCache {
 public:
  struct Stats {
    u64 hits = 0;     // acquire() served from a published snapshot
    u64 misses = 0;   // acquire() not served from memory (store load or lift)
    u64 rebinds = 0;  // relocations to another load base (one per base)
    /// Acquires whose artifact originated from the persistent store (a
    /// direct on-miss load, or a hit on a slot published by the store /
    /// warm_from_store). Zero when no store is attached.
    u64 store_hits = 0;
    u64 store_writes = 0;  // fresh lifts written back to the store

    [[nodiscard]] double hit_rate() const {
      const u64 total = hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(hits) / static_cast<double>(total);
    }
  };

  SummaryCache() = default;
  SummaryCache(const SummaryCache&) = delete;
  SummaryCache& operator=(const SummaryCache&) = delete;

  /// Returns the library's artifact bound to `base`, lifting it via `lift`
  /// if this is the first acquire for `key`. Thread-safe; `lift` is invoked
  /// at most once per key across all threads (on the first caller's thread,
  /// with no cache lock held). If `lift` throws, the in-flight slot is
  /// abandoned so a later acquire can retry, and the exception propagates.
  std::shared_ptr<const LibrarySummary> acquire(
      u64 key, GuestAddr base, const std::function<LibrarySummary()>& lift);

  /// Attaches (or detaches, nullptr) the persistent backing store. The
  /// store must outlive the cache. Not synchronised against in-flight
  /// acquires — attach before handing the cache to workers.
  void set_store(SummaryStore* store) { store_ = store; }
  [[nodiscard]] SummaryStore* store() const { return store_; }

  /// Publishes every entry the store currently holds (corrupt entries are
  /// skipped). Returns the number of snapshots published. Call before
  /// forking workers: the decoded snapshots ride into every child via
  /// copy-on-write pages, so no worker pays the decode again.
  std::size_t warm_from_store();

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t size() const;
  /// Drops every snapshot and zeroes the counters (benchmark cold starts).
  void clear();

 private:
  struct Slot {
    std::mutex m;
    std::condition_variable cv;
    bool ready = false;
    bool failed = false;
    bool from_store = false;  // artifact came off disk, not a local lift
    std::shared_ptr<const LibrarySummary> lib;
    /// `lib` bound to each other load base it was acquired at.
    std::map<GuestAddr, std::shared_ptr<const LibrarySummary>> bound;
  };

  mutable std::mutex mu_;
  std::unordered_map<u64, std::shared_ptr<Slot>> slots_;
  Stats stats_;
  SummaryStore* store_ = nullptr;
};

}  // namespace ndroid::static_analysis
