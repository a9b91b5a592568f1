#include "core/summary_gate.h"

#include <algorithm>

namespace ndroid::core {

using static_analysis::LibrarySummary;
using static_analysis::TaintSummary;

SummaryGate::SummaryGate(
    std::vector<std::shared_ptr<const LibrarySummary>> libraries)
    : libraries_(std::move(libraries)) {
  // Merge the per-library indices first: the merged map's nodes never move,
  // so spans can point at its summaries while the shared snapshots provide
  // the (equally stable) function CFGs.
  for (const auto& lib : libraries_) {
    if (lib == nullptr) continue;
    for (const auto& [entry, s] : lib->index.summaries) {
      merged_index_.summaries.emplace(entry, s);
    }
  }
  for (const auto& lib : libraries_) {
    if (lib == nullptr) continue;
    for (const auto& [entry, fn] : lib->program.functions) {
      const TaintSummary* s = merged_index_.find(entry);
      if (s == nullptr) continue;
      auto bounds = lib->boundaries.find(entry);
      if (bounds == lib->boundaries.end()) continue;
      Span span;
      span.lo = fn.lo;
      span.hi = fn.hi;
      span.fn = &fn;
      span.summary = s;
      span.boundaries = &bounds->second;
      spans_.push_back(std::move(span));
    }
  }
  std::sort(spans_.begin(), spans_.end(),
            [](const Span& a, const Span& b) { return a.lo < b.lo; });
  max_hi_.reserve(spans_.size());
  GuestAddr running = 0;
  for (const Span& s : spans_) {
    running = std::max(running, s.hi);
    max_hi_.push_back(running);
  }
}

const TaintSummary* SummaryGate::lookup(GuestAddr pc, bool thumb) const {
  // First span with lo > pc; candidates are at indices < i. Function spans
  // can overlap, so walk back until the prefix max of hi drops below pc.
  auto it = std::upper_bound(
      spans_.begin(), spans_.end(), pc,
      [](GuestAddr v, const Span& s) { return v < s.lo; });
  for (auto i = static_cast<std::size_t>(it - spans_.begin()); i-- > 0;) {
    if (max_hi_[i] <= pc) break;
    const Span& s = spans_[i];
    if (pc < s.lo || pc >= s.hi) continue;
    if (s.fn->thumb != thumb) continue;
    if (!std::binary_search(s.boundaries->begin(), s.boundaries->end(), pc)) {
      continue;
    }
    return s.summary;
  }
  return nullptr;
}

}  // namespace ndroid::core
