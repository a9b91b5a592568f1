// Leak reports and the analysis trace log.
//
// The trace log reproduces the style of the paper's case-study figures
// (Figs. 6-9): one line per analysis event — method info at dvmCallJNIMethod,
// SourcePolicy application, TrustCall handlers, sink handlers.
#pragma once

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "arm/cpu.h"
#include "common/types.h"

namespace ndroid::core {

/// Substrate performance counters (translation-block cache + fast paths),
/// collected from a Cpu for benchmarks and tests.
struct PerfCounters {
  u64 tb_lookups = 0;
  u64 tb_hits = 0;
  u64 tb_translations = 0;
  u64 tb_invalidated = 0;
  u64 tb_flushes = 0;
  u64 fastpath_blocks = 0;  // blocks executed with all insn hooks skipped
  u64 fastpath_insns = 0;   // instructions those blocks retired
  u64 decode_lookups = 0;
  u64 decode_hits = 0;
  u64 threaded_links = 0;    // block transitions that stayed in-loop
  u64 threaded_patches = 0;  // direct-link exit slots (re)patched
  // Always 0: no tier compiles host code; kept for the e2e benchmark's reads.
  u64 jit_blocks = 0;
  u64 jit_traced_blocks = 0;
  u64 jit_fallback_blocks = 0;

  [[nodiscard]] double tb_hit_rate() const {
    return tb_lookups == 0
               ? 0.0
               : static_cast<double>(tb_hits) / static_cast<double>(tb_lookups);
  }
};

inline PerfCounters collect_perf(const arm::Cpu& cpu) {
  const arm::TbCache& tb = cpu.tb_cache();
  PerfCounters c;
  c.tb_lookups = tb.lookups();
  c.tb_hits = tb.hits();
  c.tb_translations = tb.translations();
  c.tb_invalidated = tb.invalidated_blocks();
  c.tb_flushes = tb.flushes();
  c.fastpath_blocks = cpu.fastpath_blocks();
  c.fastpath_insns = cpu.fastpath_insns();
  c.decode_lookups = cpu.decode_lookups();
  c.decode_hits = cpu.decode_hits();
  c.threaded_links = cpu.threaded_links();
  c.threaded_patches = cpu.threaded_patches();
  return c;
}

/// A leak NDroid detected at a native-context sink (Table VII's starred
/// functions: write*, send*, sendto*, fwrite*, fputc*, fputs*, fprintf).
struct NativeLeak {
  std::string sink;         // function name, e.g. "sendto", "fprintf"
  std::string destination;  // remote host or file path
  Taint taint = kTaintClear;
  std::string data;         // bytes that reached the sink
  GuestAddr pc = 0;         // where the sink call happened
};

/// Aggregate view over a leak list (reporting convenience).
struct LeakSummary {
  u32 total = 0;
  Taint taint_union = kTaintClear;
  std::map<std::string, u32> by_sink;
  std::map<std::string, u32> by_destination;
};

inline LeakSummary summarize(const std::vector<NativeLeak>& leaks) {
  LeakSummary s;
  for (const NativeLeak& leak : leaks) {
    ++s.total;
    s.taint_union |= leak.taint;
    ++s.by_sink[leak.sink];
    ++s.by_destination[leak.destination];
  }
  return s;
}

class TraceLog {
 public:
  void line(std::string s) {
    if (echo) std::fputs((s + "\n").c_str(), stdout);
    if (lines_.size() >= kMaxLines) {
      ++dropped_;
      return;
    }
    lines_.push_back(std::move(s));
  }
  [[nodiscard]] const std::vector<std::string>& lines() const {
    return lines_;
  }
  [[nodiscard]] bool contains(std::string_view needle) const {
    for (const std::string& l : lines_) {
      if (l.find(needle) != std::string::npos) return true;
    }
    return false;
  }
  void clear() { lines_.clear(); }

  [[nodiscard]] u64 dropped() const { return dropped_; }

  /// Echo to stdout as lines arrive (the figure benches enable this).
  bool echo = false;

 private:
  static constexpr std::size_t kMaxLines = 65536;
  std::vector<std::string> lines_;
  u64 dropped_ = 0;
};

}  // namespace ndroid::core
