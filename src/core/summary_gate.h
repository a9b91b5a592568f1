// Bridge between the static pre-analysis layer (src/static) and NDroid's
// dynamic block gate.
//
// Holds one immutable snapshot per native library (shared across every
// NDroid instance in the process via static_analysis::SummaryCache — the
// gate keeps the shared_ptrs alive but never mutates the snapshots) and
// answers, per translation block, "which function's taint summary covers
// this block?". The answer is trustworthy only when the block provably
// executes the same instruction stream the lifter decoded, so lookup()
// insists that
//   * the block's pc falls inside a lifted function of the same mode
//     (ARM vs Thumb), and
//   * the pc is an instruction boundary of that function (dynamic blocks
//     legitimately start mid-static-block — e.g. at call fall-throughs,
//     since BL ends a translation block — but never mid-instruction).
// A block that passes both checks executes a subset of the function's
// instructions, so the function-level facts (touched_regs, mem_kind,
// windows) are supersets of the block's behaviour.
#pragma once

#include <memory>
#include <vector>

#include "static/cfg.h"
#include "static/library_summary.h"
#include "static/summary.h"

namespace ndroid::core {

class SummaryGate {
 public:
  /// Builds the gate over one snapshot per native library, each already
  /// bound to this process's load bases (see bind_library). The snapshots
  /// are shared, immutable, and kept alive for the gate's lifetime.
  explicit SummaryGate(
      std::vector<std::shared_ptr<const static_analysis::LibrarySummary>>
          libraries);

  SummaryGate(const SummaryGate&) = delete;
  SummaryGate& operator=(const SummaryGate&) = delete;

  /// Summary applicable to a translation block starting at (pc, thumb),
  /// or nullptr when no lifted function covers it (conservative fallback:
  /// the caller must treat a miss as "trace fully").
  [[nodiscard]] const static_analysis::TaintSummary* lookup(GuestAddr pc,
                                                            bool thumb) const;

  /// Merged per-function summaries across every library (bound addresses).
  [[nodiscard]] const static_analysis::SummaryIndex& index() const {
    return merged_index_;
  }
  [[nodiscard]] const std::vector<
      std::shared_ptr<const static_analysis::LibrarySummary>>&
  libraries() const {
    return libraries_;
  }

 private:
  struct Span {
    GuestAddr lo = 0;
    GuestAddr hi = 0;
    const static_analysis::FunctionCfg* fn = nullptr;
    const static_analysis::TaintSummary* summary = nullptr;
    /// Instruction-start addresses of every lifted block of fn; points into
    /// the shared snapshot's precomputed sorted lists
    /// (LibrarySummary::boundaries).
    const std::vector<GuestAddr>* boundaries = nullptr;
  };

  std::vector<std::shared_ptr<const static_analysis::LibrarySummary>>
      libraries_;
  static_analysis::SummaryIndex merged_index_;
  std::vector<Span> spans_;        // sorted by lo (spans may overlap)
  std::vector<GuestAddr> max_hi_;  // prefix max of hi, for containment scans
};

}  // namespace ndroid::core
