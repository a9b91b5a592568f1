// JSON serialisation of the static pre-analysis results (consumed by the
// ndroid-scan CLI and the experiment scripts), plus the first-class
// precision surface: per-program PrecisionReport aggregates and the
// human-readable `--explain` audit that gives a degradation reason chain
// for every non-transparent function.
#pragma once

#include <string>

#include "static/cfg.h"
#include "static/summary.h"

namespace ndroid::static_analysis {

/// Aggregated precision facts over one lifted program: the verdict
/// histogram plus the resolved/unresolved indirect-control-flow counters
/// that ndroid-scan and bench stamp into their JSON, and that the CI
/// precision gate compares against a checked-in budget.
struct PrecisionReport {
  u32 functions = 0;
  u32 transparent = 0;       // TaintSummary::transparent verdicts
  u32 opaque_summaries = 0;  // TaintSummary::opaque(): gate never skips
  u32 truncated = 0;
  u32 degraded = 0;  // functions carrying a non-empty degrade chain
  u32 mem_kind_counts[4] = {};  // verdict histogram, indexed by MemKind
  u32 resolved_indirect_branches = 0;
  u32 unresolved_indirect_branches = 0;
  u32 resolved_indirect_calls = 0;
  u32 unresolved_indirect_calls = 0;
  u32 reason_counts[kDegradeReasonCount] = {};  // indexed by DegradeReason

  /// Element-wise sum (multi-app corpus roll-up for the budget gate).
  void accumulate(const PrecisionReport& other);
};

[[nodiscard]] PrecisionReport precision_report(const Program& program,
                                               const SummaryIndex& index);

/// Per-function blocks, call edges, taint summary, precision counters and
/// degrade chains, plus the aggregate "precision" object.
[[nodiscard]] std::string to_json(const Program& program,
                                  const SummaryIndex& index);
[[nodiscard]] std::string to_json(const PrecisionReport& report);

/// Human-readable audit: one line per function with its verdict; every
/// non-transparent function gets a reason chain explaining where precision
/// was first lost. When the lift itself never degraded (the facts are exact
/// and the function is simply not a no-op), the "why" is synthesised from
/// the summary: memory effects, call sites, SVC, argument flows.
[[nodiscard]] std::string explain(const Program& program,
                                  const SummaryIndex& index);

[[nodiscard]] const char* to_string(MemKind kind);

}  // namespace ndroid::static_analysis
