// The benchmark's workloads: seeded job streams fed to farm::run_farm in
// fixed-size batches, one batch at a time (a closed loop with one client).
#pragma once

#include <string_view>
#include <vector>

#include "farm/job.h"

namespace e2e {

using ndroid::u32;
using ndroid::u64;
using ndroid::farm::JobSpec;

struct Workload {
  const char* name;
  /// FarmOptions::workers for the untraced run and thread count of the
  /// traced replay (0 = inline serial).
  u32 workers;
  /// Measured batches at the default run length (calibration.h).
  u32 batches;
  /// Batches the traced replay runs at the default run length.
  u32 traced_batches;
  /// Batch `b` of the stream; batch 0 is the cold warm-up batch.
  std::vector<JobSpec> (*make_batch)(u64 seed, u32 b);
};

[[nodiscard]] const std::vector<Workload>& workloads();
/// Null when no workload has that name.
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// Iteration count of CF-Bench category `category` in its seed-chosen
/// variant `variant` (both index calibration.h's kCfCategories).
[[nodiscard]] u32 cfbench_iterations(u32 category, u32 variant);

}  // namespace e2e
