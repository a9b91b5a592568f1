#include "workloads.h"

#include <stdexcept>
#include <string>

#include "calibration.h"
#include "farm/providers.h"

namespace e2e {

namespace farm = ndroid::farm;
namespace cal = calibration;

namespace {

/// 4 x default_mix (Table I, CF-Bench at 10 iterations, 8 market apps, two
/// 8-event monkey sessions) = 112 jobs; the market corpus and monkey seeds
/// change every batch.
std::vector<JobSpec> mix_batch(u64 seed, u32 b) {
  return farm::repeat_jobs(
      farm::default_mix(cal::kMixCfIterations, 8, 8,
                        farm::derive_seed(seed, b, 0)),
      4);
}

/// The 13 CF-Bench categories, each at a seed-chosen iteration variant.
std::vector<JobSpec> cfbench_batch(u64 seed, u32 b) {
  std::vector<JobSpec> jobs = farm::cfbench_jobs(0);
  for (u32 i = 0; i < jobs.size(); ++i) {
    if (jobs[i].name != cal::kCfCategories[i].name) {
      throw std::logic_error("calibration table out of order at " +
                             jobs[i].name);
    }
    jobs[i].id = i;
    const u32 variant =
        static_cast<u32>(farm::derive_seed(seed, b, i + 1) % cal::kCfVariants);
    jobs[i].iterations = cfbench_iterations(i, variant);
  }
  return jobs;
}

/// Table I x5, then QQPhoneBook and ePhone monkey sessions of 200 and 1200
/// events with fresh seeds every batch.
std::vector<JobSpec> monkey_batch(u64 seed, u32 b) {
  std::vector<JobSpec> jobs = farm::repeat_jobs(farm::table1_jobs(), 5);
  for (const u32 events : {200u, 1200u}) {
    for (JobSpec& j : farm::real_app_jobs(events, seed)) {
      j.id = static_cast<u32>(jobs.size());
      j.monkey_seed = farm::derive_seed(seed, b, j.id);
      jobs.push_back(std::move(j));
    }
  }
  return jobs;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"mix_serial", 0, cal::kMixSerialBatches, cal::kMixSerialTracedBatches,
       &mix_batch},
      {"mix_threads", 3, cal::kMixThreadsBatches,
       cal::kMixThreadsTracedBatches, &mix_batch},
      {"cfbench_long", 0, cal::kCfbenchLongBatches,
       cal::kCfbenchLongTracedBatches, &cfbench_batch},
      {"monkey_taint", 0, cal::kMonkeyTaintBatches,
       cal::kMonkeyTaintTracedBatches, &monkey_batch},
  };
  return kWorkloads;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

u32 cfbench_iterations(u32 category, u32 variant) {
  const u32 base = cal::kCfCategories[category].iterations;
  return base + variant * (base / 16);
}

}  // namespace e2e
