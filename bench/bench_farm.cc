// Farm throughput, summary-cache amortisation, and process-pool /
// persistent-store warm starts (src/farm).
//
// Runs the same repeated corpus (Table I cases + CF-Bench workloads +
// market apps + monkey-driven real apps) through nine configurations:
//
//   serial/no-cache   — workers=0, per-job lifting (the pre-farm baseline);
//   farm w=1,2,4,8    — work-stealing workers over a fresh shared
//                       summary cache per run; each row is the fastest of
//                       3 runs, taken in 3 interleaved rounds;
//   procs p=2 no-tmpl — crash-isolated fork pool with the zygote template
//                       disabled (every job process builds its own Device:
//                       prices the template);
//   procs p=2         — fork pool, no persistent store (every job process
//                       re-lifts: the cost the store removes);
//   procs p=2 cold    — fork pool over a fresh on-disk SummaryStore (first
//                       encounters lift and write back, the rest load);
//   procs p=2 warm    — the same store directory again: the supervisor
//                       pre-publishes every entry before forking, so workers
//                       inherit a fully warmed cache via copy-on-write.
//
// Records wall clock, apps/sec, per-phase time totals, and cache/store
// counters into BENCH_farm.json, and enforces the invariants that hold on
// any host:
//   * every row's leak digest is byte-identical (topology determinism);
//   * zero job failures, retries, and worker deaths on the clean corpus;
//   * cache hit rate > 90% on the repeated corpus (>= 10 repetitions),
//     in-memory for the thread rows and warm-store for the process row;
//   * the cache strictly reduces summed static-analysis time vs no-cache;
//   * the zygote template + warm store strictly reduce summed setup_ms vs
//     the serial baseline (the paper's per-app setup cost, amortised).
// The >= 3x w=8-vs-w=1 throughput check only runs when the host has >= 4
// CPUs: thread scaling cannot show wall-clock gains on fewer cores (this
// repo's reference box has 1), and honest numbers beat fabricated ones.
//
//   bench_farm [reps] [--json out.json]
//              [--engine interp|threaded|jit]
// (`--engine jit` degrades to the threaded tier on hosts without host-code
// emission, so the row is valid — just not faster — everywhere.)
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "farm/farm.h"
#include "farm/providers.h"

using namespace ndroid;

namespace {

struct RowResult {
  std::string label;
  u32 workers = 0;
  u32 processes = 0;
  bool shared = false;
  bool store = false;
  farm::FarmReport report;
  double setup_ms = 0, static_ms = 0, run_ms = 0;
};

farm::EngineTier g_engine = farm::EngineTier::kThreaded;

RowResult run_row(const std::string& label, u32 workers, u32 processes,
                  bool shared, const std::string& store_dir,
                  const std::vector<farm::JobSpec>& jobs,
                  bool zygote_template = true) {
  farm::FarmOptions options;
  options.workers = workers;
  options.processes = processes;
  options.share_summaries = shared;
  options.store_dir = store_dir;
  options.zygote_template = zygote_template;
  options.engine = g_engine;
  RowResult row;
  row.label = label;
  row.workers = workers;
  row.processes = processes;
  row.shared = shared;
  row.store = !store_dir.empty();
  row.report = farm::run_farm(jobs, options);
  for (const farm::JobResult& r : row.report.results) {
    row.setup_ms += r.timing.setup_ms;
    row.static_ms += r.timing.static_ms;
    row.run_ms += r.timing.run_ms;
  }
  return row;
}

const char* build_type() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  u32 reps = 12;
  std::string json_path = "BENCH_farm.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--engine") == 0 && i + 1 < argc) {
      g_engine = farm::parse_engine(argv[++i]);
    } else {
      reps = static_cast<u32>(std::strtoul(argv[i], nullptr, 10));
    }
  }

  const u32 host_cpus = std::max(1u, std::thread::hardware_concurrency());
  const std::vector<farm::JobSpec> jobs = farm::repeat_jobs(
      farm::default_mix(/*cfbench_iterations=*/10, /*market_apps=*/8,
                        /*monkey_events=*/8, /*seed=*/20140623),
      reps);

  std::printf(
      "bench_farm: %zu jobs (%u reps), host_cpus=%u, %s build, %s engine\n\n",
      jobs.size(), reps, host_cpus, build_type(), farm::to_string(g_engine));
  std::printf("%-18s %10s %10s %9s %9s %10s %9s %9s\n", "config", "wall_ms",
              "apps/sec", "hits", "misses", "hit_rate", "st_hits", "st_wr");

  std::vector<RowResult> rows;
  rows.push_back(run_row("serial/no-cache", 0, 0, false, "", jobs));
  // Each thread row is the fastest of 3 runs: one run slowed by other load
  // on a shared host must not decide the scaling check. The runs go in 3
  // rounds of w=1,2,4,8, so a host whose speed drifts over the second the
  // rows take slows every row alike instead of only the ones run last.
  const std::vector<u32> thread_rows = {1, 2, 4, 8};
  std::vector<RowResult> fastest(thread_rows.size());
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < thread_rows.size(); ++i) {
      const u32 w = thread_rows[i];
      RowResult r = run_row("farm w=" + std::to_string(w), w, 0, true, "",
                            jobs);
      if (round == 0 || r.report.wall_ms < fastest[i].report.wall_ms) {
        fastest[i] = std::move(r);
      }
    }
  }
  for (RowResult& row : fastest) rows.push_back(std::move(row));

  // Process pool rows: no zygote template (every job process builds its own
  // Device — prices the template), bare (template, no store — re-lifts per
  // job process), then a cold persistent store, then the same store warm —
  // the twice-run scenario the store exists for.
  const std::string store_dir =
      std::filesystem::temp_directory_path() / "bench_farm_store";
  std::filesystem::remove_all(store_dir);
  rows.push_back(run_row("procs p=2 no-tmpl", 0, 2, true, "", jobs,
                         /*zygote_template=*/false));
  rows.push_back(run_row("procs p=2", 0, 2, true, "", jobs));
  rows.push_back(run_row("procs p=2 cold", 0, 2, true, store_dir, jobs));
  rows.push_back(run_row("procs p=2 warm", 0, 2, true, store_dir, jobs));

  for (const RowResult& row : rows) {
    const auto& c = row.report.cache;
    std::printf("%-18s %10.1f %10.1f %9llu %9llu %9.1f%% %9llu %9llu\n",
                row.label.c_str(), row.report.wall_ms,
                row.report.apps_per_sec,
                static_cast<unsigned long long>(c.hits),
                static_cast<unsigned long long>(c.misses),
                100.0 * c.hit_rate(),
                static_cast<unsigned long long>(c.store_hits),
                static_cast<unsigned long long>(c.store_writes));
  }

  const RowResult& serial = rows[0];
  const RowResult& w1 = rows[1];
  const RowResult& w8 = rows[4];
  const RowResult& p2_no_tmpl = rows[5];
  const RowResult& p2_cold = rows[7];
  const RowResult& p2_warm = rows[8];
  const double speedup_w8_vs_w1 =
      w8.report.wall_ms > 0 ? w1.report.wall_ms / w8.report.wall_ms : 0.0;
  const double speedup_w8_vs_serial =
      w8.report.wall_ms > 0 ? serial.report.wall_ms / w8.report.wall_ms : 0.0;
  const double static_saving = serial.static_ms > 0
                                   ? 1.0 - w1.static_ms / serial.static_ms
                                   : 0.0;
  // Like-for-like comparisons inside the process topology: the template's
  // saving shows against the no-template row (same fork and copy-on-write
  // costs on both sides), and the warm store's against the cold row.
  const double setup_saving =
      p2_no_tmpl.setup_ms > 0 ? 1.0 - p2_warm.setup_ms / p2_no_tmpl.setup_ms
                              : 0.0;
  const double procs_static_saving =
      p2_cold.static_ms > 0 ? 1.0 - p2_warm.static_ms / p2_cold.static_ms
                            : 0.0;
  std::printf(
      "\n  speedup w8 vs w1       %.2fx\n"
      "  speedup w8 vs serial   %.2fx\n"
      "  static-ms saved by cache (w1 vs no-cache)  %.1f%%\n"
      "  setup-ms saved by zygote template (p2 warm vs p2 no-tmpl)  %.1f%%\n"
      "  static-ms saved by warm store (p2 warm vs p2 cold)  %.1f%%\n"
      "  warm start: %u entries pre-published, %llu store hits, %llu writes\n",
      speedup_w8_vs_w1, speedup_w8_vs_serial, 100.0 * static_saving,
      100.0 * setup_saving, 100.0 * procs_static_saving,
      p2_warm.report.warm_entries,
      static_cast<unsigned long long>(p2_warm.report.cache.store_hits),
      static_cast<unsigned long long>(p2_warm.report.cache.store_writes));

  // ---- shape checks ------------------------------------------------------
  int failures = 0;
  const std::string reference = serial.report.leak_digest();
  for (const RowResult& row : rows) {
    if (row.report.failures != 0) {
      std::printf("FAIL: %s had %u job failures\n", row.label.c_str(),
                  row.report.failures);
      ++failures;
    }
    if (row.report.leak_digest() != reference) {
      std::printf("FAIL: %s leak digest differs from serial\n",
                  row.label.c_str());
      ++failures;
    }
    if (row.report.retries != 0 || row.report.worker_deaths != 0) {
      std::printf("FAIL: %s saw %u retries / %u worker deaths on a clean "
                  "corpus\n", row.label.c_str(), row.report.retries,
                  row.report.worker_deaths);
      ++failures;
    }
  }
  if (reps >= 10) {
    // Thread rows share one in-memory cache; process rows only share
    // through the store, so the in-memory criterion applies to the warm
    // row (the cache is pre-published before any fork).
    for (const std::size_t i : {std::size_t{1}, std::size_t{2},
                                std::size_t{3}, std::size_t{4},
                                std::size_t{8}}) {
      if (rows[i].report.cache.hit_rate() <= 0.90) {
        std::printf("FAIL: %s hit rate %.1f%% <= 90%%\n",
                    rows[i].label.c_str(),
                    100.0 * rows[i].report.cache.hit_rate());
        ++failures;
      }
    }
  }
  if (serial.static_ms > 0 && w1.static_ms >= serial.static_ms) {
    std::printf("FAIL: shared cache did not reduce static-analysis time "
                "(%.2fms vs %.2fms)\n", w1.static_ms, serial.static_ms);
    ++failures;
  }
  if (p2_cold.report.cache.store_writes == 0) {
    std::printf("FAIL: cold store row wrote no entries\n");
    ++failures;
  }
  if (p2_warm.report.warm_entries == 0 ||
      p2_warm.report.cache.store_writes != 0) {
    std::printf("FAIL: warm store row not actually warm (%u entries, "
                "%llu writes)\n", p2_warm.report.warm_entries,
                static_cast<unsigned long long>(
                    p2_warm.report.cache.store_writes));
    ++failures;
  }
  // The acceptance criteria for the fork pool: the zygote's copy-on-write
  // template must cut per-job setup_ms against the same topology without
  // it, and the warm store must cut static_ms against its own cold run.
  if (p2_no_tmpl.setup_ms > 0 && p2_warm.setup_ms >= p2_no_tmpl.setup_ms) {
    std::printf("FAIL: zygote template did not reduce setup_ms "
                "(%.2fms vs no-template %.2fms)\n", p2_warm.setup_ms,
                p2_no_tmpl.setup_ms);
    ++failures;
  }
  if (p2_cold.static_ms > 0 && p2_warm.static_ms >= p2_cold.static_ms) {
    std::printf("FAIL: warm store did not reduce static_ms "
                "(%.2fms vs cold %.2fms)\n", p2_warm.static_ms,
                p2_cold.static_ms);
    ++failures;
  }
  if (host_cpus >= 4) {
    if (speedup_w8_vs_w1 < 3.0) {
      std::printf("FAIL: w8 speedup %.2fx < 3x on a %u-cpu host\n",
                  speedup_w8_vs_w1, host_cpus);
      ++failures;
    }
  } else {
    std::printf("  (skipping >=3x scaling check: host has %u cpu%s)\n",
                host_cpus, host_cpus == 1 ? "" : "s");
  }

  // ---- JSON --------------------------------------------------------------
  const char* sha = std::getenv("GIT_SHA");
  std::ofstream out(json_path);
  out << "{\n  \"context\": {\n"
      << "    \"host_cpus\": " << host_cpus << ",\n"
      << "    \"library_build_type\": \"" << build_type() << "\",\n"
      << "    \"git_sha\": \"" << (sha != nullptr ? sha : "") << "\",\n"
      << "    \"engine\": \"" << farm::to_string(g_engine) << "\",\n"
      << "    \"reps\": " << reps << ",\n"
      << "    \"jobs\": " << jobs.size() << "\n  },\n";
  out << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RowResult& row = rows[i];
    const auto& c = row.report.cache;
    out << "    {\"config\": \"" << row.label << "\", \"workers\": "
        << row.workers << ", \"processes\": " << row.processes
        << ", \"shared_cache\": " << (row.shared ? "true" : "false")
        << ", \"store\": " << (row.store ? "true" : "false")
        << ", \"wall_ms\": " << row.report.wall_ms << ", \"apps_per_sec\": "
        << row.report.apps_per_sec << ", \"setup_ms\": " << row.setup_ms
        << ", \"static_ms\": " << row.static_ms << ", \"run_ms\": "
        << row.run_ms << ", \"cache_hits\": " << c.hits
        << ", \"cache_misses\": " << c.misses << ", \"cache_rebinds\": "
        << c.rebinds << ", \"cache_hit_rate\": " << c.hit_rate()
        << ", \"store_hits\": " << c.store_hits << ", \"store_writes\": "
        << c.store_writes << ", \"warm_entries\": "
        << row.report.warm_entries << ", \"retries\": " << row.report.retries
        << ", \"worker_deaths\": " << row.report.worker_deaths
        << ", \"failures\": " << row.report.failures << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"speedup_w8_vs_w1\": " << speedup_w8_vs_w1 << ",\n";
  out << "  \"speedup_w8_vs_serial\": " << speedup_w8_vs_serial << ",\n";
  out << "  \"static_ms_saving_vs_no_cache\": " << static_saving << ",\n";
  out << "  \"setup_ms_saving_zygote_template\": " << setup_saving << ",\n";
  out << "  \"static_ms_saving_warm_store\": " << procs_static_saving
      << ",\n";
  out << "  \"digests_identical\": "
      << (failures == 0 ? "true" : "false") << "\n}\n";
  std::printf("\nwrote %s\n", json_path.c_str());

  return failures == 0 ? 0 : 1;
}
