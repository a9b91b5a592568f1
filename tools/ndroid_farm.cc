// ndroid-farm: batch analysis of an app corpus across worker threads or
// crash-isolated worker processes.
//
// Drains the default job mix (Table I leak cases, CF-Bench workloads,
// synthetic market apps, monkey-driven real apps) — or a differential fuzz
// batch, or jobs streamed over stdin in --serve mode — through src/farm's
// scheduler, sharing static summaries through the process-wide SummaryCache
// and, when --store is given, a persistent on-disk summary store that
// survives restarts. Prints a summary table and optionally the full JSON
// report.
//
//   ndroid-farm [--jobs N] [--processes N] [--job-timeout-ms N]
//               [--store DIR] [--serve] [--fuzz N] [--repeat K]
//               [--json out.json] [--market N] [--monkey-events N]
//               [--seed S] [--engine TIER] [--no-share] [--digest]
//               [--require-store-hits]
//
//   --jobs N       worker threads (default 2; 0 = serial inline)
//   --processes N  worker processes instead of threads: each job runs in a
//                  fork-disposable process, so a crashing or hanging job
//                  costs only itself (supervisor retries it once)
//   --job-timeout-ms N  per-job deadline in process mode (SIGALRM)
//   --store DIR    persistent summary store: hash-verified entries are
//                  loaded instead of re-lifting, fresh lifts are written
//                  back atomically; a second identical run starts warm
//   --serve        long-running mode: read job-spec lines from stdin (point
//                  it at a FIFO for a drop-in analysis service); an empty
//                  line or "run" executes the accumulated batch, "quit"
//                  (or EOF) exits. Lines look like:
//                    leak_case "case 1"
//                    cfbench "Native MIPS" iterations=20
//                    market_app com.x.y libs=libfoo.so,libbar.so
//                    real_app qqphonebook events=12 seed=7
//                    fuzz fuzz-1 seed=1
//                  Batches are bounded (64k jobs); results stream per batch,
//                  so serve mode holds one batch of memory at a time.
//   --fuzz N       replace the mix with N cross-engine differential fuzz
//                  programs (each seed is one crash-isolated job)
//   --repeat K     run the mix K times (exercises cross-batch cache hits)
//   --json FILE    write the FarmReport JSON to FILE ("-" = stdout)
//   --market N     synthetic market apps in the mix (default 6)
//   --monkey-events N   random invocations per real app (default 12)
//   --seed S       corpus/monkey seed (default 20140623)
//   --engine TIER  CPU execution tier: interp | threaded
//                  (default threaded; interp is the paper-faithful oracle)
//   --no-share     disable the summary cache (per-job lifting; ablation)
//   --digest       print the canonical leak digest (determinism debugging)
//   --require-store-hits  exit non-zero unless the batch hit the persistent
//                  store (CI asserts the second run of a pair starts warm)
//
// Exits non-zero if any job fails (or --require-store-hits is unmet).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "farm/farm.h"
#include "farm/providers.h"

using namespace ndroid;

namespace {

u64 parse_u64(const char* s) { return std::strtoull(s, nullptr, 10); }

/// Parses one serve-mode job line; returns false (with a message) on junk.
bool parse_job_line(const std::string& line, farm::JobSpec& out,
                    std::string& err) {
  std::istringstream in(line);
  std::string kind;
  if (!(in >> kind)) {
    err = "empty spec";
    return false;
  }
  if (kind == "leak_case") {
    out.kind = farm::JobKind::kLeakCase;
  } else if (kind == "cfbench") {
    out.kind = farm::JobKind::kCfBench;
    out.iterations = 20;
  } else if (kind == "market_app") {
    out.kind = farm::JobKind::kMarketApp;
  } else if (kind == "real_app") {
    out.kind = farm::JobKind::kRealApp;
    out.monkey_events = 12;
  } else if (kind == "fuzz") {
    out.kind = farm::JobKind::kFuzz;
  } else {
    err = "unknown job kind '" + kind + "'";
    return false;
  }

  // Name: bare word or double-quoted (CF-Bench workloads have spaces).
  in >> std::ws;
  if (in.peek() == '"') {
    in.get();
    std::getline(in, out.name, '"');
  } else if (!(in >> out.name)) {
    err = "missing job name";
    return false;
  }

  std::string kv;
  while (in >> kv) {
    const std::size_t eq = kv.find('=');
    if (eq == std::string::npos) {
      err = "expected key=value, got '" + kv + "'";
      return false;
    }
    const std::string key = kv.substr(0, eq);
    const std::string value = kv.substr(eq + 1);
    if (key == "iterations") {
      out.iterations = static_cast<u32>(parse_u64(value.c_str()));
    } else if (key == "events") {
      out.monkey_events = static_cast<u32>(parse_u64(value.c_str()));
    } else if (key == "seed") {
      out.monkey_seed = parse_u64(value.c_str());
    } else if (key == "rep") {
      out.rep = static_cast<u32>(parse_u64(value.c_str()));
    } else if (key == "libs") {
      std::istringstream libs(value);
      std::string lib;
      while (std::getline(libs, lib, ',')) {
        if (!lib.empty()) out.native_libs.push_back(lib);
      }
    } else {
      err = "unknown key '" + key + "'";
      return false;
    }
  }
  return true;
}

void print_report(const farm::FarmReport& report, bool share,
                  farm::EngineTier engine) {
  std::printf(
      "ndroid-farm: %u jobs on %u workers / %u processes (%s summaries, "
      "%s engine)\n"
      "  wall            %.1f ms  (%.1f apps/sec)\n"
      "  leaks           %u native, %u framework\n"
      "  tamper alerts   %u\n"
      "  faulted events  %u\n"
      "  gate skips      %llu\n"
      "  summary cache   %llu hits / %llu misses / %llu rebinds "
      "(hit rate %.1f%%)\n"
      "  summary store   %llu hits / %llu writes (%u pre-warmed)\n"
      "  failures        %u  (retries %u, worker deaths %u)\n",
      report.jobs, report.workers, report.processes,
      share ? "shared" : "per-job", farm::to_string(engine), report.wall_ms,
      report.apps_per_sec, report.native_leaks, report.framework_leaks,
      report.tamper_alerts, report.faulted_events,
      static_cast<unsigned long long>(report.summary_gate_skips),
      static_cast<unsigned long long>(report.cache.hits),
      static_cast<unsigned long long>(report.cache.misses),
      static_cast<unsigned long long>(report.cache.rebinds),
      100.0 * report.cache.hit_rate(),
      static_cast<unsigned long long>(report.cache.store_hits),
      static_cast<unsigned long long>(report.cache.store_writes),
      report.warm_entries, report.failures, report.retries,
      report.worker_deaths);

  for (const farm::JobResult& r : report.results) {
    if (!r.ok) {
      std::printf("  FAILED #%u %s %s: %s\n", r.spec.id,
                  farm::to_string(r.spec.kind), r.spec.name.c_str(),
                  r.error.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  u32 workers = 2;
  u32 processes = 0;
  u32 job_timeout_ms = 0;
  u32 repeat = 1;
  u32 market_apps = 6;
  u32 monkey_events = 12;
  u32 fuzz_count = 0;
  u64 seed = 20140623;
  bool share = true;
  bool digest = false;
  bool serve = false;
  bool require_store_hits = false;
  std::string json_path;
  std::string store_dir;
  farm::EngineTier engine = farm::EngineTier::kThreaded;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--jobs") == 0) {
      workers = static_cast<u32>(parse_u64(value()));
    } else if (std::strcmp(arg, "--processes") == 0) {
      processes = static_cast<u32>(parse_u64(value()));
    } else if (std::strcmp(arg, "--job-timeout-ms") == 0) {
      job_timeout_ms = static_cast<u32>(parse_u64(value()));
    } else if (std::strcmp(arg, "--store") == 0) {
      store_dir = value();
    } else if (std::strcmp(arg, "--serve") == 0) {
      serve = true;
    } else if (std::strcmp(arg, "--fuzz") == 0) {
      fuzz_count = static_cast<u32>(parse_u64(value()));
    } else if (std::strcmp(arg, "--repeat") == 0) {
      repeat = static_cast<u32>(parse_u64(value()));
    } else if (std::strcmp(arg, "--market") == 0) {
      market_apps = static_cast<u32>(parse_u64(value()));
    } else if (std::strcmp(arg, "--monkey-events") == 0) {
      monkey_events = static_cast<u32>(parse_u64(value()));
    } else if (std::strcmp(arg, "--seed") == 0) {
      seed = parse_u64(value());
    } else if (std::strcmp(arg, "--json") == 0) {
      json_path = value();
    } else if (std::strcmp(arg, "--engine") == 0) {
      try {
        engine = farm::parse_engine(value());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
      }
    } else if (std::strcmp(arg, "--no-share") == 0) {
      share = false;
    } else if (std::strcmp(arg, "--digest") == 0) {
      digest = true;
    } else if (std::strcmp(arg, "--require-store-hits") == 0) {
      require_store_hits = true;
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg);
      return 2;
    }
  }

  farm::FarmOptions options;
  options.workers = workers;
  options.processes = processes;
  options.job_timeout_ms = job_timeout_ms;
  options.store_dir = store_dir;
  options.share_summaries = share;
  options.engine = engine;

  // One cache for the whole invocation: --repeat batches and --serve
  // rounds amortise into it (and through it into the store).
  static_analysis::SummaryCache cache;
  if (share) options.cache = &cache;

  u32 exit_failures = 0;
  u64 store_hits_total = 0;

  const auto run_batch = [&](const std::vector<farm::JobSpec>& jobs) {
    const farm::FarmReport report = farm::run_farm(jobs, options);
    print_report(report, share, engine);
    if (digest) std::fputs(report.leak_digest().c_str(), stdout);
    if (!json_path.empty()) {
      if (json_path == "-") {
        std::fputs(report.to_json().c_str(), stdout);
      } else {
        std::ofstream out(json_path);
        out << report.to_json();
        std::printf("  wrote %s\n", json_path.c_str());
      }
    }
    exit_failures += report.failures;
    store_hits_total += report.cache.store_hits;
  };

  if (serve) {
    // Long-running service loop: accumulate specs, run on demand. Memory
    // stays bounded — one batch in flight, results dropped after printing.
    constexpr std::size_t kMaxBatch = 65536;
    std::vector<farm::JobSpec> batch;
    std::string line;
    u32 next_id = 0;
    const auto flush = [&] {
      if (batch.empty()) return;
      std::printf("serve: running %zu job(s)\n", batch.size());
      std::fflush(stdout);
      run_batch(batch);
      std::fflush(stdout);
      batch.clear();
      next_id = 0;
    };
    while (std::getline(std::cin, line)) {
      if (line == "quit" || line == "exit") break;
      if (line.empty() || line == "run") {
        flush();
        continue;
      }
      if (line[0] == '#') continue;
      farm::JobSpec spec;
      std::string err;
      if (!parse_job_line(line, spec, err)) {
        std::printf("serve: bad spec (%s): %s\n", err.c_str(), line.c_str());
        std::fflush(stdout);
        continue;
      }
      spec.id = next_id++;
      batch.push_back(std::move(spec));
      if (batch.size() >= kMaxBatch) flush();
    }
    flush();
  } else {
    std::vector<farm::JobSpec> mix;
    if (fuzz_count > 0) {
      mix = farm::fuzz_jobs(fuzz_count, seed);
    } else {
      mix = farm::default_mix(/*cfbench_iterations=*/20, market_apps,
                              monkey_events, seed);
    }
    run_batch(farm::repeat_jobs(mix, repeat));
  }

  if (require_store_hits && store_hits_total == 0) {
    std::fprintf(stderr,
                 "ndroid-farm: --require-store-hits: no persistent-store hits "
                 "(store cold or missing)\n");
    return 3;
  }
  return exit_failures == 0 ? 0 : 1;
}
