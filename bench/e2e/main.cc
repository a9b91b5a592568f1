// End-to-end app-analysis benchmark (see README.md).
//
//   e2e_bench --workload W [--seed S] [--seconds N] [--trace 0|1] [--smoke]
//             [--json OUT] [--trace-out DIR] [--git-sha SHA]
//   e2e_bench --print-oracle
//
// --trace 0 runs the untraced closed loop and prints the end-to-end
// metrics. --trace 1 runs fewer batches, each untraced and then through the
// traced runner, checks that both digests agree, and prints the per-layer
// metrics. The last line of standard output is a JSON object with
// the keys correct, attempted, failed and metrics. Exit status 1 means an
// output check failed, 2 a usage or build error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "apps/leak_cases.h"
#include "calibration.h"
#include "farm/farm.h"
#include "traced_runner.h"
#include "workloads.h"

namespace {

using namespace e2e;
namespace farm = ndroid::farm;
namespace cal = e2e::calibration;
using farm::FarmReport;
using farm::JobKind;
using farm::JobResult;
using ndroid::static_analysis::SummaryCache;

constexpr u32 kSetupReps = 9;
constexpr u32 kSmokeBatches = 3;
constexpr u32 kSmokeTracedBatches = 1;
constexpr std::size_t kMaxReportedFailures = 10;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear interpolation between closest ranks; 0 for an empty sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// FNV-1a over every batch's leak_digest(), in batch order.
struct Digest {
  u64 h = 0xcbf29ce484222325ull;
  void fold(const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
  }
};

/// The known-answer output checks every job must pass.
class Checker {
 public:
  Checker() {
    for (const auto& [name, builder] : ndroid::apps::all_cases()) {
      ndroid::android::Device device;
      destination_[name] = builder(device).sink_destination;
    }
  }

  /// Empty when `r` passes, else the reason it fails.
  [[nodiscard]] std::string check(const JobResult& r) const {
    const farm::JobSpec& spec = r.spec;
    if (!r.ok) return "job failed: " + r.error;
    switch (spec.kind) {
      case JobKind::kLeakCase: {
        const std::string& dest = destination_.at(spec.name);
        const auto to_dest = [&](const auto& leak) {
          return leak.destination == dest;
        };
        if (std::none_of(r.native_leaks.begin(), r.native_leaks.end(),
                         to_dest) &&
            std::none_of(r.framework_leaks.begin(), r.framework_leaks.end(),
                         to_dest)) {
          return "no leak reported to " + dest;
        }
        return "";
      }
      case JobKind::kCfBench:
        for (const cal::CfAnswer& a : cal::kCfOracle) {
          if (spec.name == a.name && spec.iterations == a.iterations) {
            if (r.checksum == a.checksum) return "";
            return "checksum " + std::to_string(r.checksum) + " != oracle " +
                   std::to_string(a.checksum);
          }
        }
        return "no known answer for " + std::to_string(spec.iterations) +
               " iterations";
      case JobKind::kRealApp:
        if (spec.monkey_events >= cal::kMonkeyMustLeakEvents &&
            r.first_leaking_method.empty()) {
          return "monkey session found no leak";
        }
        return "";
      default: return "";
    }
  }

 private:
  std::map<std::string, std::string> destination_;
};

struct Tally {
  u64 attempted = 0;
  u64 failed = 0;

  void add(const Checker& checker, const FarmReport& report,
           const char* phase) {
    for (const JobResult& r : report.results) {
      ++attempted;
      const std::string why = checker.check(r);
      if (why.empty()) continue;
      if (++failed <= kMaxReportedFailures) {
        std::fprintf(stderr, "FAIL [%s] job %u %s '%s' rep %u: %s\n", phase,
                     r.spec.id, farm::to_string(r.spec.kind),
                     r.spec.name.c_str(), r.spec.rep, why.c_str());
      }
    }
  }
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Options {
  const Workload* workload = nullptr;
  u64 seed = cal::kDefaultSeed;
  double seconds = cal::kDefaultSeconds;
  bool trace = false;
  bool smoke = false;
  std::string json_path;
  std::string trace_dir;
  std::string git_sha = "unknown";
};

u32 scaled(u32 count, double seconds) {
  return std::max<u32>(1, static_cast<u32>(std::lround(
                              count * seconds / cal::kDefaultSeconds)));
}

/// Everything the untraced closed loop measures.
struct UntracedRun {
  std::vector<double> setup_s;
  std::vector<double> batch_ms;
  Digest digest;
  u64 jobs = 0;
  double wall_ms = 0;
  double job_timing_ms = 0;  // sum of JobTiming over every measured job
};

/// Everything the traced replay measures. It replays the untraced batches,
/// so both digests must be equal.
struct TracedRun {
  std::vector<TracedBatch> batches;
  SummaryCache::Stats cache;  // over the replayed batches
  double wall_ms = 0;
  Digest digest;
};

/// The closed loop: one client that sends the next batch only after the
/// previous one returns, checking every job's output.
class Loop {
 public:
  explicit Loop(const Options& o) : o_(o) {}

  /// Set-up: a fresh cache warmed by the cold warm-up batch (batch 0).
  std::unique_ptr<SummaryCache> warm_cache() {
    auto cache = std::make_unique<SummaryCache>();
    tally_.add(checker_,
               farm::run_farm(o_.workload->make_batch(o_.seed, 0),
                              farm_options(*cache)),
               "warm-up");
    return cache;
  }

  /// One measured run_farm call on batch `b`.
  void untraced_batch(u32 b, SummaryCache& cache, UntracedRun& run) {
    const std::vector<farm::JobSpec> jobs = o_.workload->make_batch(o_.seed, b);
    const auto t0 = Clock::now();
    const FarmReport report = farm::run_farm(jobs, farm_options(cache));
    const double ms = seconds_since(t0) * 1000;
    run.batch_ms.push_back(ms);
    run.wall_ms += ms;
    run.jobs += report.results.size();
    for (const JobResult& r : report.results) {
      run.job_timing_ms +=
          r.timing.setup_ms + r.timing.static_ms + r.timing.run_ms;
    }
    run.digest.fold(report.leak_digest());
    tally_.add(checker_, report, "untraced");
  }

  /// Batch `b` again, through the traced runner.
  void traced_batch(u32 b, SummaryCache& cache, Clock::time_point epoch,
                    TracedRun& run) {
    TracedBatch batch = run_traced_batch(o_.workload->make_batch(o_.seed, b),
                                         cache, o_.workload->workers, epoch);
    run.wall_ms += batch.wall_ms;
    run.digest.fold(batch.report.leak_digest());
    tally_.add(checker_, batch.report, "traced");
    run.batches.push_back(std::move(batch));
  }

  [[nodiscard]] const Tally& tally() const { return tally_; }

 private:
  farm::FarmOptions farm_options(SummaryCache& cache) const {
    farm::FarmOptions opts;
    opts.workers = o_.workload->workers;
    opts.cache = &cache;
    return opts;
  }

  const Options& o_;
  const Checker checker_;
  Tally tally_;
};

/// High-water resident set size of this process image in MB. (getrusage's
/// ru_maxrss is not used: Linux carries the forking parent's peak across
/// exec, so a large launcher would mask the benchmark's own peak.)
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

/// The bounded end-to-end metrics. On a shared host, interference from
/// other tenants only ever adds time, and for minutes at a stretch it can
/// slow most batches of a run, so a run's median or mean says as much
/// about the neighbours as about the code. The bounded timings therefore
/// come from the fastest decile of batches (README.md, Noise).
std::vector<Metric> e2e_metrics(const UntracedRun& run, const Tally& tally) {
  const double p10_ms = percentile(run.batch_ms, 0.1);
  const double jobs_per_batch =
      ratio(static_cast<double>(run.jobs), static_cast<double>(run.batch_ms.size()));
  return {
      {"apps_per_sec", ratio(jobs_per_batch * 1000.0, p10_ms), "apps/s"},
      {"batch_ms_p10", p10_ms, "ms"},
      {"setup_s", percentile(run.setup_s, 0.5), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"ok_ratio",
       ratio(static_cast<double>(tally.attempted - tally.failed),
             static_cast<double>(tally.attempted)),
       "ratio"},
  };
}

/// What a user on this host would see over the whole run, interference
/// included; printed, not bounded.
std::vector<Metric> unbounded_metrics(const UntracedRun& run) {
  return {
      {"apps_per_sec_mean", ratio(run.jobs * 1000.0, run.wall_ms), "apps/s"},
      {"batch_ms_p50", percentile(run.batch_ms, 0.5), "ms"},
      {"batch_ms_p90", percentile(run.batch_ms, 0.9), "ms"},
  };
}

std::vector<Metric> layer_metrics(const Options& o, const UntracedRun& untraced,
                                  const TracedRun& traced) {
  std::map<std::string, std::vector<double>> durations;
  std::map<std::string, double> total_us;
  JobCounters sum;
  double java_run_us = 0, java_bytecodes = 0;
  double native_run_us = 0, native_insns = 0;
  double monkey_run_us = 0, monkey_events = 0;
  double jobs = 0, native_leaks = 0, framework_leaks = 0;

  for (const TracedBatch& batch : traced.batches) {
    const std::vector<JobResult>& results = batch.report.results;
    std::vector<double> run_us(results.size());
    for (const Span& s : batch.spans) {
      durations[s.name].push_back(s.us());
      total_us[s.name] += s.us();
      if (std::string_view(s.name) == kRun) run_us[s.job] = s.us();
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
      const farm::JobSpec& spec = results[i].spec;
      const JobCounters& c = batch.counters[i];
      sum += c;
      if (spec.kind == JobKind::kCfBench && spec.name.starts_with("Java")) {
        java_run_us += run_us[i];
        java_bytecodes += static_cast<double>(c.bytecodes);
      } else if (spec.kind == JobKind::kCfBench) {
        native_run_us += run_us[i];
        native_insns += static_cast<double>(c.insns);
      } else if (spec.kind == JobKind::kRealApp) {
        monkey_run_us += run_us[i];
        monkey_events += spec.monkey_events;
      }
    }
    jobs += static_cast<double>(results.size());
    native_leaks += batch.report.native_leaks;
    framework_leaks += batch.report.framework_leaks;
  }

  const double job_us = total_us[kJob];
  const auto per_job = [&](u64 n) { return ratio(static_cast<double>(n), jobs); };
  std::vector<Metric> m = {
      {"job.us_p50", percentile(durations[kJob], 0.5), "us"},
      {"job.us_p99", percentile(durations[kJob], 0.99), "us"},
  };
  double covered_us = 0;
  for (const char* name : kLayerSpans) {
    const std::string n = name;
    covered_us += total_us[n];
    m.push_back({n + ".us_p50", percentile(durations[n], 0.5), "us"});
    m.push_back({n + ".share", ratio(total_us[n], job_us), "ratio"});
  }
  const double workers = std::max<u32>(o.workload->workers, 1);
  const double capacity_ms = workers * untraced.wall_ms;
  const std::vector<Metric> rest = {
      {"static.cache_hit_ratio", traced.cache.hit_rate(), "ratio"},
      {"static.cache_misses", static_cast<double>(traced.cache.misses), "count"},
      {"dvm.bytecodes_per_job", per_job(sum.bytecodes), "count"},
      {"dvm.ns_per_bytecode", ratio(java_run_us * 1000, java_bytecodes), "ns"},
      {"arm.insns_per_job", per_job(sum.insns), "count"},
      {"arm.ns_per_insn", ratio(native_run_us * 1000, native_insns), "ns"},
      {"arm.translations_per_job", per_job(sum.translations), "count"},
      {"arm.jit_blocks_per_job", per_job(sum.jit_blocks), "count"},
      {"arm.fastpath_insn_ratio",
       ratio(static_cast<double>(sum.fastpath_insns),
             static_cast<double>(sum.insns)),
       "ratio"},
      {"arm.jit_traced_blocks_per_job", per_job(sum.jit_traced_blocks), "count"},
      {"arm.jit_fallback_blocks_per_job", per_job(sum.jit_fallback_blocks),
       "count"},
      {"core.insns_traced_per_job", per_job(sum.insns_traced), "count"},
      {"core.propagations_per_job", per_job(sum.propagations), "count"},
      {"core.models_applied_per_job", per_job(sum.models_applied), "count"},
      {"core.source_policies_applied_per_job",
       per_job(sum.source_policies_applied), "count"},
      {"core.gate_skips_per_job", per_job(sum.gate_skips), "count"},
      {"apps.monkey.us_per_event", ratio(monkey_run_us, monkey_events), "us"},
      {"leaks.native_per_job", ratio(native_leaks, jobs), "count"},
      {"leaks.framework_per_job", ratio(framework_leaks, jobs), "count"},
      {"farm.busy_ratio", ratio(untraced.job_timing_ms, capacity_ms), "ratio"},
      {"farm.unattributed_ms_per_job",
       ratio(capacity_ms - untraced.job_timing_ms,
             static_cast<double>(untraced.jobs)),
       "ms"},
      {"trace.overhead_ratio", ratio(traced.wall_ms, untraced.wall_ms),
       "ratio"},
      {"trace.coverage", ratio(covered_us, job_us), "ratio"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

/// Chrome trace-event JSON (load in chrome://tracing or Perfetto).
void write_chrome_trace(const std::string& path, const TracedRun& traced) {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  char buf[256];
  for (const TracedBatch& batch : traced.batches) {
    for (const Span& s : batch.spans) {
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                    "\"args\":{\"job\":%u,\"parent\":\"%s\"}}\n",
                    first ? "" : ",", s.name, farm::to_string(s.kind),
                    s.start_us, s.us(), s.thread, s.job,
                    s.parent >= 0 ? batch.spans[s.parent].name : "");
      out << buf;
      first = false;
    }
  }
  out << "]}\n";
}

std::string loadavg_json() {
  double l[3] = {0, 0, 0};
  if (getloadavg(l, 3) != 3) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "[%.2f, %.2f, %.2f]", l[0], l[1], l[2]);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[160];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    out += buf;
  }
  return out + "}";
}

/// Regenerates calibration.h's kCfOracle on the interpreter tier.
int print_oracle() {
  farm::FarmOptions opts;
  opts.engine = farm::EngineTier::kInterp;
  for (u32 i = 0; i < std::size(cal::kCfCategories); ++i) {
    std::vector<u32> counts = {cal::kMixCfIterations};
    for (u32 v = 0; v < cal::kCfVariants; ++v) {
      counts.push_back(cfbench_iterations(i, v));
    }
    for (const u32 iterations : counts) {
      farm::JobSpec spec;
      spec.kind = JobKind::kCfBench;
      spec.name = cal::kCfCategories[i].name;
      spec.iterations = iterations;
      const JobResult r = farm::run_job(spec, nullptr, opts);
      if (!r.ok) {
        std::fprintf(stderr, "%s: %s\n", spec.name.c_str(), r.error.c_str());
        return 1;
      }
      std::printf("    {\"%s\", %u, %uu},\n", spec.name.c_str(), iterations,
                  r.checksum);
    }
  }
  return 0;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload W [--seed S] "
               "[--seconds N] [--trace 0|1] [--smoke] [--json OUT] "
               "[--trace-out DIR] [--git-sha SHA]\n       e2e_bench "
               "--print-oracle\nworkloads:",
               msg);
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        const std::string name = value();
        o.workload = find_workload(name);
        if (o.workload == nullptr) usage(("unknown workload " + name).c_str());
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
        if (!(o.seconds > 0 && o.seconds <= 600)) usage("--seconds out of range");
      } else if (arg == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") usage("--trace takes 0 or 1");
        o.trace = t == "1";
      } else if (arg == "--smoke") {
        o.smoke = true;
      } else if (arg == "--json") {
        o.json_path = value();
      } else if (arg == "--trace-out") {
        o.trace_dir = value();
      } else if (arg == "--git-sha") {
        o.git_sha = value();
      } else {
        usage(("unknown option " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (o.workload == nullptr) usage("--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "e2e_bench: refusing to time a build with assertions\n");
  return 2;
#endif
  if (std::strcmp(E2E_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "e2e_bench: refusing to time a %s build (need Release)\n",
                 E2E_BUILD_TYPE);
    return 2;
  }
  if (argc == 2 && std::strcmp(argv[1], "--print-oracle") == 0) {
    return print_oracle();
  }
  const Options o = parse(argc, argv);
  const Workload& w = *o.workload;
  const std::string load_before = loadavg_json();
  const auto epoch = Clock::now();

  const u32 reps = o.smoke || o.trace ? 1 : kSetupReps;
  const u32 batches =
      o.smoke ? (o.trace ? kSmokeTracedBatches : kSmokeBatches)
              : scaled(o.trace ? w.traced_batches : w.batches, o.seconds);
  std::printf("e2e_bench %s: %s, seed %llu, %u batch(es), workers %u, "
              "engine %s\n",
              w.name, o.trace ? "traced" : "untraced",
              static_cast<unsigned long long>(o.seed), batches, w.workers,
              farm::to_string(farm::FarmOptions{}.engine));
  std::fflush(stdout);

  Loop loop(o);
  UntracedRun untraced;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    std::unique_ptr<SummaryCache> warm = loop.warm_cache();
    untraced.setup_s.push_back(seconds_since(t0));
    return warm;
  };
  // The first set-up's cache serves the measured loop. The other set-ups
  // are spread evenly over the loop, so that their median samples the host
  // over the whole run rather than over its first second.
  const std::unique_ptr<SummaryCache> cache = set_up();
  const u32 setup_every = std::max<u32>(1, batches / reps);
  // A traced run follows each untraced batch with its traced replay, on a
  // second cache warmed the same way, so that both see the same host.
  TracedRun traced;
  std::unique_ptr<SummaryCache> traced_cache;
  SummaryCache::Stats before;
  if (o.trace) {
    traced_cache = loop.warm_cache();
    before = traced_cache->stats();
  }
  for (u32 b = 1; b <= batches; ++b) {
    loop.untraced_batch(b, *cache, untraced);
    if (o.trace) loop.traced_batch(b, *traced_cache, epoch, traced);
    if (untraced.setup_s.size() < reps && b % setup_every == 0) set_up();
  }
  while (untraced.setup_s.size() < reps) set_up();
  const Tally& tally = loop.tally();

  std::vector<Metric> metrics;
  std::vector<Metric> unbounded;
  bool digests_agree = true;
  if (o.trace) {
    const SummaryCache::Stats after = traced_cache->stats();
    traced.cache.hits = after.hits - before.hits;
    traced.cache.misses = after.misses - before.misses;
    digests_agree = traced.digest.h == untraced.digest.h;
    metrics = layer_metrics(o, untraced, traced);
    if (!o.trace_dir.empty()) {
      const std::string path = o.trace_dir + "/" + w.name + ".trace.json";
      write_chrome_trace(path, traced);
      std::printf("  wrote %s\n", path.c_str());
    }
  } else {
    metrics = e2e_metrics(untraced, tally);
    unbounded = unbounded_metrics(untraced);
  }
  const bool correct = tally.failed == 0 && digests_agree;

  std::printf("  batches: %zu measured, %zu jobs each on average\n",
              untraced.batch_ms.size(),
              static_cast<std::size_t>(ratio(static_cast<double>(untraced.jobs),
                                             static_cast<double>(batches))));
  std::printf("  digest: %s\n", untraced.digest.hex().c_str());
  if (o.trace) {
    std::printf("  traced digest: %s\n",
                digests_agree ? "identical" : "DIFFERS");
  }
  std::printf("  checks: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (const Metric& m : metrics) {
    std::printf("  %-38s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  for (const Metric& m : unbounded) {
    std::printf("  %-38s %14.6g %s (not bounded)\n", m.name.c_str(), m.value,
                m.unit);
  }

  const std::string result =
      "{\"correct\": " + std::string(correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(tally.attempted) +
      ", \"failed\": " + std::to_string(tally.failed) +
      ", \"metrics\": " + metrics_json(metrics) + "}";
  if (!o.json_path.empty()) {
    std::ofstream out(o.json_path, std::ios::app);
    out << "{\"workload\": \"" << w.name << "\", \"trace\": " << o.trace
        << ", \"provenance\": {\"git_sha\": \"" << o.git_sha
        << "\", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"loadavg_before\": " << load_before
        << ", \"loadavg_after\": " << loadavg_json() << ", \"engine\": \""
        << farm::to_string(farm::FarmOptions{}.engine)
        << "\", \"seed\": " << o.seed << ", \"seconds\": " << o.seconds
        << ", \"smoke\": " << (o.smoke ? "true" : "false")
        << ", \"batches\": " << batches << ", \"setup_reps\": " << reps << ", \"build_type\": \""
        << E2E_BUILD_TYPE << "\", \"calibration_host\": \"" << cal::kHost
        << "\"}, \"digest\": \"" << untraced.digest.hex()
        << "\", \"unbounded\": " << metrics_json(unbounded)
        << ", \"result\": " << result << "}\n";
  }
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}
