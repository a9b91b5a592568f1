#include "traced_runner.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "apps/cfbench.h"
#include "apps/leak_cases.h"
#include "apps/monkey.h"
#include "apps/real_apps.h"
#include "core/ndroid.h"
#include "farm/market_app.h"
#include "market/analyzer.h"

namespace e2e {

namespace android = ndroid::android;
namespace apps = ndroid::apps;
namespace core = ndroid::core;
namespace farm = ndroid::farm;
using farm::JobKind;
using farm::JobResult;
using farm::JobSpec;

namespace {

class SpanLog {
 public:
  SpanLog(Clock::time_point epoch, u32 thread)
      : epoch_(epoch), thread_(thread) {}

  void begin_job(const JobSpec& spec) {
    spec_ = &spec;
    job_ = open(kJob, -1);
  }
  void end_job() { spans_[job_].end_us = now_us(); }

  /// Runs `f` inside a child span of the current job; the span closes even
  /// when `f` throws.
  void child(const char* name, const std::function<void()>& f) {
    const int span = open(name, job_);
    struct Closer {
      SpanLog& log;
      int span;
      ~Closer() { log.spans_[span].end_us = log.now_us(); }
    } closer{*this, span};
    f();
  }

  std::vector<Span>& spans() { return spans_; }

 private:
  int open(const char* name, int parent) {
    spans_.push_back(
        Span{name, now_us(), 0, parent, spec_->id, spec_->kind, thread_});
    return static_cast<int>(spans_.size()) - 1;
  }
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  u32 thread_;
  const JobSpec* spec_ = nullptr;
  int job_ = -1;
  std::vector<Span> spans_;
};

/// run_job's Device constructor arguments for each job kind.
void build_device(std::optional<android::Device>& device,
                  const JobSpec& spec) {
  switch (spec.kind) {
    case JobKind::kMarketApp: device.emplace(spec.name); break;
    case JobKind::kRealApp: device.emplace("com." + spec.name); break;
    default: device.emplace(); break;
  }
}

/// Builds the job's app into `device` as run_job does and returns its run
/// call, which fills the result fields run_job fills.
std::function<void()> build_app(const JobSpec& spec, android::Device& device,
                                core::NDroid& nd, JobResult& r) {
  switch (spec.kind) {
    case JobKind::kLeakCase: {
      apps::LeakScenario (*builder)(android::Device&) = nullptr;
      for (const auto& [name, b] : apps::all_cases()) {
        if (name == spec.name) builder = b;
      }
      if (builder == nullptr) {
        throw std::runtime_error("unknown case " + spec.name);
      }
      ndroid::dvm::Method* entry = builder(device).entry;
      return [&device, entry] { device.dvm.call(*entry, {}); };
    }
    case JobKind::kCfBench: {
      auto app = std::make_shared<apps::CfBenchApp>(device);
      const apps::CfWorkload* workload = app->find(spec.name);
      if (workload == nullptr) {
        throw std::runtime_error("unknown workload " + spec.name);
      }
      return [app, workload, &spec, &r] {
        r.checksum = app->run(*workload, spec.iterations);
      };
    }
    case JobKind::kMarketApp: {
      farm::MarketApp app = farm::build_market_app(device, spec);
      return [&device, &spec, &r, app] {
        ndroid::market::AppRecord record;
        record.package = spec.name;
        record.calls_load_library = true;
        record.bundles_native_libs = !spec.native_libs.empty();
        record.native_libs = spec.native_libs;
        switch (ndroid::market::classify(record)) {
          case ndroid::market::AppType::kType1: r.market_type = "type1"; break;
          case ndroid::market::AppType::kType2: r.market_type = "type2"; break;
          case ndroid::market::AppType::kType3: r.market_type = "type3"; break;
          default: r.market_type = "none"; break;
        }
        u32 checksum = 0;
        u32 arg = 7;
        for (ndroid::dvm::Method* m : app.natives) {
          const ndroid::dvm::Slot ret =
              device.dvm.call(*m, {ndroid::dvm::Slot{arg, ndroid::kTaintClear}});
          checksum = checksum * 31 + ret.value;
          arg = checksum | 1;
        }
        r.checksum = checksum;
      };
    }
    case JobKind::kRealApp: {
      const char* target_class = nullptr;
      if (spec.name == "qqphonebook") {
        apps::build_qq_phonebook(device);
        target_class = "Lcom/tencent/tccsync/LoginUtil;";
      } else if (spec.name == "ephone") {
        apps::build_ephone(device);
        target_class = "Lcom/vnet/asip/general/general;";
      } else {
        throw std::runtime_error("unknown real app " + spec.name);
      }
      return [&device, &nd, &spec, &r, target_class] {
        apps::Monkey monkey(device, spec.monkey_seed);
        monkey.add_target(device.dvm.find_class(target_class));
        const apps::MonkeyReport report =
            monkey.run(spec.monkey_events, [&] {
              return static_cast<u32>(device.framework.leaks().size() +
                                      nd.leaks().size());
            });
        r.first_leaking_method = report.first_leaking_method;
      };
    }
    case JobKind::kFuzz: break;
  }
  throw std::runtime_error(std::string("the traced replay has no ") +
                           farm::to_string(spec.kind) + " jobs");
}

void collect(JobResult& r, android::Device& device, core::NDroid& nd) {
  r.framework_leaks = device.framework.leaks();
  r.native_leaks = nd.leaks();
  r.summary_gate_skips = nd.summary_gate_skips;
  if (nd.guard() != nullptr) {
    r.tamper_alerts = static_cast<u32>(nd.guard()->alerts().size());
  }
}

JobCounters read_counters(android::Device& device, core::NDroid& nd) {
  const core::PerfCounters perf = core::collect_perf(device.cpu);
  JobCounters c;
  c.bytecodes = device.dvm.bytecodes_executed();
  c.insns = device.cpu.instructions_retired();
  c.translations = perf.tb_translations;
  c.jit_blocks = perf.jit_blocks;
  c.fastpath_insns = perf.fastpath_insns;
  c.jit_traced_blocks = perf.jit_traced_blocks;
  c.jit_fallback_blocks = perf.jit_fallback_blocks;
  c.insns_traced = nd.tracer().instructions_traced();
  c.propagations = nd.taint_engine().propagations;
  c.models_applied = nd.syslib().models_applied();
  c.source_policies_applied = nd.dvm_hooks().source_policies_applied;
  c.gate_skips = nd.summary_gate_skips;
  return c;
}

/// farm/worker.cc's run_job, call for call, with a span around each call.
JobResult run_job_traced(const JobSpec& spec,
                         ndroid::static_analysis::SummaryCache* cache,
                         SpanLog& log, JobCounters& counters) {
  const farm::FarmOptions options;
  core::NDroidConfig cfg;
  cfg.taint_protection = options.taint_protection;
  cfg.summary_cache = cache;

  JobResult r;
  r.spec = spec;
  log.begin_job(spec);
  std::optional<android::Device> device;
  std::optional<core::NDroid> nd;
  std::function<void()> run;
  try {
    log.child(kDeviceBuild, [&] {
      build_device(device, spec);
      farm::apply_engine(*device, options.engine);
    });
    log.child(kNdroidAttach, [&] { nd.emplace(*device, cfg); });
    log.child(kAppBuild, [&] { run = build_app(spec, *device, *nd, r); });
    log.child(kStaticAttach, [&] { nd->attach_static_analysis(); });
    log.child(kRun, run);
    collect(r, *device, *nd);
    counters = read_counters(*device, *nd);
    r.ok = true;
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  // run_job's scope exit: the app, then NDroid, then the Device.
  log.child(kTeardown, [&] {
    run = nullptr;
    nd.reset();
    device.reset();
  });
  log.end_job();
  return r;
}

}  // namespace

TracedBatch run_traced_batch(const std::vector<JobSpec>& jobs,
                             ndroid::static_analysis::SummaryCache& cache,
                             u32 workers, Clock::time_point epoch) {
  TracedBatch out;
  std::vector<JobResult> results(jobs.size());
  out.counters.resize(jobs.size());
  const auto t0 = Clock::now();

  std::vector<SpanLog> logs;
  for (u32 w = 0; w < std::max(workers, 1u); ++w) logs.emplace_back(epoch, w);
  if (workers == 0) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      results[i] = run_job_traced(jobs[i], &cache, logs[0], out.counters[i]);
    }
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (u32 w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        for (std::size_t i = next++; i < jobs.size(); i = next++) {
          results[i] =
              run_job_traced(jobs[i], &cache, logs[w], out.counters[i]);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (JobResult& r : results) farm::aggregate_result(out.report, std::move(r));
  std::sort(out.report.results.begin(), out.report.results.end(),
            [](const JobResult& a, const JobResult& b) {
              return a.spec.id < b.spec.id;
            });
  out.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  for (SpanLog& log : logs) {
    const int offset = static_cast<int>(out.spans.size());
    for (Span s : log.spans()) {
      if (s.parent >= 0) s.parent += offset;
      out.spans.push_back(s);
    }
  }
  return out;
}

}  // namespace e2e
