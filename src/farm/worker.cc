// Per-job execution: one isolated Device + NDroid per JobSpec.
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>

#include "apps/cfbench.h"
#include "apps/leak_cases.h"
#include "apps/monkey.h"
#include "apps/real_apps.h"
#include "core/ndroid.h"
#include "farm/farm.h"
#include "farm/fuzz.h"
#include "farm/market_app.h"
#include "market/analyzer.h"

namespace ndroid::farm {

EngineTier parse_engine(const std::string& name) {
  if (name == "interp") return EngineTier::kInterp;
  if (name == "threaded") return EngineTier::kThreaded;
  throw std::invalid_argument("unknown engine tier: " + name +
                              " (expected interp|threaded)");
}

const char* to_string(EngineTier tier) {
  switch (tier) {
    case EngineTier::kInterp: return "interp";
    case EngineTier::kThreaded: return "threaded";
  }
  return "?";
}

void apply_engine(android::Device& device, EngineTier tier) {
  device.cpu.set_engine(tier);
}

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

void collect(JobResult& r, android::Device& device, core::NDroid& nd) {
  r.framework_leaks = device.framework.leaks();
  r.native_leaks = nd.leaks();
  r.summary_gate_skips = nd.summary_gate_skips;
  if (nd.guard() != nullptr) {
    r.tamper_alerts = static_cast<u32>(nd.guard()->alerts().size());
  }
}

/// Picks the job's Device. Market and real apps run in a Device named
/// after the app; every other kind takes the fork pool's pre-built
/// copy-on-write template when one is offered (skipping Device
/// construction entirely — the dominant share of setup_ms), else a fresh
/// local one. The template is byte-identical to a default-constructed
/// Device, so results cannot differ.
android::Device& pick_device(std::optional<android::Device>& local,
                             android::Device* snapshot, const JobSpec& spec) {
  switch (spec.kind) {
    case JobKind::kMarketApp: return local.emplace(spec.name);
    case JobKind::kRealApp: return local.emplace("com." + spec.name);
    default: return snapshot != nullptr ? *snapshot : local.emplace();
  }
}

const char* market_type(const JobSpec& spec) {
  market::AppRecord record;
  record.package = spec.name;
  record.calls_load_library = true;
  record.bundles_native_libs = !spec.native_libs.empty();
  record.native_libs = spec.native_libs;
  switch (market::classify(record)) {
    case market::AppType::kType1: return "type1";
    case market::AppType::kType2: return "type2";
    case market::AppType::kType3: return "type3";
    default: return "none";
  }
}

/// Builds the job's app into `device` and returns its run step, which
/// fills the result fields of the job's kind.
std::function<void()> build_app(JobResult& r, const JobSpec& spec,
                                android::Device& device, core::NDroid& nd) {
  switch (spec.kind) {
    case JobKind::kLeakCase:
      for (const auto& [name, builder] : apps::all_cases()) {
        if (name != spec.name) continue;
        dvm::Method* entry = builder(device).entry;
        return [&device, entry] { device.dvm.call(*entry, {}); };
      }
      throw std::runtime_error("unknown case " + spec.name);
    case JobKind::kCfBench: {
      auto app = std::make_shared<apps::CfBenchApp>(device);
      const apps::CfWorkload* workload = app->find(spec.name);
      if (workload == nullptr) {
        throw std::runtime_error("unknown workload " + spec.name);
      }
      return [&r, &spec, app, workload] {
        r.checksum = app->run(*workload, spec.iterations);
      };
    }
    case JobKind::kMarketApp: {
      r.market_type = market_type(spec);
      const MarketApp app = build_market_app(device, spec);
      return [&r, &device, natives = app.natives] {
        u32 checksum = 0;
        u32 arg = 7;
        for (dvm::Method* m : natives) {
          const dvm::Slot ret =
              device.dvm.call(*m, {dvm::Slot{arg, kTaintClear}});
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
      return [&r, &spec, &device, &nd, target_class] {
        apps::Monkey monkey(device, spec.monkey_seed);
        monkey.add_target(device.dvm.find_class(target_class));
        const apps::MonkeyReport report = monkey.run(spec.monkey_events, [&] {
          return static_cast<u32>(device.framework.leaks().size() +
                                  nd.leaks().size());
        });
        r.first_leaking_method = report.first_leaking_method;
        r.faulted_events = report.faulted_events;
      };
    }
    case JobKind::kFuzz: break;
  }
  throw std::logic_error("build_app: fuzz jobs have no app");
}

/// Every app job, one sequence: Device, engine, NDroid, app build, static
/// attach, run, collect. Scope exit tears down in reverse: the app (its run
/// step), then NDroid, then the Device.
void run_app_job(JobResult& r, const JobSpec& spec, core::NDroidConfig cfg,
                 EngineTier engine, android::Device* snapshot) {
  const auto t0 = Clock::now();
  std::optional<android::Device> local;
  android::Device& device = pick_device(local, snapshot, spec);
  apply_engine(device, engine);
  core::NDroid nd(device, cfg);
  const std::function<void()> run = build_app(r, spec, device, nd);
  r.timing.setup_ms = ms_since(t0);

  const auto t1 = Clock::now();
  nd.attach_static_analysis();
  r.timing.static_ms = ms_since(t1);

  const auto t2 = Clock::now();
  run();
  r.timing.run_ms = ms_since(t2);
  collect(r, device, nd);
}

void run_fuzz(JobResult& r, const JobSpec& spec) {
  // No Device, no NDroid: the job is the bare emulation substrate swept
  // across every execution tier. The differential verdict lands in
  // ok/error; the folded digests land in checksum so leak_digest() carries
  // them across farm topologies.
  const auto t0 = Clock::now();
  const fuzz::Outcome out = fuzz::run_differential(spec.monkey_seed);
  r.checksum = out.checksum;
  r.summary_gate_skips = 0;
  r.timing.run_ms = ms_since(t0);
  if (!out.ok) {
    throw std::runtime_error("fuzz seed " + std::to_string(spec.monkey_seed) +
                             ": " + out.error);
  }
}

}  // namespace

JobResult run_job(const JobSpec& spec, static_analysis::SummaryCache* cache,
                  const FarmOptions& options, android::Device* snapshot) {
  JobResult r;
  r.spec = spec;

  core::NDroidConfig cfg;
  cfg.taint_protection = options.taint_protection;
  cfg.summary_cache = cache;
  if (cache == nullptr) cfg.summary_store = options.store;

  try {
    if (spec.kind == JobKind::kFuzz) {
      run_fuzz(r, spec);
    } else {
      run_app_job(r, spec, cfg, options.engine, snapshot);
    }
    r.ok = true;
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  return r;
}

}  // namespace ndroid::farm
