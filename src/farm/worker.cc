// Per-job execution: one isolated Device + NDroid per JobSpec.
#include <chrono>
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

/// Picks the job's Device: the fork pool's pre-built copy-on-write template
/// when one is offered (skipping Device construction entirely — the
/// dominant share of setup_ms), else a fresh local one. The template is
/// byte-identical to a default-constructed Device, so results cannot
/// differ.
android::Device& pick_device(std::optional<android::Device>& local,
                             android::Device* snapshot) {
  if (snapshot != nullptr) return *snapshot;
  return local.emplace();
}

void run_leak_case(JobResult& r, const JobSpec& spec, core::NDroidConfig cfg,
                   EngineTier engine, android::Device* snapshot) {
  apps::LeakScenario (*builder)(android::Device&) = nullptr;
  for (const auto& [name, b] : apps::all_cases()) {
    if (name == spec.name) builder = b;
  }
  if (builder == nullptr) throw std::runtime_error("unknown case " + spec.name);

  const auto t0 = Clock::now();
  std::optional<android::Device> local;
  android::Device& device = pick_device(local, snapshot);
  apply_engine(device, engine);
  core::NDroid nd(device, cfg);
  const apps::LeakScenario scenario = builder(device);
  r.timing.setup_ms = ms_since(t0);

  const auto t1 = Clock::now();
  nd.attach_static_analysis();
  r.timing.static_ms = ms_since(t1);

  const auto t2 = Clock::now();
  device.dvm.call(*scenario.entry, {});
  r.timing.run_ms = ms_since(t2);
  collect(r, device, nd);
}

void run_cfbench(JobResult& r, const JobSpec& spec, core::NDroidConfig cfg,
                 EngineTier engine, android::Device* snapshot) {
  const auto t0 = Clock::now();
  std::optional<android::Device> local;
  android::Device& device = pick_device(local, snapshot);
  apply_engine(device, engine);
  core::NDroid nd(device, cfg);
  apps::CfBenchApp app(device);
  const apps::CfWorkload* workload = app.find(spec.name);
  if (workload == nullptr) {
    throw std::runtime_error("unknown workload " + spec.name);
  }
  r.timing.setup_ms = ms_since(t0);

  const auto t1 = Clock::now();
  nd.attach_static_analysis();
  r.timing.static_ms = ms_since(t1);

  const auto t2 = Clock::now();
  r.checksum = app.run(*workload, spec.iterations);
  r.timing.run_ms = ms_since(t2);
  collect(r, device, nd);
}

void run_market_app(JobResult& r, const JobSpec& spec, core::NDroidConfig cfg,
                    EngineTier engine) {
  const auto t0 = Clock::now();
  android::Device device(spec.name);
  apply_engine(device, engine);
  core::NDroid nd(device, cfg);
  const MarketApp app = build_market_app(device, spec);
  r.timing.setup_ms = ms_since(t0);

  const auto t1 = Clock::now();
  nd.attach_static_analysis();
  r.timing.static_ms = ms_since(t1);

  market::AppRecord record;
  record.package = spec.name;
  record.calls_load_library = true;
  record.bundles_native_libs = !spec.native_libs.empty();
  record.native_libs = spec.native_libs;
  switch (market::classify(record)) {
    case market::AppType::kType1: r.market_type = "type1"; break;
    case market::AppType::kType2: r.market_type = "type2"; break;
    case market::AppType::kType3: r.market_type = "type3"; break;
    default: r.market_type = "none"; break;
  }

  const auto t2 = Clock::now();
  u32 checksum = 0;
  u32 arg = 7;
  for (dvm::Method* m : app.natives) {
    const dvm::Slot ret = device.dvm.call(*m, {dvm::Slot{arg, kTaintClear}});
    checksum = checksum * 31 + ret.value;
    arg = checksum | 1;
  }
  r.checksum = checksum;
  r.timing.run_ms = ms_since(t2);
  collect(r, device, nd);
}

void run_real_app(JobResult& r, const JobSpec& spec, core::NDroidConfig cfg,
                  EngineTier engine) {
  const auto t0 = Clock::now();
  apps::LeakScenario (*builder)(android::Device&) = nullptr;
  const char* target_class = nullptr;
  if (spec.name == "qqphonebook") {
    builder = &apps::build_qq_phonebook;
    target_class = "Lcom/tencent/tccsync/LoginUtil;";
  } else if (spec.name == "ephone") {
    builder = &apps::build_ephone;
    target_class = "Lcom/vnet/asip/general/general;";
  } else {
    throw std::runtime_error("unknown real app " + spec.name);
  }

  android::Device device("com." + spec.name);
  apply_engine(device, engine);
  core::NDroid nd(device, cfg);
  builder(device);
  r.timing.setup_ms = ms_since(t0);

  const auto t1 = Clock::now();
  nd.attach_static_analysis();
  r.timing.static_ms = ms_since(t1);

  const auto t2 = Clock::now();
  apps::Monkey monkey(device, spec.monkey_seed);
  monkey.add_target(device.dvm.find_class(target_class));
  const apps::MonkeyReport report = monkey.run(spec.monkey_events, [&] {
    return static_cast<u32>(device.framework.leaks().size() +
                            nd.leaks().size());
  });
  r.first_leaking_method = report.first_leaking_method;
  r.faulted_events = report.faulted_events;
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
    switch (spec.kind) {
      case JobKind::kLeakCase:
        run_leak_case(r, spec, cfg, options.engine, snapshot);
        break;
      case JobKind::kCfBench:
        run_cfbench(r, spec, cfg, options.engine, snapshot);
        break;
      case JobKind::kMarketApp: run_market_app(r, spec, cfg, options.engine); break;
      case JobKind::kRealApp: run_real_app(r, spec, cfg, options.engine); break;
      case JobKind::kFuzz: run_fuzz(r, spec); break;
    }
    r.ok = true;
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  return r;
}

}  // namespace ndroid::farm
