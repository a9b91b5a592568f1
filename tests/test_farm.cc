// The parallel analysis farm (src/farm): result determinism across worker
// counts, the parked worker pool under concurrent batches and fork(),
// worker placement across the allowed CPUs,
// exactly-one-lift cache semantics under concurrency, reproducible seeded
// monkey runs, and cross-app summary sharing on the market corpus.
#include <gtest/gtest.h>
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "android/device.h"
#include "apps/cfbench.h"
#include "apps/leak_cases.h"
#include "apps/monkey.h"
#include "apps/real_apps.h"
#include "arm/assembler.h"
#include "core/ndroid.h"
#include "farm/farm.h"
#include "farm/market_app.h"
#include "farm/providers.h"
#include "static/summary_cache.h"

// Fork-based process topologies are incompatible with TSan's runtime (its
// background thread makes every fork multithreaded); the thread topologies
// above still run under TSan.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define NDROID_NO_FORK_TESTS 1
#endif
#endif
#if !defined(NDROID_NO_FORK_TESTS) && defined(__SANITIZE_THREAD__)
#define NDROID_NO_FORK_TESTS 1
#endif

namespace ndroid {
namespace {

namespace sa = static_analysis;

std::vector<farm::JobSpec> small_mix() {
  // Table I corpus + a native CF-Bench workload + market apps + the two
  // monkey-driven real apps: every job kind, still fast enough to run at
  // four worker counts.
  std::vector<farm::JobSpec> jobs = farm::table1_jobs();
  {
    farm::JobSpec j;
    j.kind = farm::JobKind::kCfBench;
    j.name = "Native MIPS";
    j.iterations = 5;
    jobs.push_back(std::move(j));
  }
  for (farm::JobSpec& j : farm::market_jobs(4, /*seed=*/7)) {
    jobs.push_back(std::move(j));
  }
  for (farm::JobSpec& j : farm::real_app_jobs(/*monkey_events=*/8,
                                              /*seed=*/7)) {
    jobs.push_back(std::move(j));
  }
  for (u32 i = 0; i < static_cast<u32>(jobs.size()); ++i) {
    jobs[i].id = i;
    if (jobs[i].kind == farm::JobKind::kRealApp) {
      jobs[i].monkey_seed = farm::derive_seed(7, i, 0);
    }
  }
  return jobs;
}

TEST(Farm, LeakReportsIdenticalAtAnyWorkerCount) {
  const std::vector<farm::JobSpec> jobs = small_mix();

  farm::FarmOptions serial;
  serial.workers = 0;
  const std::string reference = farm::run_farm(jobs, serial).leak_digest();
  ASSERT_FALSE(reference.empty());
  ASSERT_NE(reference.find("case 1"), std::string::npos);

  for (const u32 workers : {1u, 2u, 8u}) {
    farm::FarmOptions options;
    options.workers = workers;
    const farm::FarmReport report = farm::run_farm(jobs, options);
    EXPECT_EQ(report.failures, 0u) << "workers=" << workers;
    EXPECT_EQ(report.leak_digest(), reference) << "workers=" << workers;
  }
}

TEST(Farm, ConcurrentBatchesShareNoWorkers) {
  // Worker threads are parked between batches and reused; a batch started
  // while another holds them runs on threads of its own. Both must finish
  // with the serial digest and only their own worker indices.
  const std::vector<farm::JobSpec> jobs = small_mix();
  const std::string reference = farm::run_farm(jobs).leak_digest();

  std::vector<farm::FarmReport> reports(3);
  std::vector<std::thread> callers;
  for (u32 c = 0; c < reports.size(); ++c) {
    callers.emplace_back([&, c] {
      farm::FarmOptions options;
      options.workers = 2 + c;
      reports[c] = farm::run_farm(jobs, options);
    });
  }
  for (std::thread& t : callers) t.join();

  for (u32 c = 0; c < reports.size(); ++c) {
    EXPECT_EQ(reports[c].failures, 0u) << "caller " << c;
    EXPECT_EQ(reports[c].leak_digest(), reference) << "caller " << c;
    for (const farm::JobResult& r : reports[c].results) {
      EXPECT_LT(r.worker, 2 + c) << "caller " << c;
    }
  }
}

TEST(Farm, ThreadBatchRunsInForkChild) {
#ifdef NDROID_NO_FORK_TESTS
  GTEST_SKIP() << "fork-based tests skipped under TSan";
#endif
  // The parked workers exist only in the process that spawned them. A
  // child forked after a thread batch must still be able to run one (on
  // threads of its own) instead of waiting on its parent's workers.
  std::vector<farm::JobSpec> jobs = farm::table1_jobs();
  for (u32 i = 0; i < static_cast<u32>(jobs.size()); ++i) jobs[i].id = i;
  farm::FarmOptions options;
  options.workers = 2;
  const std::string reference = farm::run_farm(jobs, options).leak_digest();

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::alarm(60);  // a child stuck on the parent's workers dies of SIGALRM
    const bool same = farm::run_farm(jobs, options).leak_digest() == reference;
    ::_exit(same ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child killed by signal "
                                 << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(Farm, PlaceWorkerSpreadsSlotsAndKeepsTheAffinityMask) {
  // Slot k lands on the k-th allowed CPU (round-robin) and the thread keeps
  // its whole allowed set, so a load-balancing kernel may still move it.
  // Runs on its own thread: the placement must not leak into the runner.
  std::thread([] {
    cpu_set_t allowed;
    ASSERT_EQ(::sched_getaffinity(0, sizeof allowed, &allowed), 0);
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
    for (u32 slot = 0; slot < 2 * cpus.size() + 1; ++slot) {
      farm::place_worker(slot);
      if (cpus.size() > 1) {
        EXPECT_EQ(::sched_getcpu(), cpus[slot % cpus.size()])
            << "slot " << slot;
      }
      cpu_set_t after;
      ASSERT_EQ(::sched_getaffinity(0, sizeof after, &after), 0);
      EXPECT_TRUE(CPU_EQUAL(&after, &allowed)) << "slot " << slot;
    }
  }).join();
}

TEST(Farm, SharedCacheDoesNotChangeResults) {
  const std::vector<farm::JobSpec> jobs = small_mix();

  farm::FarmOptions no_cache;
  no_cache.workers = 0;
  no_cache.share_summaries = false;
  farm::FarmOptions cached;
  cached.workers = 2;
  cached.share_summaries = true;

  EXPECT_EQ(farm::run_farm(jobs, no_cache).leak_digest(),
            farm::run_farm(jobs, cached).leak_digest());
}

TEST(Farm, ExactlyOneLiftPerKeyUnderConcurrentFirstAccess) {
  // Eight threads race acquire() on one key; the lift sleeps long enough
  // that every waiter piles up behind the owner.
  sa::SummaryCache cache;
  std::atomic<int> lifts{0};
  const auto lift = [&] {
    ++lifts;
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    sa::LibrarySummary lib;
    lib.key = 99;
    lib.lifted_base = 0x10000;
    lib.image_size = 64;
    return lib;
  };

  std::vector<std::shared_ptr<const sa::LibrarySummary>> got(8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back(
        [&, t] { got[t] = cache.acquire(99, 0x10000, lift); });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(lifts.load(), 1);
  for (const auto& lib : got) {
    ASSERT_NE(lib, nullptr);
    EXPECT_EQ(lib.get(), got[0].get());
  }
  const sa::SummaryCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 7u);
}

TEST(Farm, MonkeySeedReproducibleAndSeedSensitive) {
  farm::JobSpec spec;
  spec.kind = farm::JobKind::kRealApp;
  spec.name = "qqphonebook";
  spec.monkey_events = 10;
  spec.monkey_seed = 42;

  farm::FarmOptions options;
  const farm::JobResult a = farm::run_job(spec, nullptr, options);
  const farm::JobResult b = farm::run_job(spec, nullptr, options);
  ASSERT_TRUE(a.ok) << a.error;
  EXPECT_EQ(a.framework_leaks.size(), b.framework_leaks.size());
  EXPECT_EQ(a.first_leaking_method, b.first_leaking_method);

  // Per-(id, rep) derivation actually varies the seed.
  EXPECT_NE(farm::derive_seed(42, 1, 0), farm::derive_seed(42, 1, 1));
  EXPECT_NE(farm::derive_seed(42, 1, 0), farm::derive_seed(42, 2, 0));
}

TEST(Farm, FaultedEventsAreCountedAndDigestedOnlyWhenNonZero) {
  farm::JobSpec spec;
  spec.kind = farm::JobKind::kRealApp;
  spec.name = "ephone";
  spec.monkey_events = 200;
  spec.monkey_seed = 42;
  farm::JobResult clean = farm::run_job(spec, nullptr, farm::FarmOptions{});
  ASSERT_TRUE(clean.ok) << clean.error;
  EXPECT_EQ(clean.faulted_events, 0u);

  farm::JobResult faulty = clean;
  faulty.spec.id = 1;
  faulty.faulted_events = 5;
  farm::FarmReport report;
  farm::aggregate_result(report, clean);
  farm::aggregate_result(report, faulty);
  EXPECT_EQ(report.faulted_events, 5u);
  const std::string digest = report.leak_digest();
  const std::size_t second_line = digest.find("\n#1 ");
  ASSERT_NE(second_line, std::string::npos);
  EXPECT_EQ(digest.find(";faulted="), digest.find(";faulted=5\n"));
  EXPECT_GT(digest.find(";faulted="), second_line);
}

TEST(Farm, LocalTableOverflowIsAJobError) {
  // A Device whose local table earlier native code filled to the cap: the
  // job's first native call cannot marshal its arguments.
  android::Device device;
  for (u32 i = 0; i < dvm::IndirectRefTable::kMaxLocals; ++i) {
    device.dvm.irt().add(device.dvm.new_string("leaked"));
  }
  const farm::JobSpec spec = farm::table1_jobs().front();
  const farm::JobResult r =
      farm::run_job(spec, nullptr, farm::FarmOptions{}, &device);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("JNI local reference table overflow"),
            std::string::npos)
      << r.error;
}

TEST(Farm, MarketCorpusSharesSummariesAcrossApps) {
  // Repeating the market corpus: each distinct library lifts once (first
  // batch), then every later encounter hits the shared snapshot.
  const std::vector<farm::JobSpec> jobs =
      farm::repeat_jobs(farm::market_jobs(6, /*seed=*/11), /*reps=*/4);

  sa::SummaryCache cache;
  farm::FarmOptions options;
  options.workers = 2;
  options.cache = &cache;
  const farm::FarmReport report = farm::run_farm(jobs, options);

  EXPECT_EQ(report.failures, 0u);
  EXPECT_GT(report.cache.hits, 0u);
  // Lifts == distinct library names in the corpus, not libraries-met.
  std::vector<std::string> distinct;
  for (const farm::JobSpec& j : jobs) {
    for (const std::string& lib : j.native_libs) {
      if (std::find(distinct.begin(), distinct.end(), lib) == distinct.end()) {
        distinct.push_back(lib);
      }
    }
  }
  EXPECT_EQ(report.cache.misses, distinct.size());
  EXPECT_GT(report.cache.hit_rate(), 0.5);
}

TEST(Farm, DigestIdenticalAcrossAllTopologiesColdAndWarmStore) {
#ifdef NDROID_NO_FORK_TESTS
  GTEST_SKIP() << "fork-based process pool tests skipped under TSan";
#endif
  // The tentpole determinism claim: serial, thread, and process topologies
  // — with no store, a cold persistent store, and a warm one — all produce
  // bit-identical leak digests.
  const std::vector<farm::JobSpec> jobs = small_mix();

  farm::FarmOptions serial;
  const std::string reference = farm::run_farm(jobs, serial).leak_digest();
  ASSERT_FALSE(reference.empty());

  for (const u32 processes : {1u, 2u, 4u}) {
    farm::FarmOptions options;
    options.processes = processes;
    const farm::FarmReport report = farm::run_farm(jobs, options);
    EXPECT_EQ(report.failures, 0u) << "processes=" << processes;
    EXPECT_EQ(report.worker_deaths, 0u) << "processes=" << processes;
    EXPECT_EQ(report.leak_digest(), reference) << "processes=" << processes;
  }

  char tmpl[] = "/tmp/ndroid_farm_store_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);

  // Cold store, process-sharded: every distinct library is lifted once in
  // some worker process and written back through the shared directory.
  farm::FarmOptions cold;
  cold.processes = 2;
  cold.store_dir = dir;
  const farm::FarmReport cold_report = farm::run_farm(jobs, cold);
  EXPECT_EQ(cold_report.failures, 0u);
  EXPECT_EQ(cold_report.leak_digest(), reference);
  EXPECT_GT(cold_report.cache.store_writes, 0u);
  EXPECT_EQ(cold_report.warm_entries, 0u);

  // Warm store, every topology: the supervisor pre-publishes the on-disk
  // entries before workers exist, nothing is re-lifted or rewritten, and
  // the digest still matches the storeless serial reference.
  for (const auto& [workers, processes] :
       std::vector<std::pair<u32, u32>>{{0, 0}, {2, 0}, {0, 2}}) {
    farm::FarmOptions warm;
    warm.workers = workers;
    warm.processes = processes;
    warm.store_dir = dir;
    const farm::FarmReport report = farm::run_farm(jobs, warm);
    EXPECT_EQ(report.failures, 0u) << workers << "w/" << processes << "p";
    EXPECT_GT(report.warm_entries, 0u) << workers << "w/" << processes << "p";
    EXPECT_EQ(report.cache.store_writes, 0u)
        << workers << "w/" << processes << "p";
    EXPECT_EQ(report.leak_digest(), reference)
        << workers << "w/" << processes << "p";
  }
}

TEST(Farm, GeneratedMarketLibrariesArePositionIndependent) {
  // The same library name must produce byte-identical images at different
  // assembly bases — the property that makes cross-app cache keys collide
  // (and exercises bind_library's relocation instead of a re-lift).
  const u64 seed = 0xDEADBEEFu;
  arm::Assembler at_low(0x10000);
  arm::Assembler at_high(0x24000);
  const auto fns_low = farm::emit_pic_library(at_low, seed);
  const auto fns_high = farm::emit_pic_library(at_high, seed);

  EXPECT_EQ(at_low.finish(), at_high.finish());
  ASSERT_EQ(fns_low.size(), fns_high.size());
  for (std::size_t i = 0; i < fns_low.size(); ++i) {
    EXPECT_EQ(fns_low[i] - 0x10000, fns_high[i] - 0x24000);
  }
}

/// Runs a Table I case, a CF-Bench row or a monkey session the way the
/// farm's worker does, but under an explicit NDroidConfig.
farm::JobResult run_under(const farm::JobSpec& spec, core::NDroidConfig cfg,
                          arm::Engine engine) {
  farm::JobResult r;
  r.spec = spec;
  const bool real_app = spec.kind == farm::JobKind::kRealApp;
  android::Device device(real_app ? "com." + spec.name : "com.example.app");
  device.cpu.set_engine(engine);
  core::NDroid nd(device, cfg);
  try {
    if (spec.kind == farm::JobKind::kLeakCase) {
      for (const auto& [name, builder] : apps::all_cases()) {
        if (name != spec.name) continue;
        const apps::LeakScenario scenario = builder(device);
        nd.attach_static_analysis();
        device.dvm.call(*scenario.entry, {});
      }
    } else if (spec.kind == farm::JobKind::kCfBench) {
      apps::CfBenchApp app(device);
      nd.attach_static_analysis();
      r.checksum = app.run(*app.find(spec.name), spec.iterations);
    } else {
      const bool qq = spec.name == "qqphonebook";
      (qq ? apps::build_qq_phonebook : apps::build_ephone)(device);
      nd.attach_static_analysis();
      apps::Monkey monkey(device, spec.monkey_seed);
      monkey.add_target(device.dvm.find_class(
          qq ? "Lcom/tencent/tccsync/LoginUtil;"
             : "Lcom/vnet/asip/general/general;"));
      const apps::MonkeyReport report = monkey.run(spec.monkey_events, [&] {
        return static_cast<u32>(device.framework.leaks().size() +
                                nd.leaks().size());
      });
      r.first_leaking_method = report.first_leaking_method;
      r.faulted_events = report.faulted_events;
    }
    r.ok = true;
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  r.framework_leaks = device.framework.leaks();
  r.native_leaks = nd.leaks();
  if (nd.guard() != nullptr) {
    r.tamper_alerts = static_cast<u32>(nd.guard()->alerts().size());
  }
  return r;
}

TEST(ConfigDifferential, LivenessFastPathIsCostOnly) {
  // taint_liveness_fastpath skips blocks and Table VI models that could
  // only write clear over clear: with it on and off, on both engines, every
  // job must report the same leaks, alerts and results.
  std::vector<farm::JobSpec> jobs = farm::table1_jobs();
  for (farm::JobSpec& j : farm::cfbench_jobs(/*iterations=*/2)) {
    jobs.push_back(std::move(j));
  }
  for (farm::JobSpec& j : farm::real_app_jobs(/*monkey_events=*/200, 7)) {
    jobs.push_back(std::move(j));
  }
  for (u32 i = 0; i < jobs.size(); ++i) jobs[i].id = i;

  std::string reference;
  for (const bool fastpath : {true, false}) {
    for (arm::Engine engine : {arm::Engine::kThreaded, arm::Engine::kInterp}) {
      SCOPED_TRACE(std::string("fast path ") + (fastpath ? "on, " : "off, ") +
                   farm::to_string(engine));
      core::NDroidConfig cfg;
      cfg.taint_protection = true;
      cfg.taint_liveness_fastpath = fastpath;
      farm::FarmReport report;
      for (const farm::JobSpec& spec : jobs) {
        report.results.push_back(run_under(spec, cfg, engine));
        EXPECT_TRUE(report.results.back().ok)
            << spec.name << ": " << report.results.back().error;
      }
      if (reference.empty()) {
        reference = report.leak_digest();
        EXPECT_NE(reference.find("first_leak="), std::string::npos);
      } else {
        EXPECT_EQ(report.leak_digest(), reference);
      }
    }
  }
}

TEST(Farm, EngineNamesAreTheTwoTiers) {
  for (const farm::EngineTier tier :
       {farm::EngineTier::kInterp, farm::EngineTier::kThreaded}) {
    EXPECT_EQ(farm::parse_engine(farm::to_string(tier)), tier);
  }
  // Names of deleted tiers must not parse.
  EXPECT_THROW(farm::parse_engine("tb"), std::invalid_argument);
  EXPECT_THROW(farm::parse_engine("tb+tlb"), std::invalid_argument);
  EXPECT_THROW(farm::parse_engine("jit"), std::invalid_argument);
}

}  // namespace
}  // namespace ndroid
