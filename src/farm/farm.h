// Parallel app-analysis farm (the batch engine over src/core).
//
// run_farm() drains a queue of JobSpecs across N worker threads. Each worker
// owns a fully isolated analysis stack per job — a fresh android::Device and
// core::NDroid — so jobs never share mutable state; the only cross-worker
// structure is the static-summary cache (static_analysis::SummaryCache),
// which is immutable-after-publish and concurrency-safe. Scheduling is
// work-stealing: jobs are dealt round-robin into per-worker deques, owners
// pop from the front, idle workers steal from the back of the next
// non-empty victim. Each worker folds its results into the report under one
// lock as it finishes them; the report is sorted by job id at the end — so
// a FarmReport is identical for any worker count, including the inline
// serial path (workers == 0). Worker threads are parked between batches
// and reused by the next run_farm() call in the same process.
//
// Setting FarmOptions::processes instead shards the batch across worker
// *processes* (see process_pool.cc): pre-forked zygote workers fork one
// grandchild per job off a copy-on-write template snapshot, results come
// back over a framed pipe protocol into the same aggregation step, and a
// crashing or deadline-blowing job costs exactly that job — the supervisor
// retries it once and then records the failure in the FarmReport. The
// persistent SummaryStore (FarmOptions::store_dir) is what worker processes
// share summaries through; leak_digest() is topology-independent across
// serial, threaded, and process-sharded runs.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "arm/cpu.h"
#include "core/report.h"
#include "farm/job.h"
#include "static/summary_cache.h"
#include "taintdroid/framework.h"

namespace ndroid::android {
class Device;
}

namespace ndroid::farm {

/// CPU execution tier every job's Device runs on (arm::Cpu::set_engine):
/// the interpreter oracle or the threaded production default.
using EngineTier = arm::Engine;

/// Parses "interp" | "threaded"; throws std::invalid_argument on anything
/// else.
EngineTier parse_engine(const std::string& name);
const char* to_string(EngineTier tier);

/// Puts a freshly built Device's CPU on `tier`.
void apply_engine(ndroid::android::Device& device, EngineTier tier);

struct FarmOptions {
  /// Worker threads. 0 = run every job inline on the calling thread (the
  /// serial reference the determinism tests compare against).
  u32 workers = 0;
  /// Worker *processes*. Non-zero selects the crash-isolated fork pool
  /// (process_pool.cc) and ignores `workers`: the supervisor stays
  /// single-threaded on the calling thread, each job runs in a grandchild
  /// forked off a pre-built copy-on-write snapshot, and a crash/timeout
  /// costs only that job (retried once, then marked failed).
  u32 processes = 0;
  /// Per-job wall-clock deadline in process mode (SIGALRM in the job's own
  /// process). 0 = no deadline. Ignored in serial/thread modes, where a
  /// runaway job cannot be killed safely.
  u32 job_timeout_ms = 0;
  /// Directory of the persistent content-addressed summary store. Non-empty
  /// = the farm opens (creating if needed) a SummaryStore there, attaches it
  /// below the SummaryCache, and pre-warms the cache from it before any
  /// worker starts — in process mode the warmed cache is inherited by every
  /// worker via fork, and fresh lifts are written back so later jobs,
  /// batches, and *runs* hit on disk.
  std::string store_dir;
  /// Externally owned store (e.g. a test's). Overrides store_dir.
  static_analysis::SummaryStore* store = nullptr;
  /// Process mode: build one pristine template Device per zygote and hand
  /// it to every job process through copy-on-write fork memory (jobs whose
  /// kind uses a default Device then skip construction entirely). Off =
  /// every job process builds its own Device — the ablation row bench_farm
  /// uses to price the template.
  bool zygote_template = true;
  /// Fault-injection hook (tests only): runs inside the job's own process in
  /// process mode, immediately before the job executes. A hook that
  /// abort()s, SIGKILLs, or spins past the deadline exercises exactly the
  /// crash paths the supervisor must contain.
  std::function<void(const JobSpec&)> fault_hook;
  /// Share static summaries through a SummaryCache. Off = every job lifts
  /// its own libraries (the pre-farm per-attach behaviour; ablation).
  bool share_summaries = true;
  /// Externally owned cache to share across batches (e.g. --repeat runs).
  /// Null + share_summaries: the farm creates a batch-local cache.
  static_analysis::SummaryCache* cache = nullptr;
  /// Enable the §VII TaintGuard in every job's NDroid.
  bool taint_protection = true;
  /// Execution tier for every job's CPU (--engine; ablation sweeps).
  EngineTier engine = EngineTier::kThreaded;
};

struct JobTiming {
  double setup_ms = 0;   // Device construction + app build
  double static_ms = 0;  // attach_static_analysis (cache acquire or lift)
  double run_ms = 0;     // driving the app
};

struct JobResult {
  JobSpec spec;
  u32 worker = 0;  // informational only; excluded from leak_digest()
  bool ok = false;
  std::string error;

  std::vector<core::NativeLeak> native_leaks;
  std::vector<taintdroid::LeakReport> framework_leaks;
  u32 tamper_alerts = 0;
  u64 summary_gate_skips = 0;
  u32 checksum = 0;                  // kCfBench / kMarketApp result value
  std::string market_type;           // kMarketApp: §III classification
  std::string first_leaking_method;  // kRealApp: monkey finding
  /// kRealApp: monkey events whose invocation faulted (the driver keeps
  /// going, so only this count shows them).
  u32 faulted_events = 0;
  JobTiming timing;
  /// Process mode: how many times this job was restarted after a worker
  /// death or deadline overrun (0 or 1; excluded from leak_digest()).
  u32 retries = 0;
  /// Process mode: cache/store activity observed inside the job's own
  /// process (its cache diverges from the supervisor's after fork, so the
  /// delta ships back in the result frame for aggregation).
  static_analysis::SummaryCache::Stats cache_delta;
};

struct FarmReport {
  std::vector<JobResult> results;  // sorted by spec.id

  u32 workers = 0;
  u32 processes = 0;
  u32 jobs = 0;
  u32 failures = 0;
  /// Process mode: jobs restarted after losing their worker (each counted
  /// once; a job that fails its retry also shows up in `failures`).
  u32 retries = 0;
  /// Process mode: job processes that died abnormally (signal, deadline, or
  /// torn result frame) plus zygote workers the supervisor had to respawn.
  u32 worker_deaths = 0;
  /// Snapshots pre-published from the persistent store before workers
  /// started (warm-start evidence for the twice-run CI smoke).
  u32 warm_entries = 0;
  u32 native_leaks = 0;
  u32 framework_leaks = 0;
  u32 tamper_alerts = 0;
  u32 faulted_events = 0;
  u64 summary_gate_skips = 0;
  double wall_ms = 0;
  double apps_per_sec = 0;
  /// Cache activity attributable to this batch (delta over the run when an
  /// external cache is shared).
  static_analysis::SummaryCache::Stats cache;

  /// Canonical byte-comparable encoding of every analysis outcome, sorted
  /// by job id and independent of worker assignment and timing. Two runs of
  /// the same batch must produce equal digests at any worker count.
  [[nodiscard]] std::string leak_digest() const;
  [[nodiscard]] std::string to_json() const;
};

/// Runs one job hermetically (fresh Device + NDroid); never throws — build
/// or drive failures are captured in JobResult::error. `snapshot`, when
/// non-null, is a pristine default-constructed Device the job may consume
/// instead of building its own (the fork pool's copy-on-write template;
/// only jobs whose kind uses a default Device take it).
JobResult run_job(const JobSpec& spec, static_analysis::SummaryCache* cache,
                  const FarmOptions& options,
                  android::Device* snapshot = nullptr);

FarmReport run_farm(const std::vector<JobSpec>& jobs,
                    const FarmOptions& options = {});

/// Streaming aggregation step shared by the thread and process schedulers:
/// folds one result into the report's counters and appends it to
/// `report.results` (caller sorts by id at the end).
void aggregate_result(FarmReport& report, JobResult r);

/// Moves the calling thread onto the slot-th CPU (round-robin) of its
/// allowed set, then gives the whole set back. A kernel that balances load
/// (the usual case) is then free to move the thread again; one that does
/// not (a cpuset with sched_load_balance=0, isolcpus) never moves a thread
/// off the CPU it first ran on, which for a new thread or process is often
/// its creator's, so a farm's workers could all end up sharing one CPU.
/// The thread and process schedulers call it at the start of each worker.
void place_worker(u32 slot);

/// The crash-isolated process scheduler (see process_pool.cc). run_farm()
/// dispatches here when options.processes > 0; callable directly in tests.
/// `cache` may be null (share_summaries off).
FarmReport run_farm_processes(const std::vector<JobSpec>& jobs,
                              const FarmOptions& options,
                              static_analysis::SummaryCache* cache);

}  // namespace ndroid::farm
