#include "farm/farm.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "static/summary_store.h"

namespace ndroid::farm {

const char* to_string(JobKind kind) {
  switch (kind) {
    case JobKind::kLeakCase: return "leak_case";
    case JobKind::kCfBench: return "cfbench";
    case JobKind::kMarketApp: return "market_app";
    case JobKind::kRealApp: return "real_app";
    case JobKind::kFuzz: return "fuzz";
  }
  return "?";
}

namespace {

using Clock = std::chrono::steady_clock;

/// One worker's deque of indices into the batch. The owner pops from the
/// front; thieves pop from the back, so an owner burns through its own
/// cache-warm neighbourhood while steals take the work it would reach last.
struct WorkerQueue {
  std::mutex m;
  std::deque<std::size_t> q;

  bool pop_front(std::size_t& out) {
    std::lock_guard lock(m);
    if (q.empty()) return false;
    out = q.front();
    q.pop_front();
    return true;
  }

  bool steal_back(std::size_t& out) {
    std::lock_guard lock(m);
    if (q.empty()) return false;
    out = q.back();
    q.pop_back();
    return true;
  }
};

/// The batch's report, which workers aggregate into as their jobs finish.
/// Aggregation is a few pushes under the lock; handing each result to the
/// calling thread instead would wake it once per job, and on a host with no
/// spare core that wake-up preempts a worker.
struct SharedReport {
  std::mutex m;
  FarmReport& report;
};

void worker_loop(u32 me, const std::vector<JobSpec>& jobs,
                 std::vector<WorkerQueue>& queues, SharedReport& out,
                 static_analysis::SummaryCache* cache,
                 const FarmOptions& options) {
  const u32 n = static_cast<u32>(queues.size());
  for (;;) {
    std::size_t job = 0;
    bool have = queues[me].pop_front(job);
    for (u32 k = 1; !have && k < n; ++k) {
      have = queues[(me + k) % n].steal_back(job);
    }
    if (!have) break;  // every queue empty: queues only shrink, so done
    JobResult r = run_job(jobs[job], cache, options);
    r.worker = me;
    std::lock_guard lock(out.m);
    aggregate_result(out.report, std::move(r));
  }
}

}  // namespace

void place_worker(u32 slot) {
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  const int count = CPU_COUNT(&allowed);
  if (count < 2) return;
  // The (slot % count)-th set bit of the mask.
  int skip = static_cast<int>(slot % static_cast<u32>(count));
  int cpu = 0;
  while (!CPU_ISSET(cpu, &allowed) || skip-- > 0) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (::sched_setaffinity(0, sizeof one, &one) == 0) {
    ::sched_setaffinity(0, sizeof allowed, &allowed);
  }
}

namespace {

/// Farm worker threads, parked between batches. A new thread's first jobs
/// pay for state it does not have yet — stack pages, malloc arena free
/// lists, the thread-local decode cache (src/arm/cpu.cc) — and on batches of
/// sub-millisecond jobs that cost showed up as 8 workers on 4 CPUs running
/// slower than 4. Threads are spawned on demand, never exit, and hold no
/// lock while parked, so a later fork() (process mode) stays safe.
class WorkerPool {
 public:
  static WorkerPool& instance() {
    // Never destroyed, and its threads never joined: they stay parked on
    // its members until the process exits. Destroying it at exit instead
    // would have to join threads that a fork() child does not have.
    static WorkerPool* const pool = new WorkerPool;
    return *pool;
  }

  /// Runs work(0..n-1) on n pool threads and returns once every call has
  /// returned. Returns false, running nothing, when another batch holds the
  /// pool or the caller is a fork() child (the threads live in the parent).
  bool try_run(u32 n, const std::function<void(u32)>& work) {
    if (::getpid() != pid_) return false;
    std::unique_lock batch(batch_, std::try_to_lock);
    if (!batch.owns_lock()) return false;
    std::unique_lock lock(m_);
    for (; spawned_ < n; ++spawned_) {
      std::thread(&WorkerPool::park, this, spawned_).detach();
    }
    work_ = &work;
    active_ = n;
    running_ = n;
    ++generation_;
    wake_.notify_all();
    done_.wait(lock, [&] { return running_ == 0; });
    work_ = nullptr;
    return true;
  }

 private:
  WorkerPool() : pid_(::getpid()) {}

  void park(u32 me) {
    place_worker(me);
    u64 seen = 0;
    std::unique_lock lock(m_);
    for (;;) {
      wake_.wait(lock, [&] { return generation_ != seen; });
      seen = generation_;
      if (me >= active_) continue;  // not part of this batch
      const std::function<void(u32)>& work = *work_;
      lock.unlock();
      work(me);
      lock.lock();
      if (--running_ == 0) done_.notify_one();
    }
  }

  const pid_t pid_;
  std::mutex batch_;  // held by the caller for a whole batch
  std::mutex m_;
  std::condition_variable wake_;
  std::condition_variable done_;
  const std::function<void(u32)>* work_ = nullptr;
  u64 generation_ = 0;
  u32 spawned_ = 0;
  u32 active_ = 0;
  u32 running_ = 0;
};

/// Runs work(0..n-1) on n threads: the parked pool's, or fresh ones when the
/// pool is unavailable.
void run_workers(u32 n, const std::function<void(u32)>& work) {
  if (WorkerPool::instance().try_run(n, work)) return;
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (u32 w = 0; w < n; ++w) {
    threads.emplace_back([&work, w] {
      place_worker(w);
      work(w);
    });
  }
  for (std::thread& t : threads) t.join();
}

void append_leak(std::ostringstream& out, const std::string& sink,
                 const std::string& destination, Taint taint,
                 const std::string& data) {
  out << sink << '|' << destination << '|' << taint << '|' << data << ';';
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

void aggregate_result(FarmReport& report, JobResult r) {
  ++report.jobs;
  if (!r.ok) ++report.failures;
  report.retries += r.retries;
  report.native_leaks += static_cast<u32>(r.native_leaks.size());
  report.framework_leaks += static_cast<u32>(r.framework_leaks.size());
  report.tamper_alerts += r.tamper_alerts;
  report.faulted_events += r.faulted_events;
  report.summary_gate_skips += r.summary_gate_skips;
  // Process-mode jobs ship their in-process cache activity back in the
  // result (always zero in serial/thread modes, where run_farm reads the
  // shared cache's counters directly).
  report.cache.hits += r.cache_delta.hits;
  report.cache.misses += r.cache_delta.misses;
  report.cache.rebinds += r.cache_delta.rebinds;
  report.cache.store_hits += r.cache_delta.store_hits;
  report.cache.store_writes += r.cache_delta.store_writes;
  report.results.push_back(std::move(r));
}

std::string FarmReport::leak_digest() const {
  std::ostringstream out;
  for (const JobResult& r : results) {
    out << '#' << r.spec.id << ' ' << to_string(r.spec.kind) << ' '
        << r.spec.name << " rep" << r.spec.rep << ':';
    out << (r.ok ? "ok" : ("err=" + r.error)) << ':';
    for (const auto& leak : r.framework_leaks) {
      out << 'F';
      append_leak(out, leak.sink, leak.destination, leak.taint, leak.data);
    }
    for (const auto& leak : r.native_leaks) {
      out << 'N';
      append_leak(out, leak.sink, leak.destination, leak.taint, leak.data);
    }
    out << "alerts=" << r.tamper_alerts << ";csum=" << r.checksum;
    if (!r.market_type.empty()) out << ";market=" << r.market_type;
    if (!r.first_leaking_method.empty()) {
      out << ";first_leak=" << r.first_leaking_method;
    }
    if (r.faulted_events != 0) out << ";faulted=" << r.faulted_events;
    out << '\n';
  }
  return out.str();
}

std::string FarmReport::to_json() const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"workers\": " << workers << ",\n";
  out << "  \"processes\": " << processes << ",\n";
  out << "  \"jobs\": " << jobs << ",\n";
  out << "  \"failures\": " << failures << ",\n";
  out << "  \"retries\": " << retries << ",\n";
  out << "  \"worker_deaths\": " << worker_deaths << ",\n";
  out << "  \"warm_entries\": " << warm_entries << ",\n";
  out << "  \"native_leaks\": " << native_leaks << ",\n";
  out << "  \"framework_leaks\": " << framework_leaks << ",\n";
  out << "  \"tamper_alerts\": " << tamper_alerts << ",\n";
  out << "  \"faulted_events\": " << faulted_events << ",\n";
  out << "  \"summary_gate_skips\": " << summary_gate_skips << ",\n";
  out << "  \"wall_ms\": " << wall_ms << ",\n";
  out << "  \"apps_per_sec\": " << apps_per_sec << ",\n";
  out << "  \"cache\": {\"hits\": " << cache.hits
      << ", \"misses\": " << cache.misses << ", \"rebinds\": " << cache.rebinds
      << ", \"store_hits\": " << cache.store_hits
      << ", \"store_writes\": " << cache.store_writes
      << ", \"hit_rate\": " << cache.hit_rate() << "},\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const JobResult& r = results[i];
    out << "    {\"id\": " << r.spec.id << ", \"kind\": \""
        << to_string(r.spec.kind) << "\", \"name\": \""
        << json_escape(r.spec.name) << "\", \"rep\": " << r.spec.rep
        << ", \"worker\": " << r.worker << ", \"ok\": "
        << (r.ok ? "true" : "false") << ", \"native_leaks\": "
        << r.native_leaks.size() << ", \"framework_leaks\": "
        << r.framework_leaks.size() << ", \"tamper_alerts\": "
        << r.tamper_alerts << ", \"faulted_events\": " << r.faulted_events
        << ", \"gate_skips\": " << r.summary_gate_skips
        << ", \"setup_ms\": " << r.timing.setup_ms << ", \"static_ms\": "
        << r.timing.static_ms << ", \"run_ms\": " << r.timing.run_ms << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

FarmReport run_farm(const std::vector<JobSpec>& jobs,
                    const FarmOptions& options) {
  // Resolved copy: the store pointer (opened from store_dir if needed) rides
  // inside so run_job / the process pool see one authoritative FarmOptions.
  FarmOptions opts = options;
  FarmReport report;
  report.workers = opts.processes > 0 ? 0 : opts.workers;
  report.processes = opts.processes;

  std::unique_ptr<static_analysis::SummaryStore> local_store;
  if (opts.store == nullptr && !opts.store_dir.empty()) {
    local_store = std::make_unique<static_analysis::SummaryStore>(opts.store_dir);
    opts.store = local_store.get();
  }

  // Batch-local cache unless the caller shares one across batches.
  static_analysis::SummaryCache local_cache;
  static_analysis::SummaryCache* cache = nullptr;
  if (opts.share_summaries) {
    cache = opts.cache != nullptr ? opts.cache : &local_cache;
  }
  if (cache != nullptr && opts.store != nullptr) {
    cache->set_store(opts.store);
    // Pre-publish everything on disk now, before any worker exists: thread
    // workers share the warmed slots directly, process workers inherit them
    // through copy-on-write fork memory.
    report.warm_entries = static_cast<u32>(cache->warm_from_store());
  }
  const auto stats_before =
      cache != nullptr ? cache->stats() : static_analysis::SummaryCache::Stats{};

  const auto t0 = Clock::now();
  if (opts.processes > 0) {
    const u32 warm = report.warm_entries;
    report = run_farm_processes(jobs, opts, cache);
    report.warm_entries = warm;
  } else if (opts.workers == 0) {
    // Serial reference path: no threads, no locks.
    for (const JobSpec& spec : jobs) {
      aggregate_result(report, run_job(spec, cache, opts));
    }
  } else {
    std::vector<WorkerQueue> queues(opts.workers);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      queues[i % opts.workers].q.push_back(i);
    }
    SharedReport out{{}, report};
    run_workers(opts.workers, [&](u32 w) {
      worker_loop(w, jobs, queues, out, cache, opts);
    });
  }
  report.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  report.apps_per_sec =
      report.wall_ms > 0 ? 1000.0 * report.jobs / report.wall_ms : 0.0;

  if (cache != nullptr) {
    const auto after = cache->stats();
    report.cache.hits += after.hits - stats_before.hits;
    report.cache.misses += after.misses - stats_before.misses;
    report.cache.rebinds += after.rebinds - stats_before.rebinds;
    report.cache.store_hits += after.store_hits - stats_before.store_hits;
    report.cache.store_writes += after.store_writes - stats_before.store_writes;
    // Don't leave an external cache pointing at a store we own.
    if (local_store != nullptr) cache->set_store(nullptr);
  }

  std::sort(report.results.begin(), report.results.end(),
            [](const JobResult& a, const JobResult& b) {
              return a.spec.id < b.spec.id;
            });
  return report;
}

}  // namespace ndroid::farm
