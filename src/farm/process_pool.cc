// Crash-isolated fork-based farm scheduler (see process_pool.h for the
// topology). Everything here runs on the calling thread — the supervisor is
// deliberately single-threaded so every fork() happens with no locks held
// anywhere in the process (the thread scheduler's parked workers hold none
// while parked), and job results go through the same aggregate_result()
// path the thread scheduler uses.
#include "farm/process_pool.h"

#include <poll.h>
#include <signal.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <optional>

#include "android/device.h"
#include "common/serde.h"
#include "static/library_summary.h"
#include "static/summary_store.h"

namespace ndroid::farm {

namespace wire {

std::vector<u8> encode_result(const JobResult& r) {
  serde::Writer w;
  w.put_u32(r.spec.id);
  w.put_u8(static_cast<u8>(r.spec.kind));
  w.put_str(r.spec.name);
  w.put_u32(r.spec.rep);
  w.put_u32(r.spec.iterations);
  w.put_u32(r.spec.monkey_events);
  w.put_u64(r.spec.monkey_seed);
  w.put_u32(static_cast<u32>(r.spec.native_libs.size()));
  for (const std::string& lib : r.spec.native_libs) w.put_str(lib);

  w.put_u32(r.worker);
  w.put_bool(r.ok);
  w.put_str(r.error);

  w.put_u32(static_cast<u32>(r.native_leaks.size()));
  for (const core::NativeLeak& leak : r.native_leaks) {
    w.put_str(leak.sink);
    w.put_str(leak.destination);
    w.put_u32(leak.taint);
    w.put_str(leak.data);
    w.put_u32(leak.pc);
  }
  w.put_u32(static_cast<u32>(r.framework_leaks.size()));
  for (const taintdroid::LeakReport& leak : r.framework_leaks) {
    w.put_str(leak.sink);
    w.put_str(leak.destination);
    w.put_u32(leak.taint);
    w.put_str(leak.data);
  }

  w.put_u32(r.tamper_alerts);
  w.put_u64(r.summary_gate_skips);
  w.put_u32(r.checksum);
  w.put_str(r.market_type);
  w.put_str(r.first_leaking_method);
  w.put_u32(r.faulted_events);
  w.put_f64(r.timing.setup_ms);
  w.put_f64(r.timing.static_ms);
  w.put_f64(r.timing.run_ms);
  w.put_u32(r.retries);
  w.put_u64(r.cache_delta.hits);
  w.put_u64(r.cache_delta.misses);
  w.put_u64(r.cache_delta.rebinds);
  w.put_u64(r.cache_delta.store_hits);
  w.put_u64(r.cache_delta.store_writes);
  return w.take();
}

JobResult decode_result(std::span<const u8> payload) {
  serde::Reader rd(payload);
  JobResult r;
  r.spec.id = rd.get_u32();
  const u8 kind = rd.get_u8();
  if (kind > static_cast<u8>(JobKind::kFuzz)) {
    throw serde::DecodeError("bad job kind");
  }
  r.spec.kind = static_cast<JobKind>(kind);
  r.spec.name = rd.get_str();
  r.spec.rep = rd.get_u32();
  r.spec.iterations = rd.get_u32();
  r.spec.monkey_events = rd.get_u32();
  r.spec.monkey_seed = rd.get_u64();
  const u32 nlibs = rd.get_count(4);
  r.spec.native_libs.reserve(nlibs);
  for (u32 i = 0; i < nlibs; ++i) r.spec.native_libs.push_back(rd.get_str());

  r.worker = rd.get_u32();
  r.ok = rd.get_bool();
  r.error = rd.get_str();

  const u32 nnative = rd.get_count(4 * 4 + 4);
  r.native_leaks.reserve(nnative);
  for (u32 i = 0; i < nnative; ++i) {
    core::NativeLeak leak;
    leak.sink = rd.get_str();
    leak.destination = rd.get_str();
    leak.taint = rd.get_u32();
    leak.data = rd.get_str();
    leak.pc = rd.get_u32();
    r.native_leaks.push_back(std::move(leak));
  }
  const u32 nframework = rd.get_count(4 * 4);
  r.framework_leaks.reserve(nframework);
  for (u32 i = 0; i < nframework; ++i) {
    taintdroid::LeakReport leak;
    leak.sink = rd.get_str();
    leak.destination = rd.get_str();
    leak.taint = rd.get_u32();
    leak.data = rd.get_str();
    r.framework_leaks.push_back(std::move(leak));
  }

  r.tamper_alerts = rd.get_u32();
  r.summary_gate_skips = rd.get_u64();
  r.checksum = rd.get_u32();
  r.market_type = rd.get_str();
  r.first_leaking_method = rd.get_str();
  r.faulted_events = rd.get_u32();
  r.timing.setup_ms = rd.get_f64();
  r.timing.static_ms = rd.get_f64();
  r.timing.run_ms = rd.get_f64();
  r.retries = rd.get_u32();
  r.cache_delta.hits = rd.get_u64();
  r.cache_delta.misses = rd.get_u64();
  r.cache_delta.rebinds = rd.get_u64();
  r.cache_delta.store_hits = rd.get_u64();
  r.cache_delta.store_writes = rd.get_u64();
  rd.expect_end();
  return r;
}

std::vector<u8> encode_death(const DeathInfo& d) {
  serde::Writer w;
  w.put_u8(static_cast<u8>(d.cause));
  w.put_i32(d.value);
  return w.take();
}

DeathInfo decode_death(std::span<const u8> payload) {
  serde::Reader rd(payload);
  DeathInfo d;
  const u8 cause = rd.get_u8();
  if (cause > static_cast<u8>(DeathInfo::Cause::kProtocol)) {
    throw serde::DecodeError("bad death cause");
  }
  d.cause = static_cast<DeathInfo::Cause>(cause);
  d.value = rd.get_i32();
  rd.expect_end();
  return d;
}

std::vector<u8> encode_frame(u8 type, u32 job_index,
                             std::span<const u8> payload) {
  serde::Writer w;
  w.put_u32(kFrameMagic);
  w.put_u8(type);
  w.put_u32(job_index);
  w.put_u64(payload.size());
  w.put_bytes(payload);
  w.put_u64(static_analysis::fnv1a(payload));
  return w.take();
}

std::optional<Frame> take_frame(std::vector<u8>& buf) {
  constexpr std::size_t kHeader = 4 + 1 + 4 + 8;
  if (buf.size() < kHeader) return std::nullopt;
  serde::Reader rd(std::span<const u8>(buf.data(), kHeader));
  if (rd.get_u32() != kFrameMagic) throw serde::DecodeError("bad frame magic");
  Frame f;
  f.type = rd.get_u8();
  if (f.type != kFrameResult && f.type != kFrameDeath) {
    throw serde::DecodeError("bad frame type");
  }
  f.job_index = rd.get_u32();
  const u64 len = rd.get_u64();
  if (len > kMaxPayload) throw serde::DecodeError("frame payload too large");
  const std::size_t total = kHeader + static_cast<std::size_t>(len) + 8;
  if (buf.size() < total) return std::nullopt;
  f.payload.assign(buf.begin() + kHeader, buf.begin() + kHeader + len);
  serde::Reader tail(
      std::span<const u8>(buf.data() + kHeader + len, std::size_t{8}));
  if (tail.get_u64() != static_analysis::fnv1a(f.payload)) {
    throw serde::DecodeError("frame hash mismatch");
  }
  buf.erase(buf.begin(), buf.begin() + total);
  return f;
}

}  // namespace wire

namespace {

using static_analysis::SummaryCache;

bool write_all(int fd, const u8* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool write_all(int fd, const std::vector<u8>& bytes) {
  return write_all(fd, bytes.data(), bytes.size());
}

/// Reads exactly `len` bytes; false on EOF or error.
bool read_exact(int fd, u8* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::read(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

void alarm_handler(int) { _exit(wire::kTimeoutExit); }

/// The job process: runs exactly one job against the inherited
/// copy-on-write substrate, writes one result frame, and exits without
/// running destructors (_exit — this address space is a fork disposable).
[[noreturn]] void job_process_main(int out_fd, u32 index, const JobSpec& spec,
                                   const FarmOptions& opts,
                                   SummaryCache* cache,
                                   android::Device* snapshot) {
  if (opts.job_timeout_ms > 0) {
    struct sigaction sa {};
    sa.sa_handler = &alarm_handler;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGALRM, &sa, nullptr);
    itimerval timer{};
    timer.it_value.tv_sec = opts.job_timeout_ms / 1000;
    timer.it_value.tv_usec =
        static_cast<long>(opts.job_timeout_ms % 1000) * 1000;
    ::setitimer(ITIMER_REAL, &timer, nullptr);
  }
  if (opts.fault_hook) opts.fault_hook(spec);

  const SummaryCache::Stats cache_before =
      cache != nullptr ? cache->stats() : SummaryCache::Stats{};
  const static_analysis::SummaryStore::Stats store_before =
      (cache == nullptr && opts.store != nullptr)
          ? opts.store->stats()
          : static_analysis::SummaryStore::Stats{};

  JobResult r = run_job(spec, cache, opts, snapshot);

  // Jobs run sequentially in this process, so the counter deltas are exactly
  // this job's activity; they ship home in the frame because this process's
  // memory (cache included) diverged from the supervisor's at fork.
  if (cache != nullptr) {
    const SummaryCache::Stats after = cache->stats();
    r.cache_delta.hits = after.hits - cache_before.hits;
    r.cache_delta.misses = after.misses - cache_before.misses;
    r.cache_delta.rebinds = after.rebinds - cache_before.rebinds;
    r.cache_delta.store_hits = after.store_hits - cache_before.store_hits;
    r.cache_delta.store_writes = after.store_writes - cache_before.store_writes;
  } else if (opts.store != nullptr) {
    const static_analysis::SummaryStore::Stats after = opts.store->stats();
    r.cache_delta.store_hits = after.hits - store_before.hits;
    r.cache_delta.store_writes = after.writes - store_before.writes;
  }

  const std::vector<u8> payload = wire::encode_result(r);
  const std::vector<u8> frame =
      wire::encode_frame(wire::kFrameResult, index, payload);
  write_all(out_fd, frame);
  _exit(0);
}

/// Classifies a dead job process from its wait status.
wire::DeathInfo classify_death(int status, u32 timeout_ms) {
  wire::DeathInfo d;
  if (WIFSIGNALED(status)) {
    d.cause = wire::DeathInfo::Cause::kSignal;
    d.value = WTERMSIG(status);
  } else if (WIFEXITED(status) && WEXITSTATUS(status) == wire::kTimeoutExit) {
    d.cause = wire::DeathInfo::Cause::kTimeout;
    d.value = static_cast<i32>(timeout_ms);
  } else {
    d.cause = wire::DeathInfo::Cause::kProtocol;
    d.value = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  return d;
}

/// The zygote worker: builds the template substrate once, then serves job
/// indices read off the job pipe, forking one job process per job and
/// forwarding (or synthesizing) exactly one frame per job upstream.
[[noreturn]] void zygote_main(int job_fd, int res_fd,
                              const std::vector<JobSpec>& jobs,
                              const FarmOptions& opts, SummaryCache* cache) {
  // The expensive part of setup_ms, paid once per worker instead of once
  // per job: every job process forks a pristine copy-on-write copy.
  // (Skipped for the zygote_template=false ablation.)
  std::optional<android::Device> template_device;
  if (opts.zygote_template) template_device.emplace();

  for (;;) {
    u8 le[4];
    if (!read_exact(job_fd, le, 4)) _exit(0);  // EOF: supervisor shutdown
    const u32 index = static_cast<u32>(le[0]) | (static_cast<u32>(le[1]) << 8) |
                      (static_cast<u32>(le[2]) << 16) |
                      (static_cast<u32>(le[3]) << 24);
    if (index >= jobs.size()) _exit(3);

    int job_pipe[2];
    if (::pipe(job_pipe) != 0) _exit(4);
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::close(job_pipe[0]);
      ::close(job_fd);
      // Critical: if this copy kept the result-pipe write end open, the
      // supervisor could never see the zygote's death as EOF.
      ::close(res_fd);
      job_process_main(job_pipe[1], index, jobs[index], opts, cache,
                       template_device ? &*template_device : nullptr);
    }
    ::close(job_pipe[1]);

    std::vector<u8> buf;
    if (pid > 0) {
      u8 chunk[4096];
      for (;;) {
        const ssize_t n = ::read(job_pipe[0], chunk, sizeof chunk);
        if (n < 0) {
          if (errno == EINTR) continue;
          break;
        }
        if (n == 0) break;
        buf.insert(buf.end(), chunk, chunk + n);
      }
    }
    ::close(job_pipe[0]);

    int status = 0;
    if (pid > 0) {
      while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
    }

    // A clean result is a single well-framed payload for this job and
    // nothing else; anything short of that is a death. The frame is
    // validated here, next to the corpse, so a job killed mid-write can
    // never leak a torn frame into the supervisor's stream.
    std::vector<u8> out;
    bool valid = false;
    if (pid > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      try {
        std::vector<u8> scratch = buf;
        const std::optional<wire::Frame> f = wire::take_frame(scratch);
        valid = f.has_value() && f->type == wire::kFrameResult &&
                f->job_index == index && scratch.empty();
      } catch (const serde::DecodeError&) {
        valid = false;
      }
    }
    if (valid) {
      out = std::move(buf);
    } else {
      const wire::DeathInfo d =
          pid > 0 ? classify_death(status, opts.job_timeout_ms)
                  : wire::DeathInfo{wire::DeathInfo::Cause::kProtocol, -2};
      out = wire::encode_frame(wire::kFrameDeath, index, wire::encode_death(d));
      // Job processes that died are worker deaths too; the supervisor
      // counts them when it sees the death frame.
    }
    if (!write_all(res_fd, out)) _exit(0);  // supervisor gone
  }
}

struct Slot {
  pid_t pid = -1;
  int job_fd = -1;  // supervisor -> zygote: 4-byte LE job indices
  int res_fd = -1;  // zygote -> supervisor: frames
  i64 job = -1;     // index in flight, -1 when idle
  std::vector<u8> buf;
};

void close_slot(Slot& slot) {
  if (slot.job_fd >= 0) ::close(slot.job_fd);
  if (slot.res_fd >= 0) ::close(slot.res_fd);
  slot.job_fd = -1;
  slot.res_fd = -1;
}

}  // namespace

FarmReport run_farm_processes(const std::vector<JobSpec>& jobs,
                              const FarmOptions& options,
                              static_analysis::SummaryCache* cache) {
  FarmReport report;
  report.processes = options.processes;
  if (jobs.empty()) return report;

  // A worker that dies mid-conversation must surface as a failed write/read
  // on our side, never as a fatal SIGPIPE. Restored on exit.
  struct sigaction ignore_pipe {}, old_pipe {};
  ignore_pipe.sa_handler = SIG_IGN;
  sigemptyset(&ignore_pipe.sa_mask);
  ::sigaction(SIGPIPE, &ignore_pipe, &old_pipe);

  const u32 nslots = std::min<u32>(
      options.processes, static_cast<u32>(jobs.size()));
  std::vector<Slot> slots(nslots);

  const auto spawn = [&](u32 s) -> bool {
    int jp[2] = {-1, -1};
    int rp[2] = {-1, -1};
    if (::pipe(jp) != 0) return false;
    if (::pipe(rp) != 0) {
      ::close(jp[0]);
      ::close(jp[1]);
      return false;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(jp[0]);
      ::close(jp[1]);
      ::close(rp[0]);
      ::close(rp[1]);
      return false;
    }
    if (pid == 0) {
      ::close(jp[1]);
      ::close(rp[0]);
      // Inherited supervisor-side ends of earlier slots: holding a copy of
      // another slot's job pipe would keep that zygote alive past shutdown.
      for (Slot& other : slots) close_slot(other);
      place_worker(s);  // its job processes are forked where it runs
      zygote_main(jp[0], rp[1], jobs, options, cache);
    }
    ::close(jp[0]);
    ::close(rp[1]);
    slots[s].pid = pid;
    slots[s].job_fd = jp[1];
    slots[s].res_fd = rp[0];
    slots[s].job = -1;
    slots[s].buf.clear();
    return true;
  };

  std::deque<u32> pending;
  for (u32 i = 0; i < jobs.size(); ++i) pending.push_back(i);
  std::vector<u32> attempts(jobs.size(), 0);
  std::size_t completed = 0;

  const auto finish = [&](JobResult r) {
    aggregate_result(report, std::move(r));
    ++completed;
  };

  // A job lost its process: requeue once, then fail deterministically. The
  // retry lands in report.retries via the eventual result's retries field
  // (attempts - 1), which aggregate_result folds in.
  const auto lose_job = [&](u32 j, const std::string& why) {
    if (attempts[j] < 2) {
      pending.push_back(j);
      return;
    }
    JobResult r;
    r.spec = jobs[j];
    r.ok = false;
    r.error = why;
    r.retries = attempts[j] - 1;
    finish(std::move(r));
  };

  const auto death_reason = [&](const wire::DeathInfo& d) -> std::string {
    switch (d.cause) {
      case wire::DeathInfo::Cause::kSignal:
        return "job process killed by signal " + std::to_string(d.value);
      case wire::DeathInfo::Cause::kTimeout:
        return "job deadline exceeded (" + std::to_string(d.value) + " ms)";
      case wire::DeathInfo::Cause::kProtocol:
        return "job process exited without a result (status " +
               std::to_string(d.value) + ")";
    }
    return "job process lost";
  };

  const auto assign = [&](u32 s) {
    if (pending.empty() || slots[s].pid < 0 || slots[s].job >= 0) return;
    const u32 j = pending.front();
    pending.pop_front();
    ++attempts[j];
    slots[s].job = j;
    const u8 le[4] = {static_cast<u8>(j), static_cast<u8>(j >> 8),
                      static_cast<u8>(j >> 16), static_cast<u8>(j >> 24)};
    // A failed write means the zygote already died; the EOF on its result
    // pipe surfaces in the next poll round and handles the loss.
    write_all(slots[s].job_fd, le, 4);
  };

  // A slot whose zygote is gone: reap it, salvage its in-flight job, and
  // respawn while work remains.
  const auto slot_died = [&](u32 s, const std::string& why) {
    ++report.worker_deaths;
    if (slots[s].pid > 0) {
      ::kill(slots[s].pid, SIGKILL);
      int status = 0;
      while (::waitpid(slots[s].pid, &status, 0) < 0 && errno == EINTR) {
      }
    }
    close_slot(slots[s]);
    slots[s].pid = -1;
    slots[s].buf.clear();
    if (slots[s].job >= 0) {
      const u32 j = static_cast<u32>(slots[s].job);
      slots[s].job = -1;
      lose_job(j, why);
    }
    if (completed < jobs.size()) spawn(s);
  };

  for (u32 s = 0; s < nslots; ++s) spawn(s);

  while (completed < jobs.size()) {
    for (u32 s = 0; s < nslots; ++s) assign(s);

    std::vector<pollfd> fds;
    std::vector<u32> fd_slot;
    for (u32 s = 0; s < nslots; ++s) {
      if (slots[s].pid < 0) continue;
      fds.push_back(pollfd{slots[s].res_fd, POLLIN, 0});
      fd_slot.push_back(s);
    }
    if (fds.empty()) break;  // no live workers and nothing respawnable

    const int n = ::poll(fds.data(), fds.size(), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }

    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const u32 s = fd_slot[i];
      u8 chunk[4096];
      const ssize_t got = ::read(slots[s].res_fd, chunk, sizeof chunk);
      if (got < 0) {
        if (errno == EINTR || errno == EAGAIN) continue;
        slot_died(s, "worker process died");
        continue;
      }
      if (got == 0) {
        slot_died(s, "worker process died");
        continue;
      }
      slots[s].buf.insert(slots[s].buf.end(), chunk, chunk + got);

      try {
        while (std::optional<wire::Frame> f = wire::take_frame(slots[s].buf)) {
          if (slots[s].job < 0 ||
              f->job_index != static_cast<u32>(slots[s].job)) {
            throw serde::DecodeError("frame for a job this slot doesn't own");
          }
          const u32 j = f->job_index;
          slots[s].job = -1;
          if (f->type == wire::kFrameResult) {
            JobResult r = wire::decode_result(f->payload);
            r.worker = s;
            r.retries = attempts[j] - 1;
            finish(std::move(r));
          } else {
            const wire::DeathInfo d = wire::decode_death(f->payload);
            ++report.worker_deaths;
            lose_job(j, death_reason(d));
          }
          assign(s);
        }
      } catch (const serde::DecodeError&) {
        // Corrupt stream: nothing downstream of it can be trusted.
        slot_died(s, "worker result stream corrupt");
      }
    }
  }

  // Shutdown: EOF on the job pipes sends every zygote to _exit(0).
  for (Slot& slot : slots) {
    if (slot.job_fd >= 0) {
      ::close(slot.job_fd);
      slot.job_fd = -1;
    }
  }
  for (Slot& slot : slots) {
    if (slot.pid > 0) {
      int status = 0;
      while (::waitpid(slot.pid, &status, 0) < 0 && errno == EINTR) {
      }
    }
    close_slot(slot);
  }
  ::sigaction(SIGPIPE, &old_pipe, nullptr);

  // Jobs no process could complete (e.g. fork failures drained every slot):
  // anything that never produced a result is failed deterministically so the
  // report always carries one entry per job.
  if (completed < jobs.size()) {
    std::vector<bool> reported(jobs.size(), false);
    for (const JobResult& r : report.results) {
      for (u32 j = 0; j < jobs.size(); ++j) {
        if (!reported[j] && jobs[j].id == r.spec.id &&
            jobs[j].rep == r.spec.rep) {
          reported[j] = true;
          break;
        }
      }
    }
    for (u32 j = 0; j < jobs.size(); ++j) {
      if (reported[j]) continue;
      JobResult r;
      r.spec = jobs[j];
      r.ok = false;
      r.error = "no worker process available";
      finish(std::move(r));
    }
  }

  return report;
}

}  // namespace ndroid::farm
