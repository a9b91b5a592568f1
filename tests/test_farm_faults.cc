// Fault-injection battery for the crash-isolated process farm
// (src/farm/process_pool): a job that abort()s, SIGKILLs its zygote, or
// blows its deadline must cost exactly that job — retried once, then marked
// failed — while every other job's outcome stays bit-identical to a clean
// run. Also covers the framed wire protocol the supervisor trusts: torn,
// truncated, and bit-flipped frames must be rejected, never decoded.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/serde.h"
#include "farm/farm.h"
#include "farm/process_pool.h"
#include "farm/providers.h"

// The fork-based pool is incompatible with TSan's runtime (its background
// thread makes every fork a multithreaded fork); the supervisor/channel
// paths still get TSan coverage through the thread-mode farm tests.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define NDROID_NO_FORK_TESTS 1
#endif
#endif
#if !defined(NDROID_NO_FORK_TESTS) && defined(__SANITIZE_THREAD__)
#define NDROID_NO_FORK_TESTS 1
#endif

#ifdef NDROID_NO_FORK_TESTS
#define SKIP_IF_NO_FORK() \
  GTEST_SKIP() << "fork-based process pool tests skipped under TSan"
#else
#define SKIP_IF_NO_FORK() (void)0
#endif

namespace ndroid {
namespace {

std::vector<farm::JobSpec> fault_mix() {
  std::vector<farm::JobSpec> jobs = farm::table1_jobs();
  for (u32 i = 0; i < static_cast<u32>(jobs.size()); ++i) jobs[i].id = i;
  return jobs;
}

/// The id of the job the fault hooks target (a middle job, so failures
/// can't hide behind batch-edge effects).
u32 target_id(const std::vector<farm::JobSpec>& jobs) {
  return jobs[jobs.size() / 2].id;
}

const std::string& target_name(const std::vector<farm::JobSpec>& jobs) {
  return jobs[jobs.size() / 2].name;
}

/// Drops the digest line of job `id`, leaving every other job's outcome for
/// byte-comparison against a clean run.
std::string digest_without(const std::string& digest, u32 id) {
  std::istringstream in(digest);
  std::ostringstream out;
  std::string line;
  const std::string prefix = "#" + std::to_string(id) + " ";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) out << line << '\n';
  }
  return out.str();
}

std::string make_temp_dir() {
  char tmpl[] = "/tmp/ndroid_faults_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

const farm::JobResult* find_job(const farm::FarmReport& report, u32 id) {
  for (const farm::JobResult& r : report.results) {
    if (r.spec.id == id) return &r;
  }
  return nullptr;
}

std::string clean_digest(const std::vector<farm::JobSpec>& jobs) {
  farm::FarmOptions serial;
  return farm::run_farm(jobs, serial).leak_digest();
}

TEST(FarmFaults, AbortingJobIsRetriedOnceAndSucceeds) {
  SKIP_IF_NO_FORK();
  const std::vector<farm::JobSpec> jobs = fault_mix();
  const std::string reference = clean_digest(jobs);

  // The fault must strike exactly one attempt. The hook runs in a freshly
  // forked job process whose memory dies with it, so the "already fired"
  // bit lives on the filesystem: O_EXCL creation is atomic and visible to
  // every later attempt regardless of which worker runs it.
  const std::string marker = make_temp_dir() + "/fired";
  const std::string victim = target_name(jobs);
  farm::FarmOptions opts;
  opts.processes = 2;
  opts.fault_hook = [marker, victim](const farm::JobSpec& spec) {
    if (spec.name != victim) return;
    const int fd = ::open(marker.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd >= 0) {
      ::close(fd);
      std::abort();
    }
  };

  const farm::FarmReport report = farm::run_farm(jobs, opts);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(report.retries, 1u);
  EXPECT_GE(report.worker_deaths, 1u);
  // The crash cost nothing observable: the full digest (including the
  // retried job) matches the clean serial run.
  EXPECT_EQ(report.leak_digest(), reference);

  const farm::JobResult* victim_result = find_job(report, target_id(jobs));
  ASSERT_NE(victim_result, nullptr);
  EXPECT_TRUE(victim_result->ok) << victim_result->error;
  EXPECT_EQ(victim_result->retries, 1u);
}

TEST(FarmFaults, PersistentlyCrashingJobIsMarkedFailedOthersUnaffected) {
  SKIP_IF_NO_FORK();
  const std::vector<farm::JobSpec> jobs = fault_mix();
  const std::string reference = clean_digest(jobs);
  const u32 victim_id = target_id(jobs);

  const std::string victim = target_name(jobs);
  farm::FarmOptions opts;
  opts.processes = 2;
  opts.fault_hook = [victim](const farm::JobSpec& spec) {
    if (spec.name == victim) std::abort();
  };

  const farm::FarmReport report = farm::run_farm(jobs, opts);
  EXPECT_EQ(report.failures, 1u);
  EXPECT_EQ(report.retries, 1u);         // retried once...
  EXPECT_EQ(report.worker_deaths, 2u);   // ...and both attempts died
  EXPECT_EQ(report.jobs, jobs.size());   // one result per job regardless

  const farm::JobResult* victim_result = find_job(report, victim_id);
  ASSERT_NE(victim_result, nullptr);
  EXPECT_FALSE(victim_result->ok);
  EXPECT_NE(victim_result->error.find("signal"), std::string::npos)
      << victim_result->error;
  EXPECT_EQ(victim_result->retries, 1u);

  // Every surviving job's outcome is bit-identical to the clean run.
  EXPECT_EQ(digest_without(report.leak_digest(), victim_id),
            digest_without(reference, victim_id));
}

TEST(FarmFaults, SigkilledZygoteLosesOnlyItsOwnJob) {
  SKIP_IF_NO_FORK();
  const std::vector<farm::JobSpec> jobs = fault_mix();
  const std::string reference = clean_digest(jobs);
  const u32 victim_id = target_id(jobs);

  // The hook runs in the job (grand-)child; its parent is the zygote
  // worker. SIGKILL gives the zygote no chance to synthesize a death frame
  // — the supervisor must detect the loss from raw EOF on the result pipe,
  // salvage the in-flight job, and respawn the slot.
  const std::string victim = target_name(jobs);
  farm::FarmOptions opts;
  opts.processes = 2;
  opts.fault_hook = [victim](const farm::JobSpec& spec) {
    if (spec.name == victim) ::kill(::getppid(), SIGKILL);
  };

  const farm::FarmReport report = farm::run_farm(jobs, opts);
  EXPECT_EQ(report.failures, 1u);
  EXPECT_EQ(report.retries, 1u);
  EXPECT_GE(report.worker_deaths, 2u);  // both attempts took a zygote down
  EXPECT_EQ(report.jobs, jobs.size());

  const farm::JobResult* victim_result = find_job(report, victim_id);
  ASSERT_NE(victim_result, nullptr);
  EXPECT_FALSE(victim_result->ok);
  EXPECT_NE(victim_result->error.find("worker process died"),
            std::string::npos)
      << victim_result->error;

  EXPECT_EQ(digest_without(report.leak_digest(), victim_id),
            digest_without(reference, victim_id));
}

TEST(FarmFaults, DeadlineExceededJobIsRetriedThenMarkedFailed) {
  SKIP_IF_NO_FORK();
  const std::vector<farm::JobSpec> jobs = fault_mix();
  const std::string reference = clean_digest(jobs);
  const u32 victim_id = target_id(jobs);

  const std::string victim = target_name(jobs);
  farm::FarmOptions opts;
  opts.processes = 2;
  opts.job_timeout_ms = 500;
  opts.fault_hook = [victim](const farm::JobSpec& spec) {
    // pause() burns no CPU while it waits for the SIGALRM the deadline
    // arms; if the deadline machinery were broken this would hang the test
    // rather than silently pass.
    if (spec.name == victim) {
      for (;;) ::pause();
    }
  };

  const farm::FarmReport report = farm::run_farm(jobs, opts);
  EXPECT_EQ(report.failures, 1u);
  EXPECT_EQ(report.retries, 1u);
  EXPECT_EQ(report.worker_deaths, 2u);

  const farm::JobResult* victim_result = find_job(report, victim_id);
  ASSERT_NE(victim_result, nullptr);
  EXPECT_FALSE(victim_result->ok);
  EXPECT_NE(victim_result->error.find("deadline exceeded"), std::string::npos)
      << victim_result->error;

  // Every non-spinning job finished well inside the deadline, unperturbed.
  EXPECT_EQ(digest_without(report.leak_digest(), victim_id),
            digest_without(reference, victim_id));
}

// --- wire protocol hardening (no forks; runs everywhere incl. TSan) ---------

farm::JobResult sample_result() {
  farm::JobResult r;
  r.spec.id = 42;
  r.spec.kind = farm::JobKind::kLeakCase;
  r.spec.name = "case 3";
  r.spec.rep = 1;
  r.spec.monkey_seed = 0xDEADBEEFCAFEull;
  r.spec.native_libs = {"libcrypto.so", "libhello.so"};
  r.ok = true;
  r.checksum = 0x1234;
  r.summary_gate_skips = 99;
  core::NativeLeak nl;
  nl.sink = "sendto";
  nl.destination = "10.0.0.1:80";
  nl.taint = 0x5;
  nl.data = "imei=490154203237518";
  nl.pc = 0x10040;
  r.native_leaks.push_back(nl);
  taintdroid::LeakReport fl;
  fl.sink = "OutputStream.write";
  fl.destination = "socket";
  fl.taint = 0x2;
  fl.data = "lat,long";
  r.framework_leaks.push_back(fl);
  r.timing.setup_ms = 1.5;
  r.timing.static_ms = 2.25;
  r.timing.run_ms = 3.75;
  r.retries = 1;
  r.faulted_events = 3;
  r.cache_delta.hits = 7;
  r.cache_delta.store_hits = 3;
  return r;
}

TEST(FarmWire, ResultRoundTripsThroughFrame) {
  const farm::JobResult r = sample_result();
  const std::vector<u8> payload = farm::wire::encode_result(r);
  std::vector<u8> buf =
      farm::wire::encode_frame(farm::wire::kFrameResult, 42, payload);

  const std::optional<farm::wire::Frame> f = farm::wire::take_frame(buf);
  ASSERT_TRUE(f.has_value());
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(f->type, farm::wire::kFrameResult);
  EXPECT_EQ(f->job_index, 42u);

  const farm::JobResult back = farm::wire::decode_result(f->payload);
  EXPECT_EQ(back.spec.id, r.spec.id);
  EXPECT_EQ(back.spec.name, r.spec.name);
  EXPECT_EQ(back.spec.native_libs, r.spec.native_libs);
  EXPECT_EQ(back.ok, r.ok);
  EXPECT_EQ(back.checksum, r.checksum);
  ASSERT_EQ(back.native_leaks.size(), 1u);
  EXPECT_EQ(back.native_leaks[0].data, "imei=490154203237518");
  ASSERT_EQ(back.framework_leaks.size(), 1u);
  EXPECT_EQ(back.framework_leaks[0].sink, "OutputStream.write");
  EXPECT_EQ(back.timing.static_ms, r.timing.static_ms);
  EXPECT_EQ(back.retries, 1u);
  EXPECT_EQ(back.faulted_events, 3u);
  EXPECT_EQ(back.cache_delta.hits, 7u);
  EXPECT_EQ(back.cache_delta.store_hits, 3u);
}

TEST(FarmWire, TruncatedFrameIsIncompleteNotGarbage) {
  const std::vector<u8> payload = farm::wire::encode_result(sample_result());
  const std::vector<u8> full =
      farm::wire::encode_frame(farm::wire::kFrameResult, 7, payload);

  // Every strict prefix must read as "incomplete" (nullopt) and leave the
  // buffer intact — a job killed mid-write shows up as exactly this.
  for (const std::size_t cut : {std::size_t{0}, std::size_t{4},
                                std::size_t{16}, full.size() - 1}) {
    std::vector<u8> buf(full.begin(), full.begin() + cut);
    EXPECT_EQ(farm::wire::take_frame(buf), std::nullopt) << "cut=" << cut;
    EXPECT_EQ(buf.size(), cut);
  }
}

TEST(FarmWire, CorruptFramesThrow) {
  const std::vector<u8> payload = farm::wire::encode_result(sample_result());

  {  // bad magic
    std::vector<u8> buf =
        farm::wire::encode_frame(farm::wire::kFrameResult, 7, payload);
    buf[0] ^= 0xFF;
    EXPECT_THROW(farm::wire::take_frame(buf), serde::DecodeError);
  }
  {  // bit flip inside the payload breaks the trailing hash
    std::vector<u8> buf =
        farm::wire::encode_frame(farm::wire::kFrameResult, 7, payload);
    buf[20] ^= 0x01;
    EXPECT_THROW(farm::wire::take_frame(buf), serde::DecodeError);
  }
  {  // unknown frame type
    std::vector<u8> buf =
        farm::wire::encode_frame(farm::wire::kFrameResult, 7, payload);
    buf[4] = 0x7F;
    EXPECT_THROW(farm::wire::take_frame(buf), serde::DecodeError);
  }
  {  // absurd payload length never allocates
    std::vector<u8> buf =
        farm::wire::encode_frame(farm::wire::kFrameResult, 7, payload);
    for (int i = 9; i < 17; ++i) buf[i] = 0xFF;
    EXPECT_THROW(farm::wire::take_frame(buf), serde::DecodeError);
  }
}

TEST(FarmWire, DeathInfoRoundTrips) {
  farm::wire::DeathInfo d;
  d.cause = farm::wire::DeathInfo::Cause::kTimeout;
  d.value = 500;
  const farm::wire::DeathInfo back =
      farm::wire::decode_death(farm::wire::encode_death(d));
  EXPECT_EQ(back.cause, farm::wire::DeathInfo::Cause::kTimeout);
  EXPECT_EQ(back.value, 500);

  std::vector<u8> bad = farm::wire::encode_death(d);
  bad[0] = 0x40;  // unknown cause
  EXPECT_THROW((void)farm::wire::decode_death(bad), serde::DecodeError);
}

}  // namespace
}  // namespace ndroid
