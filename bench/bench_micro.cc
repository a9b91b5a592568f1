// Microbenchmarks (google-benchmark) of the substrate hot paths that
// determine the Fig. 10 numbers: raw emulation speed, instruction-tracer
// cost, shadow-memory operations, and interpreter throughput.
//
// The BM_Mem* group covers the memory data plane (software TLB, page
// directory, word-granular shadow range ops); BM_ThreadedDispatch covers the
// block-dispatch loop. `--smoke` runs both with a short min-time so CI can
// catch crashes/asserts in benchmark code without perf gating.
#include <benchmark/benchmark.h>

#include <cstring>

#include "apps/cfbench.h"
#include "arm/assembler.h"
#include "core/ndroid.h"

using namespace ndroid;

namespace {

struct Env {
  android::Device device;
  apps::CfBenchApp bench;
  Env() : device("bench"), bench(device) {}
};

constexpr u64 kMipsInsnsPerIter = 1000 * 11;  // ~insns per bench.run(w, 1000)

void report_native_mips(benchmark::State& state, const arm::Cpu& cpu) {
  state.SetItemsProcessed(state.iterations() * kMipsInsnsPerIter);
  const core::PerfCounters perf = core::collect_perf(cpu);
  state.counters["tb_hit_rate"] = perf.tb_hit_rate();
  state.counters["ns_per_insn"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kMipsInsnsPerIter),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

/// Taint-free native loop, threaded tier (the default).
void BM_EmulatorNativeMips(benchmark::State& state) {
  Env env;
  const auto* w = env.bench.find("Native MIPS");
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.bench.run(*w, 1000));
  }
  report_native_mips(state, env.device.cpu);
}
BENCHMARK(BM_EmulatorNativeMips);

/// Taint-free native loop on the interpreter (`set_engine(kInterp)`): the
/// baseline for the emulator itself.
void BM_EmulatorNativeMipsInterp(benchmark::State& state) {
  Env env;
  env.device.cpu.set_engine(arm::Engine::kInterp);
  const auto* w = env.bench.find("Native MIPS");
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.bench.run(*w, 1000));
  }
  report_native_mips(state, env.device.cpu);
}
BENCHMARK(BM_EmulatorNativeMipsInterp);

/// Taint-free native loop with NDroid attached, threaded tier: the block gate
/// sees no live taint and skips all per-instruction work (fast path).
void BM_EmulatorNativeMipsTraced(benchmark::State& state) {
  Env env;
  core::NDroid nd(env.device);
  const auto* w = env.bench.find("Native MIPS");
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.bench.run(*w, 1000));
  }
  report_native_mips(state, env.device.cpu);
}
BENCHMARK(BM_EmulatorNativeMipsTraced);

/// NDroid attached on the interpreter: every instruction is hooked and
/// classified — the traced baseline. The acceptance target is
/// BM_EmulatorNativeMipsTraced >= 3x faster than this.
void BM_EmulatorNativeMipsTracedInterp(benchmark::State& state) {
  Env env;
  env.device.cpu.set_engine(arm::Engine::kInterp);
  core::NDroid nd(env.device);
  const auto* w = env.bench.find("Native MIPS");
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.bench.run(*w, 1000));
  }
  report_native_mips(state, env.device.cpu);
}
BENCHMARK(BM_EmulatorNativeMipsTracedInterp);

/// NDroid + threaded tier with live register taint: the liveness gate
/// cannot skip any in-scope block, so this measures per-instruction tracing
/// cost (Table V classification + propagation) on the fused trace streams.
void BM_EmulatorNativeMipsTracedTainted(benchmark::State& state) {
  Env env;
  core::NDroid nd(env.device);
  // Taint a callee-saved register the loop never writes: register liveness
  // stays non-zero forever and every block takes the traced path.
  nd.taint_engine().set_reg(4, 0x2);
  const auto* w = env.bench.find("Native MIPS");
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.bench.run(*w, 1000));
  }
  report_native_mips(state, env.device.cpu);
}
BENCHMARK(BM_EmulatorNativeMipsTracedTainted);

/// NDroid + threaded tier with live register taint and NO gating at all
/// (`taint_liveness_fastpath=false`, `static_summaries=false`): the seed
/// full-trace configuration. Baseline for the gating trio
/// recorded by scripts/bench.sh.
void BM_EmulatorNativeMipsTracedTaintedFull(benchmark::State& state) {
  Env env;
  core::NDroidConfig cfg;
  cfg.taint_liveness_fastpath = false;
  cfg.static_summaries = false;
  core::NDroid nd(env.device, cfg);
  nd.taint_engine().set_reg(4, 0x2);
  const auto* w = env.bench.find("Native MIPS");
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.bench.run(*w, 1000));
  }
  report_native_mips(state, env.device.cpu);
}
BENCHMARK(BM_EmulatorNativeMipsTracedTaintedFull);

/// Same live taint (r4 — outside nativeMips's Table V footprint r0-r3), but
/// with the static pre-analysis attached: the liveness gate alone cannot
/// skip (register taint is live), while the summary gate proves the
/// intersection empty and skips the whole loop. The speedup of this
/// benchmark over BM_EmulatorNativeMipsTracedTainted is the PR's
/// summary-gated acceptance ratio.
void BM_EmulatorNativeMipsTracedTaintedSummary(benchmark::State& state) {
  Env env;
  core::NDroid nd(env.device);
  nd.attach_static_analysis();
  nd.taint_engine().set_reg(4, 0x2);
  const auto* w = env.bench.find("Native MIPS");
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.bench.run(*w, 1000));
  }
  report_native_mips(state, env.device.cpu);
}
BENCHMARK(BM_EmulatorNativeMipsTracedTaintedSummary);

/// Pure threaded-dispatch kernel: a register-only counted loop on a bare
/// CPU — after the first iteration every block transition follows a patched
/// direct link, so this measures uop dispatch plus link-follow overhead
/// with no memory traffic and no analysis attached.
constexpr GuestAddr kDispatchCode = 0x10000;
constexpr u32 kDispatchIters = 4096;

void setup_dispatch_kernel(mem::AddressSpace& mem, mem::MemoryMap& map,
                           arm::Cpu& cpu) {
  map.add("code", kDispatchCode, 0x1000, mem::kRX);
  map.add("[stack]", 0x70000, 0x10000, mem::kRW);
  cpu.set_initial_sp(0x80000);
  arm::Assembler a(kDispatchCode);
  arm::Label loop, done;
  a.mov_imm(arm::R(1), 0);
  a.bind(loop);
  a.cmp_imm(arm::R(0), 0);
  a.b(done, arm::Cond::kEQ);
  a.add_imm(arm::R(1), arm::R(1), 3);
  a.eor(arm::R(1), arm::R(1), arm::R(0));
  a.sub_imm(arm::R(0), arm::R(0), 1);
  a.b(loop);
  a.bind(done);
  a.mov(arm::R(0), arm::R(1));
  a.ret();
  mem.write_bytes(kDispatchCode, a.finish());
}

/// `insns` is the measured retire count (instructions_retired() delta over
/// the timed loop), not an estimate — per-instruction figures stay honest
/// if the kernel or the call_function glue changes shape.
void report_dispatch(benchmark::State& state, const arm::Cpu& cpu,
                     u64 insns) {
  state.SetItemsProcessed(static_cast<int64_t>(insns));
  state.counters["ns_per_insn"] =
      benchmark::Counter(static_cast<double>(insns),
                         benchmark::Counter::kIsRate |
                             benchmark::Counter::kInvert);
  const core::PerfCounters perf = core::collect_perf(cpu);
  state.counters["threaded_links"] = static_cast<double>(perf.threaded_links);
}

void BM_ThreadedDispatch(benchmark::State& state) {
  mem::AddressSpace mem;
  mem::MemoryMap map;
  arm::Cpu cpu(mem, map);
  setup_dispatch_kernel(mem, map, cpu);
  const u64 before = cpu.instructions_retired();
  for (auto _ : state) {
    benchmark::DoNotOptimize(cpu.call_function(kDispatchCode,
                                               {kDispatchIters}));
  }
  report_dispatch(state, cpu, cpu.instructions_retired() - before);
}
BENCHMARK(BM_ThreadedDispatch);

void BM_InterpreterJavaMips(benchmark::State& state) {
  Env env;
  const auto* w = env.bench.find("Java MIPS");
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.bench.run(*w, 1000));
  }
  state.SetItemsProcessed(state.iterations() * 1000 * 9);  // bytecodes/iter
}
BENCHMARK(BM_InterpreterJavaMips);

void BM_ShadowMemorySetGet(benchmark::State& state) {
  mem::ShadowMemory shadow;
  u32 addr = 0;
  for (auto _ : state) {
    shadow.set(addr, 0x2);
    benchmark::DoNotOptimize(shadow.get(addr));
    addr = (addr + 4097) & 0xFFFFFF;
  }
}
BENCHMARK(BM_ShadowMemorySetGet);

void BM_ShadowMemoryRangeUnion(benchmark::State& state) {
  mem::ShadowMemory shadow;
  shadow.set_range(0x1000, 256, 0x4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(shadow.get_range(0x1000, 256));
  }
}
BENCHMARK(BM_ShadowMemoryRangeUnion);

void BM_GuestMemcpyModeled(benchmark::State& state) {
  Env env;
  core::NDroid nd(env.device);
  const GuestAddr src = 0x30100000, dst = 0x30200000;
  env.device.memory.fill(src, 0xAB, 256);
  nd.taint_engine().map().set_range(src, 256, 0x2);
  const GuestAddr memcpy_fn = env.device.libc.fn("memcpy");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        env.device.cpu.call_function(memcpy_fn, {dst, src, 256}));
  }
  state.SetBytesProcessed(state.iterations() * 256);
}
BENCHMARK(BM_GuestMemcpyModeled);

// --- Memory data plane (BM_Mem*) -------------------------------------------
//
// These isolate the guest-memory/shadow-memory layer the ISSUE 5 overhaul
// targets. Acceptance ratios (vs the pre-overhaul main, see EXPERIMENTS.md):
// >= 2x on BM_MemLoadStoreKernel, >= 4x on BM_MemTaintedMemcpy.

/// Word-copy guest kernel: 1024 iterations of LDR/STR post-index over a
/// 4 KiB buffer, threaded tier, no analysis attached — pure executor + guest
/// memory load/store cost (the softmmu fast path).
void BM_MemLoadStoreKernel(benchmark::State& state) {
  mem::AddressSpace mem;
  mem::MemoryMap map;
  arm::Cpu cpu(mem, map);
  map.add("code", 0x10000, 0x1000, mem::kRX);
  map.add("data", 0x20000, 0x4000, mem::kRW);
  map.add("[stack]", 0x70000, 0x10000, mem::kRW);
  cpu.set_initial_sp(0x80000);
  arm::Assembler a(0x10000);
  arm::Label loop, done;
  // r0 = words, r1 = src, r2 = dst
  a.bind(loop);
  a.cmp_imm(arm::R(0), 0);
  a.b(done, arm::Cond::kEQ);
  a.ldr_post(arm::R(3), arm::R(1), 4);
  a.str_post(arm::R(3), arm::R(2), 4);
  a.sub_imm(arm::R(0), arm::R(0), 1);
  a.b(loop);
  a.bind(done);
  a.ret();
  mem.write_bytes(0x10000, a.finish());
  mem.fill(0x20000, 0x5A, 0x1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cpu.call_function(0x10000, {1024, 0x20000, 0x21000}));
  }
  // 6 insns per copied word + call glue.
  state.SetItemsProcessed(state.iterations() * 1024 * 6);
  state.counters["ns_per_insn"] = benchmark::Counter(
      static_cast<double>(state.iterations() * 1024 * 6),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_MemLoadStoreKernel);

/// The data-plane cost of one tainted 4 KiB memcpy: what the Table VI
/// memcpy/memmove models and the guest copy itself ask of the shadow map and
/// the address space per call (shadow copy_range + guest byte copy).
void BM_MemTaintedMemcpy(benchmark::State& state) {
  mem::AddressSpace mem;
  mem::ShadowMemory shadow;
  const GuestAddr src = 0x100000, dst = 0x200000;
  mem.fill(src, 0xAB, 4096);
  shadow.set_range(src, 4096, 0x2);
  for (auto _ : state) {
    shadow.copy_range(dst, src, 4096);
    mem.copy(dst, src, 4096);
    benchmark::DoNotOptimize(shadow.get(dst + 4095));
  }
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_MemTaintedMemcpy);

/// Union over a sparse 64 KiB window (one tainted page in the middle):
/// get_range must skip clear/absent pages and word-reduce the live one.
void BM_MemShadowGetRange64K(benchmark::State& state) {
  mem::ShadowMemory shadow;
  shadow.set_range(0x108000, 4096, 0x4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(shadow.get_range(0x100000, 64 * 1024));
  }
  state.SetBytesProcessed(state.iterations() * 64 * 1024);
}
BENCHMARK(BM_MemShadowGetRange64K);

/// Summary-gate query over a multi-GiB window with sparse resident taint:
/// must walk resident directory leaves, not per-page-number probes.
void BM_MemAnyTaintedWide(benchmark::State& state) {
  mem::ShadowMemory shadow;
  shadow.set(0xF0000000, 0x2);  // one live byte far above the window
  for (auto _ : state) {
    benchmark::DoNotOptimize(shadow.any_tainted_in(0x10000000, 0xE0000000));
  }
}
BENCHMARK(BM_MemAnyTaintedWide);

/// 16 KiB NUL-terminated guest string: page-chunked memchr vs per-byte scan.
void BM_MemReadCstr(benchmark::State& state) {
  mem::AddressSpace mem;
  mem.fill(0x100000, 'x', 16 * 1024);
  mem.write8(0x100000 + 16 * 1024, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem.read_cstr(0x100000));
  }
  state.SetBytesProcessed(state.iterations() * 16 * 1024);
}
BENCHMARK(BM_MemReadCstr);

/// memset-shaped fill of 4 KiB guest memory (chunked vs per-byte write8).
void BM_MemFill4K(benchmark::State& state) {
  mem::AddressSpace mem;
  for (auto _ : state) {
    mem.fill(0x100000, 0xCD, 4096);
    benchmark::DoNotOptimize(mem.read8(0x100FFF));
  }
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_MemFill4K);

void BM_DalvikAllocation(benchmark::State& state) {
  auto device = std::make_unique<android::Device>("bench");
  for (auto _ : state) {
    benchmark::DoNotOptimize(device->dvm.new_string("benchmark-string"));
    if (device->dvm.heap().bytes_in_use() > 0x400000) {
      // The GC keeps every object alive (no liveness analysis in
      // this reproduction), so recycle the whole device outside the timer.
      state.PauseTiming();
      device = std::make_unique<android::Device>("bench");
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_DalvikAllocation);

}  // namespace

// `--smoke` (CI): run only the data-plane benchmarks, briefly, to fail on
// crash/assert without gating on performance.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  static char filter[] =
      "--benchmark_filter=BM_Mem|BM_Shadow|BM_GuestMemcpy|BM_Threaded";
  static char min_time[] = "--benchmark_min_time=0.05";
  for (auto& arg : args) {
    if (std::strcmp(arg, "--smoke") == 0) {
      arg = filter;
      args.push_back(min_time);
    }
  }
  int argc2 = static_cast<int>(args.size());
  benchmark::Initialize(&argc2, args.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
