// Ablation study over NDroid's efficiency mechanisms (paper §VI-E credits
// these for NDroid's advantage over instruction-level tracking):
//   * modelling standard library functions (Table VI) instead of tracing
//     their instructions;
//   * caching hot instruction -> handler mappings (§V-C);
//   * multilevel hooking to avoid instrumenting dvmCallMethod*/dvmInterpret
//     on system-initiated invocations (§V-B, Fig. 5).
//
// Each ablation must preserve detection (when applicable) while costing
// time; the libc-heavy workload stresses the model/no-model distinction.
#include <chrono>
#include <cstdio>
#include <memory>

#include "apps/cfbench.h"
#include "apps/leak_cases.h"
#include "apps/native_lib_builder.h"
#include "core/ndroid.h"

using namespace ndroid;

namespace {

/// A libc-heavy native workload: per iteration, strcpy + strlen + memcpy
/// over a 64-byte string (the profile the Table VI models accelerate).
dvm::Method* build_libc_workload(android::Device& device) {
  apps::NativeLibBuilder lib(device, "liblibcbench.so");
  auto& a = lib.a();
  using arm::Cond;
  using arm::Label;
  using arm::LR;
  using arm::PC;
  using arm::R;

  const GuestAddr src = lib.cstr(
      "0123456789012345678901234567890123456789012345678901234567890123");
  const GuestAddr dst = lib.buffer(128);
  const GuestAddr strcpy_fn = device.libc.fn("strcpy");
  const GuestAddr strlen_fn = device.libc.fn("strlen");
  const GuestAddr memcpy_fn = device.libc.fn("memcpy");

  const GuestAddr fn = lib.fn();
  Label loop, done;
  a.push({R(4), LR});
  a.mov(R(4), R(2));
  a.bind(loop);
  a.cmp_imm(R(4), 0);
  a.b(done, Cond::kEQ);
  a.mov_imm32(R(0), dst);
  a.mov_imm32(R(1), src);
  a.call(strcpy_fn);
  a.mov_imm32(R(0), dst);
  a.call(strlen_fn);
  a.mov(R(2), R(0));
  a.mov_imm32(R(0), dst);
  a.mov_imm32(R(1), src);
  a.call(memcpy_fn);
  a.sub_imm(R(4), R(4), 1);
  a.b(loop);
  a.bind(done);
  a.mov_imm(R(0), 0);
  a.pop({R(4), PC});
  lib.install();

  dvm::ClassObject* cls = device.dvm.define_class("Lablation/LibcBench;");
  return device.dvm.define_native(cls, "run", "II",
                                  dvm::kAccPublic | dvm::kAccStatic, fn);
}

double time_run(const std::function<void()>& fn, int reps) {
  fn();  // warm-up
  double best = 1e9;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

struct Variant {
  const char* name;
  core::NDroidConfig config;
};

}  // namespace

int main(int argc, char** argv) {
  const int reps = argc > 1 ? std::atoi(argv[1]) : 5;
  const u32 iters = 600;

  core::NDroidConfig full;
  core::NDroidConfig no_models;
  no_models.syslib_models = false;
  no_models.scope = core::NDroidConfig::Scope::kThirdPartyAndLibc;
  core::NDroidConfig no_cache;
  no_cache.handler_cache = false;
  core::NDroidConfig no_multilevel;
  no_multilevel.multilevel_hooking = false;

  const Variant variants[] = {
      {"NDroid (full)", full},
      {"no libc models (trace libc)", no_models},
      {"no handler cache", no_cache},
      {"no multilevel hooking", no_multilevel},
  };

  std::printf("Ablation — libc-heavy native workload, %u iterations\n\n",
              iters);
  double baseline = 0;
  for (const Variant& v : variants) {
    android::Device device;
    // Pin the interpreter: the ablations compare *per-hook* costs (handler
    // cache, models, multilevel gating), which the block tiers'
    // taint-liveness fast path would mask on untainted stretches.
    device.cpu.set_engine(arm::Engine::kInterp);
    core::NDroid nd(device, v.config);
    dvm::Method* workload = build_libc_workload(device);
    const double t = time_run(
        [&] { device.dvm.call(*workload, {dvm::Slot{iters, 0}}); }, reps);
    if (baseline == 0) baseline = t;
    std::printf("%-30s %8.2f ms   (%.2fx of full NDroid)   traced=%llu\n",
                v.name, 1e3 * t, t / baseline,
                static_cast<unsigned long long>(
                    nd.tracer().instructions_traced()));
  }

  // Detection must survive every ablation (case-1' exercises models).
  std::printf("\ndetection under ablation (case 1'):\n");
  bool all_detect = true;
  for (const Variant& v : variants) {
    android::Device device;
    core::NDroid nd(device, v.config);
    const apps::LeakScenario s = apps::build_case1_prime(device);
    device.dvm.call(*s.entry, {});
    const bool detected = !device.framework.leaks().empty();
    std::printf("  %-30s %s\n", v.name, detected ? "detected" : "MISSED");
    all_detect = all_detect && detected;
  }

  // Multilevel hooking ablation (§V-B): "Since the methods dvmCallMethod*
  // and dvmInterpret may also be invoked by other codes rather than the
  // native codes under investigation, the overhead will be high if we hook
  // these two functions whenever they are called." We reproduce that
  // system-initiated traffic with a caller loop that lives INSIDE libdvm
  // (so condition T1 never holds): with multilevel hooking the chain gate
  // skips the instrumentation; without it the full method-struct parsing
  // and frame scanning run on every invocation.
  std::printf("\nmultilevel hooking vs system-initiated dvmCallMethodV "
              "traffic (1000 calls):\n");
  double ml_on = 0, ml_off = 0;
  for (const bool multilevel : {true, false}) {
    android::Device device;
    device.cpu.set_engine(arm::Engine::kInterp);  // same pin as above
    core::NDroidConfig cfg;
    cfg.multilevel_hooking = multilevel;
    core::NDroid nd(device, cfg);

    // void tick() {} — the Java callback the "system" keeps invoking.
    dvm::ClassObject* cls = device.dvm.define_class("Lsystem/Ticker;");
    dvm::CodeBuilder cb;
    cb.return_void();
    dvm::Method* tick = device.dvm.define_method(
        cls, "tick", "V", dvm::kAccPublic | dvm::kAccStatic, 1, cb.take());

    // Caller stub assembled into libdvm.so (NOT third-party code).
    arm::Assembler a(0);
    {
      using arm::Cond;
      using arm::Label;
      using arm::LR;
      using arm::PC;
      using arm::R;
      using arm::SP;
      Label loop, done;
      a.push({R(4), R(5), LR});
      a.mov(R(4), R(0));  // iterations
      a.mov_imm32(R(5), tick->guest_addr);
      a.bind(loop);
      a.cmp_imm(R(4), 0);
      a.b(done, Cond::kEQ);
      a.sub_imm(SP, SP, 8);
      a.mov(R(0), R(5));
      a.mov_imm(R(1), 0);   // no receiver (static)
      a.mov(R(2), SP);      // result slot
      a.mov_imm(R(3), 0);   // no args
      a.call(device.dvm.call_method_stub('V'));
      a.add_imm(SP, SP, 8);
      a.sub_imm(R(4), R(4), 1);
      a.b(loop);
      a.bind(done);
      a.pop({R(4), R(5), PC});
    }
    const auto code = a.finish();
    const GuestAddr caller =
        device.dvm.stub_alloc("system_callback_driver", code);

    const double t = time_run(
        [&] { device.cpu.call_function(caller, {1000}); }, reps);
    std::printf("  multilevel %-3s  %8.3f ms\n", multilevel ? "on" : "off",
                1e3 * t);
    (multilevel ? ml_on : ml_off) = t;
  }
  std::printf("  unconditional hooking costs %.2fx of chain-gated hooking\n",
              ml_off / ml_on);

  return all_detect ? 0 : 1;
}
