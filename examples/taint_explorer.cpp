// Taint explorer: a tour of NDroid's public analysis surfaces on a hand
// written app — per-call SourcePolicies, the byte-granular taint map, shadow
// registers, the iref-keyed object shadow, the trace log, and the OS-level
// view reconstructor. This is the API a downstream analyst would script
// against.
#include <cstdio>

#include "apps/native_lib_builder.h"
#include "core/ndroid.h"
#include "os/view_reconstructor.h"

using namespace ndroid;

int main() {
  android::Device device("com.example.explorer");
  core::NDroid nd(device);

  // Native method: int mix(JNIEnv*, jclass, int secret, int pepper)
  //   { return secret * 31 + pepper; }  — pure register arithmetic, so the
  // instruction tracer (Table V) carries the taint through MUL and ADD.
  apps::NativeLibBuilder lib(device, "libexplorer.so");
  auto& a = lib.a();
  using arm::PC;
  using arm::R;
  const GuestAddr fn_mix = lib.fn();
  a.mov_imm(R(1), 31);
  a.mul(R(0), R(2), R(1));
  a.add(R(0), R(0), R(3));
  a.ret();
  lib.install();

  auto& dvm = device.dvm;
  dvm::ClassObject* app = dvm.define_class("Lexplorer/App;");
  dvm::Method* mix = dvm.define_native(
      app, "mix", "III", dvm::kAccPublic | dvm::kAccStatic, fn_mix);

  // Call it with a tainted first argument, as if the int derived from IMEI.
  const dvm::Slot result =
      dvm.call(*mix, {dvm::Slot{1234, kTaintImei}, dvm::Slot{5, 0}});
  std::printf("mix(1234, 5) = %u, taint = 0x%x (IMEI bit %s)\n",
              result.value, result.taint,
              (result.taint & kTaintImei) ? "set" : "clear");

  // A SourcePolicy belongs to one call: the same method called with clean
  // arguments gets clean argument shadows and returns clean.
  const dvm::Slot again =
      dvm.call(*mix, {dvm::Slot{1234, kTaintClear}, dvm::Slot{5, 0}});
  std::printf("mix(1234, 5) clean = %u, taint = 0x%x\n", again.value,
              again.taint);

  // --- SourcePolicies, as the trace log records them ---------------------
  std::printf("\nsource policies created: %llu, applied: %llu\n",
              static_cast<unsigned long long>(
                  nd.dvm_hooks().source_policies_created),
              static_cast<unsigned long long>(
                  nd.dvm_hooks().source_policies_applied));
  for (const auto& line : nd.log().lines()) {
    if (line.starts_with("args[") || line.starts_with("Find a source")) {
      std::printf("  | %s\n", line.c_str());
    }
  }

  // --- Tracer statistics ------------------------------------------------
  std::printf("\ninstructions traced: %llu (cache hits %llu)\n",
              static_cast<unsigned long long>(
                  nd.tracer().instructions_traced()),
              static_cast<unsigned long long>(nd.tracer().cache_hits()));
  std::printf("taint-rule applications: %llu\n",
              static_cast<unsigned long long>(
                  nd.taint_engine().propagations));

  // --- Taint map, poked directly ----------------------------------------
  nd.taint_engine().map().set_range(0x30000000, 16, kTaintSms);
  std::printf("\ntaint map union over [0x30000000,+32) = 0x%x\n",
              nd.taint_engine().map().get_range(0x30000000, 32));

  // --- Object shadow keyed by indirect reference -------------------------
  dvm::Object* s = dvm.new_string("tracked");
  const u32 iref = dvm.irt().add(s);
  nd.taint_engine().add_object_shadow(iref, kTaintContacts);
  dvm.run_gc();  // moves objects; the iref key stays valid
  std::printf("object shadow after GC: 0x%x (object now at 0x%x)\n",
              nd.taint_engine().object_shadow(iref), s->addr());

  // --- OS-level view reconstruction (VMI) --------------------------------
  os::ViewReconstructor recon(device.memory, os::Kernel::kTaskRoot);
  std::printf("\nprocesses reconstructed from guest memory:\n");
  for (const auto& proc : recon.reconstruct()) {
    std::printf("  pid %u  %-24s %zu mapped regions\n", proc.pid,
                proc.name.c_str(), proc.regions.size());
  }

  // --- Trace log ----------------------------------------------------------
  std::printf("\nfirst trace-log lines:\n");
  u32 shown = 0;
  for (const auto& line : nd.log().lines()) {
    std::printf("  | %s\n", line.c_str());
    if (++shown == 8) break;
  }
  return result.taint == kTaintImei && again.taint == kTaintClear ? 0 : 1;
}
