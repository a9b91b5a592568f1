// CF-Bench analog (paper §VI-E / Fig. 10).
//
// The paper measures NDroid's overhead with Chainfire's CF-Bench, reporting
// per-category slowdowns versus a vanilla emulator. This app reproduces the
// benchmark's category structure:
//
//   Native MIPS / Java MIPS            — integer ALU loops
//   Native MSFLOPS / Java MSFLOPS      — single-precision FP loops
//   Native MDFLOPS / Java MDFLOPS      — "double" FP loops (the emulated
//                                         core has no VFP; the native side
//                                         uses 64-bit integer multiplies and
//                                         libm calls — documented
//                                         substitution preserving the
//                                         arithmetic-heavy profile)
//   Native MALLOCS                     — malloc/free churn
//   Native/Java Memory Read/Write      — sequential buffer sweeps
//   Native Disk Read / Disk Write      — read()/write() syscall loops
//
// Each workload is a callable method on the device, parameterised by an
// iteration count; the Fig. 10 bench runs every workload under each analysis
// configuration and reports wall-clock ratios.
#pragma once

#include <string>
#include <vector>

#include "android/device.h"

namespace ndroid::apps {

class NativeLibBuilder;

struct CfWorkload {
  std::string name;   // e.g. "Native MIPS"
  bool java = false;  // Java-side (interpreted) vs native-side
  dvm::Method* method = nullptr;  // f(int iterations) -> int
};

class CfBenchApp {
 public:
  /// Loads libcfbench.so (load_app_lib: emitted once per process) and
  /// defines the benchmark's class.
  explicit CfBenchApp(android::Device& device);

  [[nodiscard]] const std::vector<CfWorkload>& workloads() const {
    return workloads_;
  }
  [[nodiscard]] const CfWorkload* find(std::string_view name) const;

  /// Runs one workload; returns its checksum result.
  u32 run(const CfWorkload& workload, u32 iterations);

 private:
  android::Device& device_;
  std::vector<CfWorkload> workloads_;
};

/// libcfbench.so's code: one native workload per lib.fn() entry.
void emit_cfbench(NativeLibBuilder& lib, const android::Device& device);

}  // namespace ndroid::apps
