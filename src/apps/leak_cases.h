// The five information-leak scenarios of paper Table I / Fig. 3.
//
// Each builder assembles a malicious app (Java bytecode + a third-party
// native library) into a Device and returns the Java entry point to run.
// Ground truth for every case: sensitive data genuinely leaves the device
// (network packet or file write), so detection results can be scored
// against reality.
//
//   case 1  — Java source -> native processing -> Java sink.
//             (TaintDroid detects: JNI return-value policy.)
//   case 1' — Java source -> native stores it; a second JNI call returns it
//             to Java; Java sink. (TaintDroid misses.)
//   case 2  — Java source -> native code sends it out itself.
//             (TaintDroid misses: no native sinks.)
//   case 3  — data enters native, native pushes it back to Java via
//             CallVoidMethod; Java sink. (TaintDroid misses: dvmCallMethod*
//             clears taint slots.)
//   case 4  — native pulls sensitive data from the Java context through JNI
//             (CallObjectMethod on a source) and leaks it natively.
//             (TaintDroid misses.)
#pragma once

#include "android/device.h"

namespace ndroid::apps {

class NativeLibBuilder;

struct LeakScenario {
  dvm::Method* entry = nullptr;   // Java method to invoke (no args)
  std::string sink_destination;   // where the data ends up
  std::string description;
};

LeakScenario build_case1(android::Device& device);
LeakScenario build_case1_prime(android::Device& device);
LeakScenario build_case2(android::Device& device);
LeakScenario build_case3(android::Device& device);
LeakScenario build_case4(android::Device& device);

/// The cases' native libraries (libcase1.so ... libcase4.so), which the
/// builders load through load_app_lib: emitted once per process.
void emit_case1(NativeLibBuilder& lib, const android::Device& device);
void emit_case1_prime(NativeLibBuilder& lib, const android::Device& device);
void emit_case2(NativeLibBuilder& lib, const android::Device& device);
void emit_case3(NativeLibBuilder& lib, const android::Device& device);
void emit_case4(NativeLibBuilder& lib, const android::Device& device);

/// All five, keyed by the paper's case names.
std::vector<std::pair<std::string, LeakScenario (*)(android::Device&)>>
all_cases();

}  // namespace ndroid::apps
