// Random input driver — the Monkeyrunner analog from the paper's evaluation
// methodology (§VI: "we first used one simple tool (i.e., Monkeyrunner) to
// generate random input to drive those 37,506 apps using JNI").
//
// The driver invokes randomly chosen public entry points of an app's classes
// with synthesized arguments (random ints; fresh strings for L-parameters)
// and reports which invocations triggered leak detections. Like the paper's
// tool it explores one path at a time and can miss functionality — the
// limitation §VII discusses ("simple tools like monkeyrunner cannot
// enumerate all possible paths").
#pragma once

#include <string>
#include <vector>

#include "android/device.h"

namespace ndroid::apps {

struct MonkeyEvent {
  std::string method;   // class descriptor + method name
  bool threw = false;   // invocation faulted (exploration continues)
  u32 leaks_after = 0;  // cumulative leak count after this event
};

struct MonkeyReport {
  std::vector<MonkeyEvent> events;
  u32 total_leaks = 0;
  u32 faulted_events = 0;  // events with `threw` set
  /// Method whose invocation first produced a leak, if any.
  std::string first_leaking_method;
};

class Monkey {
 public:
  Monkey(android::Device& device, u64 seed) : device_(device), seed_(seed) {}

  /// Registers an app class whose public static methods become event
  /// targets.
  void add_target(dvm::ClassObject* cls);

  /// Fires `events` random invocations; `leak_count` is polled after each
  /// (callers wire it to framework + NDroid leak counts).
  MonkeyReport run(u32 events, const std::function<u32()>& leak_count);

 private:
  android::Device& device_;
  u64 seed_;
  std::vector<dvm::Method*> targets_;
};

}  // namespace ndroid::apps
