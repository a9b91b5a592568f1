// The Monkeyrunner-analog input driver (§VI methodology).
#include <gtest/gtest.h>

#include "apps/monkey.h"
#include "apps/real_apps.h"
#include "core/ndroid.h"

namespace ndroid::apps {
namespace {

using android::Device;

TEST(Monkey, FindsTheLeakingEntryPoint) {
  Device device("com.tencent.qqphonebook");
  core::NDroid nd(device);
  const LeakScenario app = build_qq_phonebook(device);
  (void)app;

  Monkey monkey(device, /*seed=*/42);
  monkey.add_target(device.dvm.find_class("Lcom/tencent/tccsync/LoginUtil;"));
  const MonkeyReport report = monkey.run(30, [&] {
    return static_cast<u32>(device.framework.leaks().size() +
                            nd.leaks().size());
  });

  ASSERT_EQ(report.events.size(), 30u);
  // The random driver eventually hits main(), which performs the full flow.
  EXPECT_GT(report.total_leaks, 0u);
  EXPECT_EQ(report.first_leaking_method,
            "Lcom/tencent/tccsync/LoginUtil;main");
}

TEST(Monkey, DeterministicPerSeed) {
  auto run_once = [](u64 seed) {
    Device device;
    core::NDroid nd(device);
    build_qq_phonebook(device);
    Monkey monkey(device, seed);
    monkey.add_target(
        device.dvm.find_class("Lcom/tencent/tccsync/LoginUtil;"));
    const MonkeyReport r = monkey.run(10, [&] {
      return static_cast<u32>(device.framework.leaks().size());
    });
    std::string trace;
    for (const auto& e : r.events) trace += e.method + ";";
    return trace;
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
}

TEST(Monkey, RandomInputsAloneDoNotCauseFalsePositives) {
  // Driving the native methods directly with untainted random strings must
  // not produce leak reports (the data is not sensitive).
  Device device;
  core::NDroid nd(device);
  build_qq_phonebook(device);
  Monkey monkey(device, 1234);
  dvm::ClassObject* cls =
      device.dvm.find_class("Lcom/tencent/tccsync/LoginUtil;");
  // Restrict targets to the native methods only (exclude main).
  Monkey targeted(device, 99);
  for (const auto& m : cls->methods()) {
    if (m->is_native()) {
      // Invoke each native method directly with clean random args.
      std::vector<dvm::Slot> args;
      for (u32 p = 1; p < m->shorty.size(); ++p) {
        if (m->shorty[p] == 'L') {
          args.push_back(dvm::Slot{device.dvm.new_string("rand")->addr(), 0});
        } else {
          args.push_back(dvm::Slot{7, 0});
        }
      }
      device.dvm.call(*m, std::move(args));
    }
  }
  EXPECT_TRUE(device.framework.leaks().empty());
  EXPECT_TRUE(nd.leaks().empty());
}

TEST(Monkey, LongSessionLeaksAtAConstantRate) {
  // Per-call JNI state must not grow with the session: a 10,000-event
  // ePhone session reports as many native leaks in its last 1,000 events
  // as in its first 1,000.
  Device device("com.ephone");
  core::NDroid nd(device);
  build_ephone(device);
  Monkey monkey(device, /*seed=*/20140623);
  monkey.add_target(device.dvm.find_class("Lcom/vnet/asip/general/general;"));
  const MonkeyReport report = monkey.run(
      10000, [&] { return static_cast<u32>(nd.leaks().size()); });

  ASSERT_EQ(report.events.size(), 10000u);
  const u32 first = report.events[999].leaks_after;
  const u32 last =
      report.events[9999].leaks_after - report.events[8999].leaks_after;
  EXPECT_GT(first, 900u);
  EXPECT_EQ(last, first);
  EXPECT_EQ(report.faulted_events, 0u);
  EXPECT_EQ(device.dvm.irt().live_count(), 0u);
}

TEST(Monkey, CountsEveryFaultedEvent) {
  // A target that faults on every call (x / 0): every event is counted as
  // faulted, and each fault unwinds its DVM frame, so the stack ends where
  // it started and a sound call afterwards still works.
  Device device;
  core::NDroid nd(device);
  dvm::ClassObject* cls = device.dvm.define_class("Lfaulty/App;");
  dvm::CodeBuilder crash;
  crash.const_imm(0, 0).binop(dvm::DOp::kDiv, 0, 1, 0).return_value(0);
  device.dvm.define_method(cls, "crash", "II",
                           dvm::kAccPublic | dvm::kAccStatic, 2, crash.take());
  const dvm::DvmStack::Mark start = device.dvm.stack().mark();
  Monkey monkey(device, /*seed=*/7);
  monkey.add_target(cls);
  const MonkeyReport report =
      monkey.run(20000, [&] { return static_cast<u32>(nd.leaks().size()); });

  EXPECT_EQ(report.faulted_events, 20000u);
  for (const MonkeyEvent& e : report.events) ASSERT_TRUE(e.threw);
  EXPECT_EQ(device.dvm.stack().mark().sp, start.sp);
  dvm::CodeBuilder sound;
  sound.const_imm(0, 5).return_value(0);
  dvm::Method* ok = device.dvm.define_method(
      cls, "sound", "I", dvm::kAccStatic, 1, sound.take());
  EXPECT_EQ(device.dvm.call(*ok, {}).value, 5u);
}

}  // namespace
}  // namespace ndroid::apps
