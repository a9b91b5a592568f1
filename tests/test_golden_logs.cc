// Golden-log regression tests: the case-study figures (6, 8, 9) are defined
// by an *ordered* sequence of analysis events; these tests assert the order,
// not just presence, so refactors cannot silently reorder the hook pipeline.
#include <gtest/gtest.h>

#include "apps/leak_cases.h"
#include "apps/real_apps.h"
#include "core/ndroid.h"

namespace ndroid::core {
namespace {

using android::Device;

/// Asserts that `needles` appear in the log in order (not necessarily
/// adjacent). Returns the first missing needle for diagnostics.
void expect_ordered(const TraceLog& log,
                    const std::vector<std::string>& needles) {
  std::size_t line_idx = 0;
  for (const std::string& needle : needles) {
    bool found = false;
    for (; line_idx < log.lines().size(); ++line_idx) {
      if (log.lines()[line_idx].find(needle) != std::string::npos) {
        found = true;
        ++line_idx;
        break;
      }
    }
    ASSERT_TRUE(found) << "log line not found (in order): " << needle;
  }
}

TEST(GoldenLogs, Fig6QqPhoneBookSequence) {
  Device device;
  NDroid nd(device);
  const auto app = apps::build_qq_phonebook(device);
  device.dvm.call(*app.entry, {});
  expect_ordered(nd.log(),
                 {
                     "name: makeLoginRequestPackageMd5",
                     "shorty: IILLLLLLLLII",
                     "class: Lcom/tencent/tccsync/LoginUtil;",
                     "taint: 0x202",                  // args[3]
                     "Find a source function",
                     "name: getPostUrl",
                     "shorty: LI",
                     "NewStringUTF Begin",
                     "http://sync.3g.qq.com/xpimlogin?sid=",
                     "realStringAddr:0x",
                     "add taint 514 to new string object",
                     "NewStringUTF return 0x",
                     "NewStringUTF End",
                 });
}

TEST(GoldenLogs, Fig8PocCase2Sequence) {
  Device device;
  NDroid nd(device);
  const auto app = apps::build_case2(device);
  device.dvm.call(*app.entry, {});
  expect_ordered(nd.log(),
                 {
                     "name: recordContact",
                     "shorty: ZLLL",
                     "class: Lcom/ndroid/demos/Demos;",
                     "Find a source function",
                     "SourceHandler",
                     "TrustCallHandler[GetStringUTFChars] begin",
                     "jstring taint:2",
                     "TrustCallHandler[GetStringUTFChars] end",
                     "TrustCallHandler[fopen] begin",
                     "Open '/sdcard/CONTACTS'",
                     "TrustCallHandler[fopen] end",
                     "SinkHandler[fprintf] begin",
                     "write: 1",
                     "write: Vincent",
                     "write: cx@gg.com",
                     "SinkHandler[fprintf] end",
                     "TrustCallHandler[fclose] begin",
                     "TrustCallHandler[fclose] end",
                 });
  // Three GetStringUTFChars TrustCalls total (id, name, email).
  u32 trust_calls = 0;
  for (const auto& line : nd.log().lines()) {
    trust_calls +=
        line.find("TrustCallHandler[GetStringUTFChars] begin") !=
        std::string::npos;
  }
  EXPECT_EQ(trust_calls, 3u);
}

TEST(GoldenLogs, Fig9PocCase3Sequence) {
  Device device;
  NDroid nd(device);
  const auto app = apps::build_case3(device);
  device.dvm.call(*app.entry, {});
  expect_ordered(nd.log(),
                 {
                     "name: evadeTaintDroid",
                     "Find a source function",
                     "NewStringUTF Begin",
                     "realStringAddr:0x",
                     "add taint",
                     "NewStringUTF End",
                     "dvmInterpret Begin",
                     "Method Name: nativeCallback",
                     "Method Shorty: VL",
                     "Method insSize: 1",
                     "curFrame@0x",
                     "add taint to new method frame",
                 });
}

TEST(GoldenLogs, InterpretiveAblationIsBitForBitIdentical) {
  // Every engine configuration must produce the same full analysis log of
  // a case study line for line — not just the same milestones:
  //   * the interpreter (the paper-faithful oracle, software TLB off),
  //   * the threaded micro-op tier (production default),
  //   * the template JIT — on x86-64 the case study's taint-live blocks run
  //     the taint-fused *traced* host stream (Table V transfers inlined over
  //     the raw label file), which the counter check below proves actually
  //     executed,
  //   * the same JIT in strict W^X mode (dual-stream arena under the
  //     RW<->RX rewrite protocol).
  struct CaseRun {
    std::vector<std::string> lines;
    u64 jit_traced_blocks = 0;
  };
  auto run_case = [](arm::Engine engine, bool wx = false) {
    Device device;
    device.cpu.set_engine(engine);
    if (wx) device.cpu.set_jit_config(1u << 20, /*wx=*/true);
    NDroid nd(device);
    const auto app = apps::build_case2(device);
    device.dvm.call(*app.entry, {});
    return CaseRun{nd.log().lines(), device.cpu.jit_traced_blocks()};
  };
  const std::vector<std::string> interp_log =
      run_case(arm::Engine::kInterp).lines;
  ASSERT_FALSE(interp_log.empty());
  struct Tier {
    arm::Engine engine;
    bool wx;
    const char* name;
  };
  for (const Tier tier : {Tier{arm::Engine::kThreaded, false, "threaded"},
                          Tier{arm::Engine::kJit, false, "jit"},
                          Tier{arm::Engine::kJit, true, "jit W^X"}}) {
    const CaseRun run = run_case(tier.engine, tier.wx);
    ASSERT_EQ(run.lines.size(), interp_log.size()) << tier.name;
    for (std::size_t i = 0; i < run.lines.size(); ++i) {
      EXPECT_EQ(run.lines[i], interp_log[i])
          << tier.name << ", first divergence at line " << i;
    }
    // Identical logs only attest the traced JIT when it actually ran:
    // taint-live stretches of the case study must have executed the
    // taint-fused host stream, not fallen back wholesale.
    if (tier.engine == arm::Engine::kJit && arm::Cpu::jit_available()) {
      EXPECT_GT(run.jit_traced_blocks, 0u) << tier.name;
    }
  }
}

TEST(GoldenLogs, CleanRunProducesNoSourceEvents) {
  Device device;
  NDroid nd(device);
  // A JNI call with no tainted arguments: method info is logged, but no
  // SourcePolicy / SourceHandler events may appear.
  const auto app = apps::build_case4(device);  // case 4 passes nothing in
  device.dvm.call(*app.entry, {});
  for (const auto& line : nd.log().lines()) {
    EXPECT_EQ(line.find("SourceHandler"), std::string::npos) << line;
  }
}

}  // namespace
}  // namespace ndroid::core
