// Golden-log regression tests: the case-study figures (6, 8, 9) are defined
// by an *ordered* sequence of analysis events; these tests assert the order,
// not just presence, so refactors cannot silently reorder the hook pipeline.
#include <gtest/gtest.h>

#include <fstream>

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
  // Both engines must produce the same full analysis log of a case study
  // line for line — not just the same milestones: the interpreter (the
  // paper-faithful oracle, software TLB off) and the threaded micro-op tier
  // (production default).
  auto run_case = [](arm::Engine engine) {
    Device device;
    device.cpu.set_engine(engine);
    NDroid nd(device);
    const auto app = apps::build_case2(device);
    device.dvm.call(*app.entry, {});
    return nd.log().lines();
  };
  const std::vector<std::string> interp_log = run_case(arm::Engine::kInterp);
  ASSERT_FALSE(interp_log.empty());
  const std::vector<std::string> threaded_log =
      run_case(arm::Engine::kThreaded);
  ASSERT_EQ(threaded_log.size(), interp_log.size());
  for (std::size_t i = 0; i < threaded_log.size(); ++i) {
    EXPECT_EQ(threaded_log[i], interp_log[i])
        << "first divergence at line " << i;
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

// ---------------------------------------------------------------------------
// Byte-for-byte golden traces: the full log of each case-study figure, as
// tests/golden/*.log records it, on both CPU engines.
// ---------------------------------------------------------------------------

std::vector<std::string> read_golden(const std::string& name) {
  std::ifstream in(std::string(NDROID_GOLDEN_DIR) + "/" + name);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

struct GoldenCase {
  const char* file;
  const char* package;
  apps::LeakScenario (*build)(Device&);
  bool disassembly;
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.file; }

class GoldenTrace
    : public ::testing::TestWithParam<std::tuple<GoldenCase, arm::Engine>> {};

TEST_P(GoldenTrace, FullLogMatchesByteForByte) {
  const auto& [c, engine] = GetParam();
  const std::vector<std::string> golden = read_golden(c.file);
  ASSERT_FALSE(golden.empty()) << "missing golden file " << c.file;

  Device device(c.package);
  device.cpu.set_engine(engine);
  NDroidConfig cfg;
  cfg.trace_disassembly = c.disassembly;
  NDroid nd(device, cfg);
  const auto app = c.build(device);
  device.dvm.call(*app.entry, {});

  const std::vector<std::string>& lines = nd.log().lines();
  ASSERT_EQ(lines.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(lines[i], golden[i]) << "line " << i;
  }
  EXPECT_EQ(nd.log().dropped(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Figures, GoldenTrace,
    ::testing::Combine(
        ::testing::Values(
            GoldenCase{"fig6_qqphonebook.log", "com.tencent.qqphonebook",
                       &apps::build_qq_phonebook, false},
            GoldenCase{"fig7_ephone.log", "com.vnet.ephone",
                       &apps::build_ephone, false},
            GoldenCase{"fig8_poc_case2.log", "com.ndroid.demos",
                       &apps::build_case2, false},
            GoldenCase{"fig9_poc_case3.log", "com.ndroid.demos",
                       &apps::build_case3, false},
            GoldenCase{"fig8_poc_case2_disasm.log", "com.ndroid.demos",
                       &apps::build_case2, true}),
        ::testing::Values(arm::Engine::kInterp, arm::Engine::kThreaded)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param).file;
      name = name.substr(0, name.find('.'));
      return name + (std::get<1>(info.param) == arm::Engine::kInterp
                         ? "_interp"
                         : "_threaded");
    });

}  // namespace
}  // namespace ndroid::core
