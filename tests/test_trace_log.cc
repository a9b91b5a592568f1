// TraceLog: the record cap, echo, clear(), and the text of every event kind
// the case-study figures (tests/golden) do not reach. Expected lines are the
// text NDroid's hooks formatted for these events before the log became
// typed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "arm/decoder.h"
#include "arm/thumb_assembler.h"
#include "core/ndroid.h"

namespace ndroid::core {
namespace {

using K = TraceKind;

std::string render_one(const TraceEvent& e, std::string_view text = {}) {
  TraceLog log;
  if (text.empty()) {
    log.add(e);
  } else {
    log.add(e, text);
  }
  return log.lines().at(0);
}

TEST(TraceLog, KeepsTheFirst65536LinesAndCountsTheRest) {
  TraceLog log;
  const std::size_t n = TraceLog::kMaxLines + 10;
  for (std::size_t i = 0; i < n; ++i) log.line("line " + std::to_string(i));
  log.add({.kind = K::kRealAddr, .a = 0x1234});
  ASSERT_EQ(log.lines().size(), TraceLog::kMaxLines);
  EXPECT_EQ(log.lines().front(), "line 0");
  EXPECT_EQ(log.lines().back(), "line 65535");
  EXPECT_EQ(log.dropped(), 11u);
  EXPECT_FALSE(log.contains("line 65536"));
}

TEST(TraceLog, EchoPrintsEveryLinePastTheCapToo) {
  TraceLog log;
  log.echo = true;
  ::testing::internal::CaptureStdout();
  for (std::size_t i = 0; i < TraceLog::kMaxLines; ++i) log.line("x");
  log.line("past the cap");
  log.add({.kind = K::kJstringTaint, .a = 514});
  log.add({.kind = K::kSvcSink, .a = 2, .ref = {.tag = "sendto"}},
          "softphone.comwave.net");
  std::fflush(stdout);
  const std::string out = ::testing::internal::GetCapturedStdout();

  const std::string tail =
      "x\npast the cap\njstring taint:514\n"
      "SinkHandler[sendto] taint=0x2 dest=softphone.comwave.net\n";
  ASSERT_GE(out.size(), tail.size());
  EXPECT_EQ(out.substr(out.size() - tail.size()), tail);
  EXPECT_EQ(static_cast<std::size_t>(std::count(out.begin(), out.end(), '\n')),
            TraceLog::kMaxLines + 3);
  EXPECT_EQ(log.lines().size(), TraceLog::kMaxLines);
  EXPECT_EQ(log.dropped(), 3u);
}

TEST(TraceLog, ClearDropsTheRecordsButNotTheDropCount) {
  TraceLog log;
  for (std::size_t i = 0; i <= TraceLog::kMaxLines; ++i) log.line("x");
  ASSERT_EQ(log.lines().size(), TraceLog::kMaxLines);  // renders, then clear
  log.clear();
  EXPECT_TRUE(log.lines().empty());
  EXPECT_EQ(log.dropped(), 1u);
  log.add({.kind = K::kTag, .ref = {.tag = "SourceHandler"}});
  log.add({.kind = K::kFormatWrite}, "Vincent");
  EXPECT_EQ(log.lines(),
            (std::vector<std::string>{"SourceHandler", "write: Vincent"}));
}

TEST(TraceLog, LinesRenderRecordsAddedAfterARead) {
  TraceLog log;
  log.add({.kind = K::kOpen}, "/sdcard/CONTACTS");
  ASSERT_EQ(log.lines().size(), 1u);
  log.add({.kind = K::kClose, .a = 1074919424});
  EXPECT_EQ(log.lines(), (std::vector<std::string>{"Open '/sdcard/CONTACTS'",
                                                   "Close FILE@1074919424"}));
  EXPECT_TRUE(log.contains("FILE@1074"));
}

// --- Kinds the figure scenarios leave uncovered ----------------------------

TEST(TraceLogText, FieldSet) {
  const dvm::Field field{"value", 'I', 0};
  EXPECT_EQ(render_one({.kind = K::kFieldSet,
                        .type = 'I',
                        .a = 0x400,
                        .ref = {.field = &field}}),
            "SetIField value taint: 0x400");
  const dvm::Field obj{"secret", 'L', 1};
  EXPECT_EQ(render_one({.kind = K::kFieldSet,
                        .type = 'L',
                        .a = 0x80000202,
                        .ref = {.field = &obj}}),
            "SetLField secret taint: 0x80000202");
}

TEST(TraceLogText, ThrowNew) {
  EXPECT_EQ(render_one({.kind = K::kTag, .ref = {.tag = "ThrowNew Begin"}}),
            "ThrowNew Begin");
  EXPECT_EQ(
      render_one({.kind = K::kExceptionTaint, .a = 1024, .b = 0x340001a0}),
            "add taint 1024 to exception message@0x340001a0");
}

TEST(TraceLogText, KernelSinks) {
  // The taint prints in decimal after its "0x", as it always has.
  EXPECT_EQ(render_one({.kind = K::kSvcSink,
                        .a = 0x400,
                        .ref = {.tag = "write"}},
                       "/sdcard/imei.txt"),
            "SinkHandler[write] taint=0x1024 dest=/sdcard/imei.txt");
  EXPECT_EQ(render_one({.kind = K::kSvcSink, .a = 2, .ref = {.tag = "send"}},
                       "<unknown>"),
            "SinkHandler[send] taint=0x2 dest=<unknown>");
}

TEST(TraceLogText, NonObjectJniArgument) {
  EXPECT_EQ(render_one({.kind = K::kJniArg,
                        .type = 'I',
                        .a = 1,
                        .b = 0x5,
                        .c = 0x202}),
            "args[1]@0x5 I  taint: 0x202");
}

TEST(TraceLogText, OtherObjectCreationFunctions) {
  EXPECT_EQ(render_one({.kind = K::kNofBegin, .ref = {.tag = "NewString"}}),
            "NewString Begin");
  EXPECT_EQ(render_one({.kind = K::kNofReturn,
                        .a = 0x80040005,
                        .ref = {.tag = "NewObject"}}),
            "NewObject return 0x80040005");
  EXPECT_EQ(render_one({.kind = K::kNofEnd, .ref = {.tag = "NewIntArray"}}),
            "NewIntArray End");
}

TEST(TraceLogText, NumberSpelling) {
  // hex() is lower case and unpadded; decimals are unsigned.
  EXPECT_EQ(render_one({.kind = K::kShadowDec, .a = 0xABC, .b = 0x80000000}),
            "t(abc) := 2147483648");
  EXPECT_EQ(render_one({.kind = K::kShadowHex, .a = 0, .b = 0xFFFFFFFF}),
            "t(0) := 0xffffffff");
  EXPECT_EQ(render_one({.kind = K::kFormatArgTaint, .a = 0, .b = 0}),
            "t[0] = 0");
  EXPECT_EQ(render_one({.kind = K::kText}, "free text"), "free text");
}

TEST(TraceLogText, ThumbDisassembly) {
  // The old line: "%08x  " followed by disassemble() of the fetched insn.
  auto expected = [](const arm::Insn& insn, GuestAddr pc) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%08x  ", pc);
    return buf + arm::disassemble(insn, pc);
  };
  const arm::Insn adds = arm::decode_thumb(0x1888, 0);  // adds r0, r1, r2
  EXPECT_EQ(render_one({.kind = K::kDisasm, .type = 1, .a = 0x10000102,
                        .b = adds.raw}),
            expected(adds, 0x10000102));
  const arm::Insn bl = arm::decode_thumb(0xF000, 0xF802);  // a Thumb-2 pair
  ASSERT_EQ(bl.length, 4);
  EXPECT_EQ(render_one({.kind = K::kDisasm, .type = 1, .a = 0x10000200,
                        .b = bl.raw}),
            expected(bl, 0x10000200));
  const arm::Insn arm_add = arm::decode_arm(0xE0820003);  // add r0, r2, r3
  EXPECT_EQ(render_one({.kind = K::kDisasm, .type = 0, .a = 0x10000000,
                        .b = arm_add.raw}),
            "10000000  add r0, r2, r3");
}

TEST(TraceLogText, ThumbMethodTracedOnBothEngines) {
  for (arm::Engine engine : {arm::Engine::kInterp, arm::Engine::kThreaded}) {
    android::Device device;
    device.cpu.set_engine(engine);
    NDroidConfig cfg;
    cfg.trace_disassembly = true;
    NDroid nd(device, cfg);

    const GuestAddr base = device.next_lib_base();
    arm::ThumbAssembler t(base);
    t.adds(arm::R(0), arm::R(1), arm::R(2));
    t.mov(arm::R(3), arm::R(0));
    t.bx(arm::LR);
    device.load_native_lib("libthumbdis.so", t.finish());
    dvm::ClassObject* cls = device.dvm.define_class("Ldis/Thumb;");
    dvm::Method* m = device.dvm.define_native(
        cls, "f", "III", dvm::kAccPublic | dvm::kAccStatic, base | 1);
    device.dvm.call(*m, {dvm::Slot{1, kTaintImei}, dvm::Slot{2, 0}});

    std::vector<std::string> disasm;
    for (const std::string& line : nd.log().lines()) {
      if (line.starts_with("1000")) disasm.push_back(line);
    }
    ASSERT_GE(disasm.size(), 2u);
    for (const std::string& line : disasm) {
      const auto pc = static_cast<GuestAddr>(std::stoul(line, nullptr, 16));
      const arm::Insn insn = arm::decode_thumb(device.memory.read16(pc), 0);
      char buf[16];
      std::snprintf(buf, sizeof buf, "%08x  ", pc);
      EXPECT_EQ(line, buf + arm::disassemble(insn, pc));
    }
    EXPECT_EQ(disasm[0].substr(10), "adds r0, r1, r2");
  }
}

}  // namespace
}  // namespace ndroid::core
