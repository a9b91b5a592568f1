// Unit tests of the System Lib Hook Engine: each Table VI model's taint
// semantics and each Table VII sink, driven through real guest calls.
#include <gtest/gtest.h>

#include "core/ndroid.h"

namespace ndroid::core {
namespace {

using android::Device;

class SysLibFixture : public ::testing::Test {
 protected:
  static constexpr GuestAddr kSrc = 0x30100000;
  static constexpr GuestAddr kDst = 0x30200000;

  SysLibFixture() : nd_(device_) {}

  u32 call(const std::string& fn, const std::vector<u32>& args) {
    return device_.cpu.call_function(device_.libc.fn(fn), args);
  }
  mem::ShadowMemory& map() { return nd_.taint_engine().map(); }

  Device device_;
  NDroid nd_;
};

TEST_F(SysLibFixture, MemcpyModelOrsPerByte) {
  device_.memory.fill(kSrc, 'a', 8);
  map().set(kSrc + 2, kTaintImei);
  map().set(kDst + 2, kTaintSms);  // pre-existing taint at destination
  call("memcpy", {kDst, kSrc, 8});
  // Listing 3 uses addTaint: OR, not overwrite.
  EXPECT_EQ(map().get(kDst + 2), kTaintImei | kTaintSms);
  EXPECT_EQ(map().get(kDst + 3), kTaintClear);
}

TEST_F(SysLibFixture, MemmoveModelCopies) {
  device_.memory.fill(kSrc, 'b', 8);
  map().set(kSrc, kTaintContacts);
  call("memmove", {kDst, kSrc, 8});
  EXPECT_EQ(map().get(kDst), kTaintContacts);
}

TEST_F(SysLibFixture, MemsetModelUsesValueTaint) {
  // The fill byte's taint comes from shadow register r1 — normally set by
  // the tracer before the call; simulate a tainted fill value.
  nd_.taint_engine().set_reg(1, kTaintImsi);
  call("memset", {kDst, 'x', 6});
  EXPECT_EQ(map().get_range(kDst, 6), kTaintImsi);
  nd_.taint_engine().set_reg(1, kTaintClear);
  call("memset", {kDst, 'x', 6});
  EXPECT_EQ(map().get_range(kDst, 6), kTaintClear);
}

TEST_F(SysLibFixture, StrncpyClearsPaddingTaint) {
  device_.memory.write_cstr(kSrc, "ab");
  map().set_range(kSrc, 2, kTaintSms);
  map().set_range(kDst, 8, kTaintImei);  // stale taints at destination
  call("strncpy", {kDst, kSrc, 8});
  EXPECT_EQ(map().get(kDst), kTaintImei | kTaintSms);  // OR on copied bytes
  EXPECT_EQ(map().get(kDst + 5), kTaintClear);  // padding clears stale taint
}

TEST_F(SysLibFixture, StrcatAppendsTaintAtDstEnd) {
  device_.memory.write_cstr(kDst, "id=");
  device_.memory.write_cstr(kSrc, "35495");
  map().set_range(kSrc, 5, kTaintImei);
  call("strcat", {kDst, kSrc});
  EXPECT_EQ(device_.memory.read_cstr(kDst), "id=35495");
  EXPECT_EQ(map().get(kDst), kTaintClear);      // "id=" untouched
  EXPECT_EQ(map().get(kDst + 3), kTaintImei);   // appended bytes tainted
}

TEST_F(SysLibFixture, StrlenAtoiTaintTheResult) {
  device_.memory.write_cstr(kSrc, "12345");
  map().set_range(kSrc, 5, kTaintPhoneNumber);
  EXPECT_EQ(call("strlen", {kSrc}), 5u);
  EXPECT_EQ(nd_.taint_engine().reg(0), kTaintPhoneNumber);
  EXPECT_EQ(call("atoi", {kSrc}), 12345u);
  EXPECT_EQ(nd_.taint_engine().reg(0), kTaintPhoneNumber);
}

TEST_F(SysLibFixture, PendingExitWantsOnlyItsReturnAddress) {
  // A strlen entry defers its exit to the caller's LR. Until then only that
  // return address and the hooked entry points concern the engine, so the
  // back-edges of a loop inside the call stay off the hook dispatch.
  constexpr GuestAddr kReturnTo = 0x10000040;
  constexpr GuestAddr kLoop = 0x10000100;  // unrelated to any hook
  SysLibHookEngine& syslib = nd_.syslib();
  device_.memory.write_cstr(kSrc, "12345");
  map().set_range(kSrc, 5, kTaintPhoneNumber);
  ASSERT_FALSE(syslib.wants_branch(kLoop));

  arm::CPUState& s = device_.cpu.state();
  s.regs[0] = kSrc;
  s.set_lr(kReturnTo | 1);  // a Thumb caller
  const GuestAddr strlen_at = device_.libc.fn("strlen");
  ASSERT_TRUE(syslib.wants_branch(strlen_at));
  syslib.on_branch(device_.cpu, kReturnTo - 4, strlen_at);

  EXPECT_FALSE(syslib.wants_branch(kLoop));
  EXPECT_FALSE(syslib.wants_branch(kLoop + 8));
  EXPECT_TRUE(syslib.wants_branch(kReturnTo));
  EXPECT_TRUE(syslib.wants_branch(device_.libc.fn("memcpy")));

  s.regs[0] = 5;
  syslib.on_branch(device_.cpu, strlen_at + 8, kReturnTo);
  EXPECT_EQ(nd_.taint_engine().reg(0), kTaintPhoneNumber);
  EXPECT_FALSE(syslib.wants_branch(kReturnTo));
}

TEST_F(SysLibFixture, StrcmpResultCarriesBothOperandTaints) {
  device_.memory.write_cstr(kSrc, "abc");
  device_.memory.write_cstr(kDst, "abd");
  map().set_range(kSrc, 3, kTaintImei);
  map().set_range(kDst, 3, kTaintSms);
  call("strcmp", {kSrc, kDst});
  EXPECT_EQ(nd_.taint_engine().reg(0), kTaintImei | kTaintSms);
}

TEST_F(SysLibFixture, StrchrAliasesInputTaint) {
  device_.memory.write_cstr(kSrc, "a.b");
  nd_.taint_engine().set_reg(0, kTaintContacts);  // pointer arg taint
  call("strchr", {kSrc, '.'});
  EXPECT_EQ(nd_.taint_engine().reg(0) & kTaintContacts, kTaintContacts);
}

TEST_F(SysLibFixture, MallocReturnsUntaintedMemory) {
  // Recycled blocks must not resurrect stale taints.
  const u32 p = call("malloc", {32});
  map().set_range(p, 32, kTaintImei);
  call("free", {p});
  const u32 q = call("malloc", {32});
  ASSERT_EQ(q, p);
  EXPECT_EQ(map().get_range(q, 32), kTaintClear);
}

TEST_F(SysLibFixture, ReallocMovesTaint) {
  const u32 p = call("malloc", {16});
  device_.memory.write_cstr(p, "secret");
  map().set_range(p, 6, kTaintSms);
  const u32 q = call("realloc", {p, 64});
  ASSERT_NE(q, p);
  EXPECT_EQ(map().get_range(q, 6), kTaintSms);
}

TEST_F(SysLibFixture, StrdupCopiesTaint) {
  device_.memory.write_cstr(kSrc, "dup-me");
  map().set(kSrc + 1, kTaintIccid);
  const u32 p = call("strdup", {kSrc});
  EXPECT_EQ(map().get(p + 1), kTaintIccid);
  EXPECT_EQ(map().get(p), kTaintClear);
}

TEST_F(SysLibFixture, ReallocMovesOnlyTheOldBlocksTaint) {
  // Small blocks share pages: the bytes past the old block belong to its
  // neighbour, whose taint must not follow into the grown block.
  const u32 p = call("malloc", {16});
  const u32 neighbour = call("malloc", {16});
  ASSERT_EQ(neighbour, p + 16);
  map().set_range(p, 16, kTaintImei);
  map().set_range(neighbour, 16, kTaintSms);
  const u32 q = call("realloc", {p, 48});
  EXPECT_EQ(map().get_range(q, 16), kTaintImei);
  EXPECT_EQ(map().get_range(q + 16, 32), kTaintClear);
}

TEST_F(SysLibFixture, StrdupSetsTheTaintOfAReusedBlock) {
  const u32 stale = call("malloc", {16});
  map().set_range(stale, 16, kTaintImei);
  call("free", {stale});
  device_.memory.write_cstr(kSrc, "clean");
  const u32 p = call("strdup", {kSrc});
  ASSERT_EQ(p, stale);
  EXPECT_EQ(map().get_range(p, 6), kTaintClear);
}

TEST_F(SysLibFixture, SprintfPropagatesFormatArgTaint) {
  device_.memory.write_cstr(kSrc, "%s!");
  device_.memory.write_cstr(kSrc + 0x100, "x");
  map().set(kSrc + 0x100, kTaintImei);
  call("sprintf", {kDst, kSrc, kSrc + 0x100});
  EXPECT_EQ(device_.memory.read_cstr(kDst), "x!");
  EXPECT_EQ(map().get_range(kDst, 3), kTaintImei);
}

TEST_F(SysLibFixture, SscanfTaintsOutputs) {
  device_.memory.write_cstr(kSrc, "42 name");
  map().set_range(kSrc, 7, kTaintContacts);
  device_.memory.write_cstr(kSrc + 0x100, "%d %s");
  call("sscanf", {kSrc, kSrc + 0x100, kDst, kDst + 0x40});
  EXPECT_EQ(map().get_range(kDst, 4), kTaintContacts);
  EXPECT_EQ(map().get(kDst + 0x40), kTaintContacts);
}

TEST_F(SysLibFixture, LibmValuePurity) {
  nd_.taint_engine().set_reg(0, kTaintLocation);
  nd_.taint_engine().set_reg(1, kTaintClear);
  call("sqrtf", {std::bit_cast<u32>(4.0f)});
  EXPECT_EQ(nd_.taint_engine().reg(0) & kTaintLocation, kTaintLocation);
}

// --- Table VII sinks ---------------------------------------------------------

TEST_F(SysLibFixture, FwriteSinkFires) {
  device_.memory.write_cstr(kSrc, "/sdcard/dump");
  device_.memory.write_cstr(kSrc + 0x40, "w");
  const u32 f = call("fopen", {kSrc, kSrc + 0x40});
  device_.memory.write_cstr(kSrc + 0x80, "leak!");
  map().set_range(kSrc + 0x80, 5, kTaintSms);
  call("fwrite", {kSrc + 0x80, 1, 5, f});
  ASSERT_EQ(nd_.leaks().size(), 1u);
  EXPECT_EQ(nd_.leaks()[0].sink, "fwrite");
  EXPECT_EQ(nd_.leaks()[0].destination, "/sdcard/dump");
  EXPECT_EQ(nd_.leaks()[0].taint, kTaintSms);
  EXPECT_EQ(nd_.leaks()[0].data, "leak!");
}

TEST_F(SysLibFixture, FputsAndFputcSinks) {
  device_.memory.write_cstr(kSrc, "/sdcard/d2");
  device_.memory.write_cstr(kSrc + 0x40, "w");
  const u32 f = call("fopen", {kSrc, kSrc + 0x40});
  device_.memory.write_cstr(kSrc + 0x80, "s");
  map().set(kSrc + 0x80, kTaintImei);
  call("fputs", {kSrc + 0x80, f});
  nd_.taint_engine().set_reg(0, kTaintImsi);
  call("fputc", {'c', f});
  ASSERT_EQ(nd_.leaks().size(), 2u);
  EXPECT_EQ(nd_.leaks()[0].sink, "fputs");
  EXPECT_EQ(nd_.leaks()[1].sink, "fputc");
}

TEST_F(SysLibFixture, UntaintedWritesAreNotLeaks) {
  device_.memory.write_cstr(kSrc, "/sdcard/ok");
  device_.memory.write_cstr(kSrc + 0x40, "w");
  const u32 f = call("fopen", {kSrc, kSrc + 0x40});
  device_.memory.write_cstr(kSrc + 0x80, "fine");
  call("fwrite", {kSrc + 0x80, 1, 4, f});
  EXPECT_TRUE(nd_.leaks().empty());
}

TEST_F(SysLibFixture, WriteSyscallSinkResolvesFilePath) {
  const int fd = device_.kernel.open_file("/sdcard/raw", os::kOpenWrite);
  device_.memory.write_cstr(kSrc, "xyz");
  map().set_range(kSrc, 3, kTaintContacts);
  call("write", {static_cast<u32>(fd), kSrc, 3});
  ASSERT_EQ(nd_.leaks().size(), 1u);
  EXPECT_EQ(nd_.leaks()[0].sink, "write");
  EXPECT_EQ(nd_.leaks()[0].destination, "/sdcard/raw");
}

TEST_F(SysLibFixture, LeakSummaryAggregates) {
  device_.memory.write_cstr(kSrc, "/sdcard/a");
  device_.memory.write_cstr(kSrc + 0x40, "w");
  const u32 f = call("fopen", {kSrc, kSrc + 0x40});
  device_.memory.write_cstr(kSrc + 0x80, "x");
  map().set(kSrc + 0x80, kTaintImei);
  call("fputs", {kSrc + 0x80, f});
  map().set(kSrc + 0x80, kTaintSms);
  call("fputs", {kSrc + 0x80, f});
  const LeakSummary s = summarize(nd_.leaks());
  EXPECT_EQ(s.total, 2u);
  EXPECT_EQ(s.taint_union, kTaintImei | kTaintSms);
  EXPECT_EQ(s.by_sink.at("fputs"), 2u);
  EXPECT_EQ(s.by_destination.at("/sdcard/a"), 2u);
}

TEST_F(SysLibFixture, ModelsSkipWhileNoTaintIsLive) {
  // With nothing tainted anywhere a model could only write clear over
  // clear: the liveness fast path skips it. Once taint is live it applies.
  device_.memory.write_cstr(kSrc, "12345");
  const u64 before = nd_.syslib().models_applied();
  EXPECT_EQ(call("strlen", {kSrc}), 5u);
  EXPECT_EQ(nd_.syslib().models_applied(), before);
  EXPECT_FALSE(nd_.syslib().models_live());

  map().set_range(kSrc, 5, kTaintImei);
  EXPECT_TRUE(nd_.syslib().models_live());
  EXPECT_EQ(call("strlen", {kSrc}), 5u);
  EXPECT_EQ(nd_.syslib().models_applied(), before + 1);
  EXPECT_EQ(nd_.taint_engine().reg(0), kTaintImei);
}

TEST_F(SysLibFixture, SinksRunWhileNoTaintIsLive) {
  // TrustCall handlers log whether or not taint is live.
  device_.memory.write_cstr(kSrc, "/sdcard/clean");
  device_.memory.write_cstr(kSrc + 0x40, "w");
  call("fopen", {kSrc, kSrc + 0x40});
  EXPECT_TRUE(nd_.log().contains("/sdcard/clean"));
}

TEST_F(SysLibFixture, PendingExitFiresAfterTheTaintDies) {
  // strchr's exit is queued while r0's taint is live; a later branch hook
  // clears every register before the call returns. The exit still fires
  // and gives r0 the argument's taint back.
  device_.memory.write_cstr(kSrc, "a.b");
  const GuestAddr strchr_at = device_.libc.fn("strchr");
  TaintEngine& engine = nd_.taint_engine();
  const int hook = device_.cpu.add_branch_hook(
      [&engine, strchr_at](arm::Cpu&, GuestAddr, GuestAddr to) {
        if (to == strchr_at) engine.clear_regs();
      });
  engine.set_reg(0, kTaintContacts);
  const u64 before = nd_.syslib().models_applied();
  call("strchr", {kSrc, '.'});
  device_.cpu.remove_branch_hook(hook);
  EXPECT_EQ(nd_.syslib().models_applied(), before + 1);
  EXPECT_EQ(engine.reg(0), kTaintContacts);
  EXPECT_FALSE(nd_.syslib().wants_branch(arm::kHostReturnAddr));
}

TEST(SysLibConfig, PaperPolicyAppliesEveryModel) {
  // taint_liveness_fastpath = false (the Fig. 10 policy): models apply on
  // clean data too.
  Device device;
  NDroidConfig cfg;
  cfg.taint_liveness_fastpath = false;
  NDroid nd(device, cfg);
  constexpr GuestAddr kStr = 0x30100000;
  device.memory.write_cstr(kStr, "abc");
  EXPECT_EQ(device.cpu.call_function(device.libc.fn("strlen"), {kStr}), 3u);
  EXPECT_NE(device.cpu.call_function(device.libc.fn("malloc"), {16}), 0u);
  EXPECT_EQ(nd.syslib().models_applied(), 2u);
  EXPECT_TRUE(nd.syslib().models_live());
}

TEST_F(SysLibFixture, ModelsDisabledMeansNoModelApplications) {
  Device d2;
  NDroidConfig cfg;
  cfg.syslib_models = false;
  NDroid nd2(d2, cfg);
  d2.memory.write_cstr(kSrc, "abc");
  d2.cpu.call_function(d2.libc.fn("strlen"), {kSrc});
  EXPECT_EQ(nd2.syslib().models_applied(), 0u);
}

}  // namespace
}  // namespace ndroid::core
