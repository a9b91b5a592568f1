// §VII extension: taint protection against apps that manipulate the taint
// tags or trusted code from native code.
#include <gtest/gtest.h>

#include "apps/native_lib_builder.h"
#include "core/ndroid.h"

namespace ndroid::core {
namespace {

using android::Device;
using android::Layout;

/// Every guard case runs on both CPU engines: the interpreter fires the
/// store hook from Cpu::step, the threaded tier from a micro-op in front of
/// each store of a clean stream.
class TaintGuardTest : public ::testing::TestWithParam<arm::Engine> {
 protected:
  TaintGuardTest() { device.cpu.set_engine(GetParam()); }
  Device device;
};

INSTANTIATE_TEST_SUITE_P(Engines, TaintGuardTest,
                         ::testing::Values(arm::Engine::kInterp,
                                           arm::Engine::kThreaded),
                         [](const auto& info) {
                           return info.param == arm::Engine::kInterp
                                      ? "Interp"
                                      : "Threaded";
                         });

NDroidConfig guarded() {
  NDroidConfig cfg;
  cfg.taint_protection = true;
  return cfg;
}

/// Builds a native method that stores `value` to the absolute address
/// `target` and returns.
dvm::Method* build_poker(Device& device, GuestAddr target,
                         const std::string& lib_name) {
  apps::NativeLibBuilder lib(device, lib_name);
  auto& a = lib.a();
  using arm::R;
  const GuestAddr fn = lib.fn();
  a.mov_imm32(R(1), target);
  a.mov_imm(R(0), 0);
  a.str(R(0), R(1), 0);
  a.ret();
  lib.install();
  dvm::ClassObject* cls = device.dvm.define_class("L" + lib_name + ";");
  return device.dvm.define_native(cls, "poke", "V",
                                  dvm::kAccPublic | dvm::kAccStatic, fn);
}

TEST_P(TaintGuardTest, FlagsDvmStackTampering) {
  NDroid nd(device, guarded());
  // An evasive app overwrites a taint tag slot inside the DVM stack.
  const GuestAddr slot = Layout::kDalvikStack + Layout::kDalvikStackSize - 4;
  dvm::Method* poke = build_poker(device, slot, "evil_stack");
  device.dvm.call(*poke, {});
  ASSERT_NE(nd.guard(), nullptr);
  ASSERT_EQ(nd.guard()->alerts().size(), 1u);
  EXPECT_EQ(nd.guard()->alerts()[0].region, "[dalvik-stack]");
  EXPECT_EQ(nd.guard()->alerts()[0].target, slot);
  EXPECT_EQ(nd.guard()->alerts()[0].module, "evil_stack");
}

TEST_P(TaintGuardTest, FlagsTrustedFunctionModification) {
  NDroid nd(device, guarded());
  dvm::Method* poke =
      build_poker(device, device.dvm.sym("dvmCallJNIMethod"), "evil_dvm");
  device.dvm.call(*poke, {});
  ASSERT_EQ(nd.guard()->alerts().size(), 1u);
  EXPECT_EQ(nd.guard()->alerts()[0].region, "libdvm.so");
}

TEST_P(TaintGuardTest, FlagsKernelStructTampering) {
  NDroid nd(device, guarded());
  dvm::Method* poke =
      build_poker(device, os::Kernel::kTaskRoot, "evil_kernel");
  device.dvm.call(*poke, {});
  ASSERT_EQ(nd.guard()->alerts().size(), 1u);
  EXPECT_EQ(nd.guard()->alerts()[0].region, "[kernel]");
}

TEST_P(TaintGuardTest, BenignStoresNotFlagged) {
  NDroid nd(device, guarded());
  // Stores into the app's own data are fine.
  const GuestAddr own = device.libc.malloc_guest(16);
  dvm::Method* poke = build_poker(device, own, "benign");
  device.dvm.call(*poke, {});
  EXPECT_TRUE(nd.guard()->alerts().empty());
}

TEST_P(TaintGuardTest, SystemWritesToDvmStackAreLegitimate) {
  // The interpreter and the JNI bridge write the DVM stack constantly; the
  // guard must only fire on third-party stores. Running an ordinary Java
  // method must produce no alerts.
  NDroid nd(device, guarded());
  dvm::ClassObject* cls = device.dvm.define_class("LOk;");
  dvm::CodeBuilder cb;
  cb.const_imm(0, 1).add(0, 0, 0).return_value(0);
  dvm::Method* m = device.dvm.define_method(
      cls, "f", "I", dvm::kAccPublic | dvm::kAccStatic, 1, cb.take());
  device.dvm.call(*m, {});
  EXPECT_TRUE(nd.guard()->alerts().empty());
}

TEST(TaintGuard, DisabledByDefault) {
  Device device;
  NDroid nd(device);
  EXPECT_EQ(nd.guard(), nullptr);
}

TEST_P(TaintGuardTest, StmTamperingAlsoCaught) {
  NDroid nd(device, guarded());
  apps::NativeLibBuilder lib(device, "evil_stm");
  auto& a = lib.a();
  using arm::R;
  const GuestAddr fn = lib.fn();
  a.mov_imm32(R(1), Layout::kDalvikStack + 0x100);
  a.mov_imm(R(2), 0);
  a.mov_imm(R(3), 0);
  a.stm_ia(R(1), (1u << 2) | (1u << 3), /*writeback=*/false);
  a.ret();
  lib.install();
  dvm::ClassObject* cls = device.dvm.define_class("Levil_stm;");
  dvm::Method* m = device.dvm.define_native(
      cls, "poke", "V", dvm::kAccPublic | dvm::kAccStatic, fn);
  device.dvm.call(*m, {});
  EXPECT_EQ(nd.guard()->alerts().size(), 2u);  // one per stored register
}

TEST_P(TaintGuardTest, ConditionalStoreThatDoesNotExecuteIsNotFlagged) {
  NDroid nd(device, guarded());
  apps::NativeLibBuilder lib(device, "evil_cond");
  auto& a = lib.a();
  using arm::R;
  const GuestAddr fn = lib.fn();
  a.mov_imm32(R(1), Layout::kDalvikStack + 0x200);
  a.mov_imm(R(0), 0);
  a.cmp(R(0), R(0));    // Z set
  a.word(0x15810000);   // strne r0, [r1]: condition fails, no store
  a.word(0x05810004);   // streq r0, [r1, #4]: executes
  a.ret();
  lib.install();
  dvm::ClassObject* cls = device.dvm.define_class("Levil_cond;");
  dvm::Method* m = device.dvm.define_native(
      cls, "poke", "V", dvm::kAccPublic | dvm::kAccStatic, fn);
  device.dvm.call(*m, {});
  ASSERT_EQ(nd.guard()->alerts().size(), 1u);
  EXPECT_EQ(nd.guard()->alerts()[0].target, Layout::kDalvikStack + 0x204);
}

TEST(TaintGuard, BenignStoreLoopStaysOnTheCleanStream) {
  // The guard checks stores on the CPU's store hook, so with taint clean a
  // third-party store loop costs a check per store, not a traced block.
  Device device;
  ASSERT_EQ(device.cpu.engine(), arm::Engine::kThreaded);
  NDroid nd(device, guarded());
  const GuestAddr own = device.libc.malloc_guest(16);
  apps::NativeLibBuilder lib(device, "benign_loop");
  auto& a = lib.a();
  using arm::R;
  const GuestAddr fn = lib.fn();
  arm::Label loop;
  a.mov_imm32(R(1), own);
  a.mov_imm32(R(2), 1000);
  a.bind(loop);
  a.str(R(2), R(1), 0);
  a.sub_imm(R(2), R(2), 1, /*s=*/true);
  a.b(loop, arm::Cond::kNE);
  a.ret();
  lib.install();
  dvm::ClassObject* cls = device.dvm.define_class("Lbenign_loop;");
  dvm::Method* m = device.dvm.define_native(
      cls, "fill", "V", dvm::kAccPublic | dvm::kAccStatic, fn);
  const u64 fast_before = device.cpu.fastpath_blocks();
  device.dvm.call(*m, {});
  EXPECT_TRUE(nd.guard()->alerts().empty());
  EXPECT_EQ(nd.tracer().instructions_traced(), 0u);
  EXPECT_GE(device.cpu.fastpath_blocks() - fast_before, 1000u);
  EXPECT_EQ(device.memory.read32(own), 1u);  // the last store landed
}

}  // namespace
}  // namespace ndroid::core
