#include <gtest/gtest.h>

#include "arm/assembler.h"
#include "common/taint_tags.h"
#include "dvm/dvm.h"

namespace ndroid::dvm {
namespace {

class DvmFixture : public ::testing::Test {
 protected:
  static constexpr GuestAddr kNativeCode = 0x10000;

  DvmFixture()
      : cpu_(mem_, map_),
        dvm_(cpu_, /*heap*/ 0x34000000, 0x200000,
             /*stack*/ 0x38000000, 0x40000) {
    map_.add("libapp.so", kNativeCode, 0x4000, mem::kRX);
    map_.add("[stack]", 0xBE000000, 0x100000, mem::kRW);
    cpu_.set_initial_sp(0xBE100000);
  }

  /// Assembles an ARM-mode native function body into libapp.so.
  GuestAddr install_native(const std::function<void(arm::Assembler&)>& body) {
    arm::Assembler a(kNativeCode + native_bump_);
    body(a);
    auto code = a.finish();
    const GuestAddr addr = kNativeCode + native_bump_;
    mem_.write_bytes(addr, code);
    native_bump_ += static_cast<u32>(code.size());
    return addr;
  }

  mem::AddressSpace mem_;
  mem::MemoryMap map_;
  arm::Cpu cpu_;
  Dvm dvm_;
  u32 native_bump_ = 0;
};

TEST_F(DvmFixture, InterpretedArithmetic) {
  ClassObject* cls = dvm_.define_class("Lcom/example/Calc;");
  CodeBuilder cb;
  // int add(int a, int b): v2 = a (v0), v3 = b (v1) ... registers: 4 total,
  // ins = 2 -> args in v2, v3.
  cb.add(0, 2, 3).return_value(0);
  Method* m = dvm_.define_method(cls, "add", "III",
                                 kAccPublic | kAccStatic, 4, cb.take());
  const Slot r = dvm_.call(*m, {Slot{40, 0}, Slot{2, 0}});
  EXPECT_EQ(r.value, 42u);
  EXPECT_EQ(r.taint, kTaintClear);
}

TEST_F(DvmFixture, TaintFlowsThroughBinop) {
  ClassObject* cls = dvm_.define_class("LFlow;");
  CodeBuilder cb;
  cb.add(0, 2, 3).return_value(0);
  Method* m =
      dvm_.define_method(cls, "add", "III", kAccPublic | kAccStatic, 4,
                         cb.take());
  const Slot r = dvm_.call(*m, {Slot{1, kTaintImei}, Slot{2, kTaintSms}});
  EXPECT_EQ(r.value, 3u);
  EXPECT_EQ(r.taint, kTaintImei | kTaintSms);
}

TEST_F(DvmFixture, ConstClearsTaint) {
  ClassObject* cls = dvm_.define_class("LConst;");
  CodeBuilder cb;
  cb.move(0, 2).const_imm(0, 7).return_value(0);
  Method* m = dvm_.define_method(cls, "f", "II", kAccPublic | kAccStatic, 3,
                                 cb.take());
  const Slot r = dvm_.call(*m, {Slot{5, kTaintImei}});
  EXPECT_EQ(r.value, 7u);
  EXPECT_EQ(r.taint, kTaintClear);
}

TEST_F(DvmFixture, TaintDisabledWhenPolicyOff) {
  dvm_.policy().propagate_java = false;
  ClassObject* cls = dvm_.define_class("LOff;");
  CodeBuilder cb;
  cb.add(0, 2, 3).return_value(0);
  Method* m = dvm_.define_method(cls, "add", "III", kAccPublic | kAccStatic,
                                 4, cb.take());
  const Slot r = dvm_.call(*m, {Slot{1, kTaintImei}, Slot{2, 0}});
  EXPECT_EQ(r.taint, kTaintClear);
}

TEST_F(DvmFixture, ArrayTaintIsObjectLevel) {
  // TaintDroid: one label per array object; aput unions, aget reads it back.
  ClassObject* cls = dvm_.define_class("LArr;");
  CodeBuilder cb;
  // v0 = new int[2]; v0[v1=0] = tainted arg (v4); v2 = v0[1]; return v2
  cb.const_imm(1, 2)
      .new_array(0, 1, 4, false)
      .const_imm(1, 0)
      .aput(4, 0, 1)
      .const_imm(1, 1)
      .aget(2, 0, 1)
      .return_value(2);
  Method* m = dvm_.define_method(cls, "f", "II", kAccPublic | kAccStatic, 5,
                                 cb.take());
  const Slot r = dvm_.call(*m, {Slot{0xAB, kTaintContacts}});
  // Element 1 was never written (value 0) but the array-level taint applies.
  EXPECT_EQ(r.value, 0u);
  EXPECT_EQ(r.taint, kTaintContacts);
}

TEST_F(DvmFixture, InstanceFieldTaintInterleaved) {
  ClassObject* cls = dvm_.define_class("LObj;");
  cls->add_instance_field("secret", 'I');
  CodeBuilder cb;
  // v0 = new Obj; v0.secret = arg(v3); v1 = v0.secret; return v1
  cb.new_instance(0, cls).iput(3, 0, 0).iget(1, 0, 0).return_value(1);
  Method* m = dvm_.define_method(cls, "f", "II", kAccPublic | kAccStatic, 4,
                                 cb.take());
  const Slot r = dvm_.call(*m, {Slot{77, kTaintImsi}});
  EXPECT_EQ(r.value, 77u);
  EXPECT_EQ(r.taint, kTaintImsi);
}

TEST_F(DvmFixture, StaticFieldTaint) {
  ClassObject* cls = dvm_.define_class("LStatics;");
  cls->add_static_field("cache", 'I');
  CodeBuilder store, load;
  store.sput(2, cls, 0).return_void();
  Method* ms = dvm_.define_method(cls, "store", "VI",
                                  kAccPublic | kAccStatic, 3, store.take());
  load.sget(0, cls, 0).return_value(0);
  Method* ml = dvm_.define_method(cls, "load", "I", kAccPublic | kAccStatic,
                                  1, load.take());
  dvm_.call(*ms, {Slot{5, kTaintSms}});
  const Slot r = dvm_.call(*ml, {});
  EXPECT_EQ(r.value, 5u);
  EXPECT_EQ(r.taint, kTaintSms);
}

TEST_F(DvmFixture, LoopAndBranches) {
  ClassObject* cls = dvm_.define_class("LLoop;");
  CodeBuilder cb;
  // sum 1..n: v0=acc, v1=i, v2=n(arg)
  cb.const_imm(0, 0).const_imm(1, 1);
  const i32 loop_head = cb.here();
  // Layout indices: 0:const,1:const, 2:if, 3:add, 4:add_imm, 5:goto, 6:return
  cb.if_op(DOp::kIfLt, 2, 1, 6);  // placeholder semantics: if n < i -> exit
  cb.add(0, 0, 1).add_imm(1, 1, 1).goto_(loop_head);
  cb.return_value(0);
  Method* m = dvm_.define_method(cls, "sum", "II", kAccPublic | kAccStatic,
                                 3, cb.take());
  EXPECT_EQ(dvm_.call(*m, {Slot{10, 0}}).value, 55u);
}

TEST_F(DvmFixture, JavaToJavaInvokePropagatesTaint) {
  ClassObject* cls = dvm_.define_class("LNest;");
  CodeBuilder inner;
  inner.add(0, 1, 2).return_value(0);
  Method* mi = dvm_.define_method(cls, "inner", "III",
                                  kAccPublic | kAccStatic, 3, inner.take());
  CodeBuilder outer;
  outer.const_imm(0, 10).invoke(mi, {0, 2}).move_result(1).return_value(1);
  Method* mo = dvm_.define_method(cls, "outer", "II",
                                  kAccPublic | kAccStatic, 3, outer.take());
  const Slot r = dvm_.call(*mo, {Slot{32, kTaintLocation}});
  EXPECT_EQ(r.value, 42u);
  EXPECT_EQ(r.taint, kTaintLocation);
}

TEST_F(DvmFixture, BuiltinSourceTaintsResult) {
  ClassObject* cls = dvm_.define_class("LTel;");
  Method* src = dvm_.define_builtin(
      cls, "getDeviceId", "I", kAccPublic | kAccStatic,
      [](Dvm&, std::vector<Slot>&) { return Slot{35391805u, kTaintImei}; });
  CodeBuilder cb;
  cb.invoke(src, {}).move_result(0).return_value(0);
  Method* m = dvm_.define_method(cls, "f", "I", kAccPublic | kAccStatic, 1,
                                 cb.take());
  const Slot r = dvm_.call(*m, {});
  EXPECT_EQ(r.value, 35391805u);
  EXPECT_EQ(r.taint, kTaintImei);
}

TEST_F(DvmFixture, NativeInvokeThroughGuestBridge) {
  // Native method doubles its int argument: args = (JNIEnv*, jclass, int).
  const GuestAddr fn = install_native([](arm::Assembler& a) {
    a.add(arm::R(0), arm::R(2), arm::R(2));
    a.ret();
  });
  ClassObject* cls = dvm_.define_class("LNat;");
  Method* m =
      dvm_.define_native(cls, "twice", "II", kAccPublic | kAccStatic, fn);
  const Slot r = dvm_.call(*m, {Slot{21, 0}});
  EXPECT_EQ(r.value, 42u);
  EXPECT_EQ(r.taint, kTaintClear);
}

TEST_F(DvmFixture, TaintDroidJniReturnPolicy) {
  const GuestAddr fn = install_native([](arm::Assembler& a) {
    a.mov(arm::R(0), arm::R(2));
    a.ret();
  });
  ClassObject* cls = dvm_.define_class("LNatT;");
  Method* m =
      dvm_.define_native(cls, "id", "II", kAccPublic | kAccStatic, fn);
  // Policy on: tainted parameter -> tainted return (paper §IV).
  Slot r = dvm_.call(*m, {Slot{7, kTaintImei}});
  EXPECT_EQ(r.taint, kTaintImei);
  // Policy off (vanilla): no taint.
  dvm_.policy().jni_ret_union = false;
  r = dvm_.call(*m, {Slot{7, kTaintImei}});
  EXPECT_EQ(r.taint, kTaintClear);
}

TEST_F(DvmFixture, BridgeHookSeesMethodStructAndTaints) {
  // Simulates NDroid's JNI-entry hook: on branch to dvmCallJNIMethod, read
  // the guest Method struct and the interleaved taints via r0.
  const GuestAddr fn = install_native([](arm::Assembler& a) {
    a.mov_imm(arm::R(0), 0);
    a.ret();
  });
  ClassObject* cls = dvm_.define_class("Lcom/tencent/tccsync/LoginUtil;");
  Method* m = dvm_.define_native(cls, "makeLoginRequestPackageMd5", "II",
                                 kAccPublic | kAccStatic, fn);

  std::string seen_name, seen_shorty, seen_class;
  Taint seen_taint = 0;
  const GuestAddr bridge = dvm_.sym("dvmCallJNIMethod");
  cpu_.add_branch_hook([&](arm::Cpu& c, GuestAddr, GuestAddr to) {
    if (to != bridge) return;
    const auto& regs = c.state().regs;
    const GuestAddr method_struct = regs[2];
    seen_name = c.memory().read_cstr(
        c.memory().read32(method_struct + GuestMethodLayout::kName));
    seen_shorty = c.memory().read_cstr(
        c.memory().read32(method_struct + GuestMethodLayout::kShorty));
    seen_class = c.memory().read_cstr(
        c.memory().read32(method_struct + GuestMethodLayout::kClassDesc));
    seen_taint = c.memory().read32(regs[0] + 4);  // arg0 taint
  });
  dvm_.call(*m, {Slot{5, kTaintSms | kTaintContacts}});
  EXPECT_EQ(seen_name, "makeLoginRequestPackageMd5");
  EXPECT_EQ(seen_shorty, "II");
  EXPECT_EQ(seen_class, "Lcom/tencent/tccsync/LoginUtil;");
  EXPECT_EQ(seen_taint, kTaintSms | kTaintContacts);  // 0x202, as in Fig. 6
}

TEST_F(DvmFixture, NativeReceivesIndirectReferences) {
  // Native identity function on an object arg: (env, cls, jobject) -> jobject.
  const GuestAddr fn = install_native([](arm::Assembler& a) {
    a.mov(arm::R(0), arm::R(2));
    a.ret();
  });
  ClassObject* cls = dvm_.define_class("LIref;");
  Method* m =
      dvm_.define_native(cls, "id", "LL", kAccPublic | kAccStatic, fn);

  Object* str = dvm_.new_string("payload");
  u32 native_saw = 0;
  bool valid_inside = false;
  cpu_.add_branch_hook([&](arm::Cpu& c, GuestAddr, GuestAddr to) {
    if (to == fn) {
      native_saw = c.state().regs[2];
      valid_inside = dvm_.irt().is_valid(native_saw);
    }
  });
  const Slot r = dvm_.call(*m, {Slot{str->addr(), 0}});
  // The native side must have seen an indirect ref, not the direct pointer,
  // live for the duration of the call.
  EXPECT_NE(native_saw, str->addr());
  EXPECT_TRUE(valid_inside);
  // The bridge converted the returned iref back to a direct pointer...
  EXPECT_EQ(r.value, str->addr());
  // ...and the local died with the call's frame.
  EXPECT_FALSE(dvm_.irt().is_valid(native_saw));
  EXPECT_EQ(dvm_.irt().frame_depth(), 0u);
}

TEST_F(DvmFixture, NativeCallsReleaseTheirLocals) {
  // Instance method with an object parameter: two locals per call.
  const GuestAddr fn = install_native([](arm::Assembler& a) {
    a.mov(arm::R(0), arm::R(2));
    a.ret();
  });
  ClassObject* cls = dvm_.define_class("LLocals;");
  Method* m = dvm_.define_native(cls, "id", "LL", kAccPublic, fn);
  Object* receiver = dvm_.heap().new_instance(cls);
  Object* str = dvm_.new_string("payload");

  const u32 live = dvm_.irt().live_count();
  const u32 depth = dvm_.irt().frame_depth();
  for (u32 i = 0; i < 10000; ++i) {
    const Slot r = dvm_.call(*m, {Slot{receiver->addr(), 0},
                                  Slot{str->addr(), 0}});
    ASSERT_EQ(r.value, str->addr());
  }
  EXPECT_EQ(dvm_.irt().live_count(), live);
  EXPECT_EQ(dvm_.irt().frame_depth(), depth);
}

TEST_F(DvmFixture, FaultingNativeCallsReleaseTheirLocals) {
  // The native decodes a bogus handle, so the helper throws GuestFault
  // while the call's locals are live.
  const GuestAddr decode = dvm_.sym("dvmDecodeIndirectRef");
  const GuestAddr fn = install_native([decode](arm::Assembler& a) {
    a.push({arm::LR});
    a.mov_imm32(arm::R(0), 0x8000FFF5);
    a.call(decode);
    a.pop({arm::PC});
  });
  ClassObject* cls = dvm_.define_class("LFaulty;");
  Method* m = dvm_.define_native(cls, "boom", "VLL", kAccPublic | kAccStatic,
                                 fn);
  Object* a = dvm_.new_string("a");
  Object* b = dvm_.new_string("b");

  const u32 live = dvm_.irt().live_count();
  const u32 depth = dvm_.irt().frame_depth();
  for (u32 i = 0; i < 10000; ++i) {
    ASSERT_THROW(dvm_.call(*m, {Slot{a->addr(), 0}, Slot{b->addr(), 0}}),
                 GuestFault);
  }
  EXPECT_EQ(dvm_.irt().live_count(), live);
  EXPECT_EQ(dvm_.irt().frame_depth(), depth);
}

TEST_F(DvmFixture, CallMethodAStubRunsJavaFromNative) {
  // A Java method int sum3(int a, int b, int c).
  ClassObject* cls = dvm_.define_class("LCb;");
  CodeBuilder cb;
  cb.add(0, 2, 3).add(0, 0, 4).return_value(0);
  Method* m = dvm_.define_method(cls, "sum3", "IIII",
                                 kAccPublic | kAccStatic, 5, cb.take());

  // Native-side argument array (3 jvalues) and a JValue result.
  const GuestAddr args = dvm_.data_alloc(12);
  const GuestAddr result = dvm_.data_alloc(8);
  mem_.write32(args, 10);
  mem_.write32(args + 4, 20);
  mem_.write32(args + 8, 12);
  cpu_.call_function(dvm_.call_method_stub('A'),
                     {m->guest_addr, 0, result, args});
  EXPECT_EQ(mem_.read32(result), 42u);
}

TEST_F(DvmFixture, CallMethodClearsIncomingTaints) {
  // Taints do NOT follow native->Java calls without NDroid (the case 1'/3
  // under-tainting): a Java method receiving args from native sees clear
  // taint slots even though the Java method forwards them.
  ClassObject* cls = dvm_.define_class("LClr;");
  CodeBuilder cb;
  cb.return_value(2);
  Method* m =
      dvm_.define_method(cls, "id", "II", kAccPublic | kAccStatic, 3,
                         cb.take());
  const GuestAddr args = dvm_.data_alloc(4);
  const GuestAddr result = dvm_.data_alloc(8);
  mem_.write32(args, 1234);
  cpu_.call_function(dvm_.call_method_stub('V'),
                     {m->guest_addr, 0, result, args});
  EXPECT_EQ(mem_.read32(result), 1234u);
  EXPECT_EQ(dvm_.retval().taint, kTaintClear);
}

TEST_F(DvmFixture, MultilevelChainVisibleInBranchEvents) {
  // dvmCallMethodA -> dvmInterpret must be a guest-level branch (T3 of the
  // multilevel hooking chain, Fig. 5).
  ClassObject* cls = dvm_.define_class("LChain;");
  CodeBuilder cb;
  cb.return_void();
  Method* m = dvm_.define_method(cls, "cb", "V", kAccPublic | kAccStatic, 1,
                                 cb.take());
  const GuestAddr call_a = dvm_.call_method_stub('A');
  const GuestAddr interp = dvm_.sym("dvmInterpret");
  bool saw_t3 = false;
  cpu_.add_branch_hook([&](arm::Cpu&, GuestAddr from, GuestAddr to) {
    if (to == interp && from >= call_a && from < call_a + 0x40) {
      saw_t3 = true;
    }
  });
  const GuestAddr result = dvm_.data_alloc(8);
  cpu_.call_function(call_a, {m->guest_addr, 0, result, 0});
  EXPECT_TRUE(saw_t3);
}

TEST_F(DvmFixture, IndirectRefTableBasics) {
  Object* a = dvm_.new_string("a");
  Object* b = dvm_.new_string("b");
  const IndirectRef ra = dvm_.irt().add(a);
  const IndirectRef rb = dvm_.irt().add(b);
  EXPECT_NE(ra, rb);
  EXPECT_EQ(dvm_.irt().decode(ra), a);
  EXPECT_EQ(dvm_.irt().decode(rb), b);

  dvm_.irt().remove(ra);
  EXPECT_FALSE(dvm_.irt().is_valid(ra));
  EXPECT_THROW((void)dvm_.irt().decode(ra), GuestFault);

  // Slot reuse bumps the serial: the stale handle stays invalid.
  Object* c = dvm_.new_string("c");
  const IndirectRef rc = dvm_.irt().add(c);
  EXPECT_NE(rc, ra);
  EXPECT_FALSE(dvm_.irt().is_valid(ra));
  EXPECT_EQ(dvm_.irt().decode(rc), c);
}

TEST_F(DvmFixture, GcMovesObjectsButIrtSurvives) {
  Object* a = dvm_.new_string("first");
  Object* b = dvm_.new_string("second");
  const GuestAddr old_a = a->addr();
  const GuestAddr old_b = b->addr();
  const IndirectRef rb = dvm_.irt().add(b);
  dvm_.heap().set_object_taint(*b, kTaintContacts);

  const u32 moved = dvm_.run_gc();
  // The semi-space GC evacuates every object: all direct pointers change.
  EXPECT_GE(moved, 2u);
  EXPECT_NE(a->addr(), old_a);
  EXPECT_NE(b->addr(), old_b);
  // ...but indirect references, content, and the in-object taint survive.
  EXPECT_EQ(dvm_.irt().decode(rb), b);
  EXPECT_EQ(dvm_.heap().read_string(*b), "second");
  EXPECT_EQ(dvm_.heap().object_taint(*b), kTaintContacts);
  // A stale direct pointer no longer resolves to the object.
  EXPECT_EQ(dvm_.heap().object_at(old_b), nullptr);
}

TEST_F(DvmFixture, PendingExceptionMoveException) {
  ClassObject* cls = dvm_.define_class("LExc;");
  CodeBuilder cb;
  cb.move_exception(0).return_value(0);
  Method* m = dvm_.define_method(cls, "f", "L", kAccPublic | kAccStatic, 1,
                                 cb.take());
  Object* exc = dvm_.new_string("boom");
  dvm_.pending_exception = exc;
  const Slot r = dvm_.call(*m, {});
  EXPECT_EQ(r.value, exc->addr());
  EXPECT_EQ(dvm_.pending_exception, nullptr);
}

TEST_F(DvmFixture, DivisionByZeroFaults) {
  ClassObject* cls = dvm_.define_class("LDiv;");
  CodeBuilder cb;
  cb.binop(DOp::kDiv, 0, 2, 3).return_value(0);
  Method* m = dvm_.define_method(cls, "div", "III",
                                 kAccPublic | kAccStatic, 4, cb.take());
  EXPECT_THROW(dvm_.call(*m, {Slot{1, 0}, Slot{0, 0}}), GuestFault);
}

TEST_F(DvmFixture, FieldIdRoundTrip) {
  ClassObject* cls = dvm_.define_class("LFid;");
  cls->add_instance_field("x", 'I');
  cls->add_static_field("s", 'L');
  const GuestAddr fx = dvm_.field_id(cls, "x", false);
  const GuestAddr fs = dvm_.field_id(cls, "s", true);
  EXPECT_NE(fx, fs);
  EXPECT_EQ(dvm_.field_id(cls, "x", false), fx);  // cached
  const auto rx = dvm_.decode_field_id(fx);
  EXPECT_EQ(rx.field->name, "x");
  EXPECT_FALSE(rx.is_static);
  const auto rs = dvm_.decode_field_id(fs);
  EXPECT_TRUE(rs.is_static);
  EXPECT_THROW(dvm_.field_id(cls, "nope", false), GuestFault);
}

TEST_F(DvmFixture, BytecodeCounterAndObserver) {
  ClassObject* cls = dvm_.define_class("LCount;");
  CodeBuilder cb;
  cb.const_imm(0, 1).const_imm(1, 2).add(0, 0, 1).return_value(0);
  Method* m = dvm_.define_method(cls, "f", "I", kAccPublic | kAccStatic, 2,
                                 cb.take());
  u64 observed = 0;
  dvm_.set_dvm_insn_observer(
      [&](const Method&, const DInsn&) { ++observed; });
  const u64 before = dvm_.bytecodes_executed();
  dvm_.call(*m, {});
  EXPECT_EQ(dvm_.bytecodes_executed() - before, 4u);
  EXPECT_EQ(observed, 4u);
}

// --- Frame window -----------------------------------------------------------
// The interpreter reaches an in-page, unwatched frame through a host
// pointer and every other frame through the DvmStack accessors. Both paths
// must give the same value and taint; the window probe below runs moves,
// arithmetic, arrays, fields of the result, an interpreted invoke and a
// builtin, and records each activation's frame pointer.

class FrameWindowFixture : public DvmFixture {
 protected:
  static constexpr u16 kProbeRegs = 8;
  static constexpr GuestAddr kStackTop = 0x38000000 + 0x40000;

  FrameWindowFixture() {
    ClassObject* cls = dvm_.define_class("LWindow;");
    Method* record_fp = dvm_.define_builtin(
        cls, "recordFp", "V", kAccPublic | kAccStatic,
        [this](Dvm& dvm, std::vector<Slot>&) {
          fps_.push_back(dvm.stack().current_fp());
          return Slot{};
        });
    // int twice(int x) { return x + x; }
    CodeBuilder callee;
    callee.add(0, 1, 1).return_value(0);
    Method* twice = dvm_.define_method(cls, "twice", "II",
                                       kAccPublic | kAccStatic, 2,
                                       callee.take());
    // int probe(int x): a[i] = x + i for i < 4, then the sum of twice(a[i]).
    // v0 arr, v1 i, v2 len, v3 acc, v4 tmp, v5 tmp, v6 unused, v7 = x.
    CodeBuilder cb;
    cb.invoke(record_fp, {});
    cb.const_imm(2, 4).new_array(0, 2, 4, false).const_imm(1, 0);
    const i32 fill = cb.here();
    cb.if_op(DOp::kIfGe, 1, 2, fill + 5);
    cb.add(4, 7, 1).aput(4, 0, 1).add_imm(1, 1, 1).goto_(fill);
    cb.const_imm(1, 0).const_imm(3, 0);
    const i32 sum = cb.here();
    cb.if_op(DOp::kIfGe, 1, 2, sum + 8);
    cb.aget(4, 0, 1).invoke(twice, {4}).move_result(5).add(3, 3, 5);
    cb.move(6, 3).add_imm(1, 1, 1).goto_(sum);
    cb.return_value(6);
    probe_ = dvm_.define_method(cls, "probe", "II", kAccPublic | kAccStatic,
                                kProbeRegs, cb.take());
  }

  /// The probe's result with its frame in one unwatched page.
  Slot in_page_result() {
    fps_.clear();
    const Slot r = dvm_.call(*probe_, {Slot{5, kTaintImei}});
    EXPECT_EQ(fps_.size(), 1u);
    EXPECT_NE(mem_.host_window(fps_.at(0), 8u * kProbeRegs), nullptr);
    return r;
  }

  Method* probe_ = nullptr;
  std::vector<GuestAddr> fps_;
};

TEST_F(FrameWindowFixture, FrameStraddlingAPageMatchesTheInPageFrame) {
  const Slot expected = in_page_result();
  // (5 + 6 + 7 + 8) * 2, tainted through the array's object taint.
  EXPECT_EQ(expected.value, 52u);
  EXPECT_EQ(expected.taint, kTaintImei);

  // Move the stack pointer so the probe's frame [fp, fp + 64) crosses the
  // page boundary 4 KiB below the top: an outs area of 508 args takes
  // 8 * 508 + 4 = 4068 bytes, and fp = top - 4068 - 64.
  const u32 pad_args = 508;
  dvm_.stack().push_outs(pad_args);
  fps_.clear();
  const Slot r = dvm_.call(*probe_, {Slot{5, kTaintImei}});
  dvm_.stack().pop_outs(pad_args);
  ASSERT_EQ(fps_.size(), 1u);
  const GuestAddr fp = fps_[0];
  ASSERT_NE(fp >> 12, (fp + 8u * kProbeRegs - 1) >> 12) << std::hex << fp;
  EXPECT_EQ(mem_.host_window(fp, 8u * kProbeRegs), nullptr);
  EXPECT_EQ(r.value, expected.value);
  EXPECT_EQ(r.taint, expected.taint);
}

TEST_F(FrameWindowFixture, FrameOnAWatchedPageFiresTheWatch) {
  const Slot expected = in_page_result();
  const GuestAddr fp = fps_.at(0);
  const GuestAddr frame_end = fp + 8u * kProbeRegs;
  u32 frame_writes = 0;
  mem_.set_write_watch([&](GuestAddr addr, u32 len) {
    if (addr < frame_end && addr + len > fp) ++frame_writes;
  });
  mem_.set_page_watched(fp >> 12, true);
  EXPECT_EQ(mem_.host_window(fp, 8u * kProbeRegs), nullptr);

  fps_.clear();
  const Slot r = dvm_.call(*probe_, {Slot{5, kTaintImei}});
  mem_.set_page_watched(fp >> 12, false);
  ASSERT_EQ(fps_.size(), 1u);
  EXPECT_EQ(fps_[0], fp);  // the same frame, now watched
  EXPECT_EQ(r.value, expected.value);
  EXPECT_EQ(r.taint, expected.taint);
  // push_frame clears the registers, then the interpreter writes them:
  // every one of those stores went through the watch.
  EXPECT_GT(frame_writes, 2u * kProbeRegs);
}

TEST_F(DvmFixture, VerifierRejectsAnOutOfRangeRegister) {
  ClassObject* cls = dvm_.define_class("LBad;");
  CodeBuilder cb;
  cb.add(0, 2, 9).return_value(0);  // v9 in a 4-register frame
  Method* m = dvm_.define_method(cls, "reach", "III",
                                 kAccPublic | kAccStatic, 4, cb.take());
  const DvmStack::Mark start = dvm_.stack().mark();
  try {
    dvm_.call(*m, {Slot{1, 0}, Slot{2, 0}});
    ADD_FAILURE() << "v9 of a 4-register frame did not fault";
  } catch (const GuestFault& e) {
    EXPECT_NE(std::string(e.what()).find("LBad;.reach"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("v9"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(dvm_.stack().mark().sp, start.sp);
  // An invoke's argument registers are operands too.
  CodeBuilder caller;
  caller.invoke(m, {0, 7}).return_void();
  Method* c = dvm_.define_method(cls, "pass", "V", kAccPublic | kAccStatic,
                                 2, caller.take());
  EXPECT_THROW(dvm_.call(*c, {}), GuestFault);
}

TEST_F(DvmFixture, VerifierRejectsInsSizeAboveRegistersSize) {
  ClassObject* cls = dvm_.define_class("LShort;");
  CodeBuilder cb;
  cb.return_void();
  // Two int arguments need ins_size 2; the frame has one register.
  Method* m = dvm_.define_method(cls, "cramped", "VII",
                                 kAccPublic | kAccStatic, 1, cb.take());
  ASSERT_EQ(m->ins_size, 2u);
  try {
    dvm_.call(*m, {Slot{1, 0}, Slot{2, 0}});
    ADD_FAILURE() << "ins_size 2 > registers_size 1 did not fault";
  } catch (const GuestFault& e) {
    EXPECT_NE(std::string(e.what()).find("LShort;.cramped"),
              std::string::npos)
        << e.what();
  }
  // Reached from an interpreted invoke, it faults the same way.
  CodeBuilder caller;
  caller.const_imm(0, 1).invoke(m, {0, 0}).return_void();
  Method* c = dvm_.define_method(cls, "call", "V", kAccPublic | kAccStatic,
                                 1, caller.take());
  EXPECT_THROW(dvm_.call(*c, {}), GuestFault);
}

TEST_F(DvmFixture, StringObjectGuestLayout) {
  Object* s = dvm_.new_string("hello");
  dvm_.heap().set_object_taint(*s, 0x202);
  // [taint][len][bytes]
  EXPECT_EQ(mem_.read32(s->addr()), 0x202u);
  EXPECT_EQ(mem_.read32(s->addr() + 4), 5u);
  EXPECT_EQ(mem_.read_cstr(s->addr() + 8), "hello");
  EXPECT_EQ(dvm_.heap().object_taint(*s), 0x202u);
}

TEST_F(DvmFixture, MafStubsAllocateObjects) {
  // dvmCreateStringFromCstr through the guest stub, as NewStringUTF uses it.
  const GuestAddr cstr = dvm_.data_cstr("http://sync.3g.qq.com/xpimlogin");
  const u32 real_addr =
      cpu_.call_function(dvm_.sym("dvmCreateStringFromCstr"), {cstr});
  Object* obj = dvm_.heap().object_at(real_addr);
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->utf(), "http://sync.3g.qq.com/xpimlogin");

  const u32 arr_addr =
      cpu_.call_function(dvm_.sym("dvmAllocPrimitiveArray"), {1, 16});
  Object* arr = dvm_.heap().object_at(arr_addr);
  ASSERT_NE(arr, nullptr);
  EXPECT_EQ(arr->length(), 16u);
  EXPECT_EQ(arr->elem_size(), 1u);
}

TEST_F(DvmFixture, DecodeIndirectRefStub) {
  Object* s = dvm_.new_string("x");
  const IndirectRef ref = dvm_.irt().add(s);
  const u32 direct =
      cpu_.call_function(dvm_.sym("dvmDecodeIndirectRef"), {ref});
  EXPECT_EQ(direct, s->addr());
}

}  // namespace
}  // namespace ndroid::dvm
