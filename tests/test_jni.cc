#include <gtest/gtest.h>

#include "arm/assembler.h"
#include "common/taint_tags.h"
#include "jni/jnienv.h"

namespace ndroid::jni {
namespace {

using arm::Assembler;
using arm::IP;
using arm::LR;
using arm::PC;
using arm::R;
using dvm::Slot;

class JniFixture : public ::testing::Test {
 protected:
  static constexpr GuestAddr kNativeCode = 0x10000;

  JniFixture()
      : cpu_(mem_, map_),
        kernel_(mem_, map_),
        dvm_(cpu_, 0x34000000, 0x200000, 0x38000000, 0x40000),
        env_(dvm_, kernel_) {
    map_.add("libapp.so", kNativeCode, 0x8000, mem::kRX);
    map_.add("[stack]", 0xBE000000, 0x100000, mem::kRW);
    cpu_.set_initial_sp(0xBE100000);
    kernel_.attach(cpu_);
  }

  GuestAddr install_native(const std::function<void(Assembler&)>& body) {
    Assembler a(kNativeCode + native_bump_);
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
  os::Kernel kernel_;
  dvm::Dvm dvm_;
  JniEnv env_;
  u32 native_bump_ = 0;
};

TEST_F(JniFixture, FindClassAndGetMethodId) {
  dvm::ClassObject* cls = dvm_.define_class("Lcom/demo/Util;");
  dvm::CodeBuilder cb;
  cb.return_void();
  dvm::Method* m = dvm_.define_method(cls, "ping", "V",
                                      dvm::kAccPublic | dvm::kAccStatic, 1,
                                      cb.take());
  const GuestAddr name = dvm_.data_cstr("com/demo/Util");
  const u32 jclass =
      cpu_.call_function(env_.fn("FindClass"), {env_.env_addr(), name});
  EXPECT_EQ(dvm_.class_at(jclass), cls);

  const GuestAddr mname = dvm_.data_cstr("ping");
  const u32 mid = cpu_.call_function(env_.fn("GetMethodID"),
                                     {env_.env_addr(), jclass, mname, 0});
  EXPECT_EQ(mid, m->guest_addr);

  const GuestAddr missing = dvm_.data_cstr("com/missing/Cls");
  EXPECT_EQ(cpu_.call_function(env_.fn("FindClass"),
                               {env_.env_addr(), missing}),
            0u);
}

TEST_F(JniFixture, NewStringUtfChainIsGuestVisible) {
  // Fig. 6: NewStringUTF Begin -> dvmCreateStringFromCstr Begin/End ->
  // NewStringUTF End. Both entries must appear as guest branch targets.
  const GuestAddr nof = env_.fn("NewStringUTF");
  const GuestAddr maf = dvm_.sym("dvmCreateStringFromCstr");
  bool saw_nof = false, saw_maf_from_nof = false;
  u32 maf_result = 0;
  cpu_.add_branch_hook([&](arm::Cpu& c, GuestAddr from, GuestAddr to) {
    if (to == nof) saw_nof = true;
    if (to == maf && from >= nof && from < nof + 0x40) {
      saw_maf_from_nof = true;
    }
    if (from >= maf && from < maf + 0x20 && to > nof && to < nof + 0x40) {
      maf_result = c.state().regs[0];  // real object address on MAF return
    }
  });

  const GuestAddr cstr = dvm_.data_cstr("http://sync.3g.qq.com/xpimlogin");
  const u32 iref =
      cpu_.call_function(nof, {env_.env_addr(), cstr});
  EXPECT_TRUE(saw_nof);
  EXPECT_TRUE(saw_maf_from_nof);
  ASSERT_TRUE(dvm_.irt().is_valid(iref));
  dvm::Object* obj = dvm_.irt().decode(iref);
  EXPECT_EQ(obj->utf(), "http://sync.3g.qq.com/xpimlogin");
  EXPECT_EQ(maf_result, obj->addr());
}

TEST_F(JniFixture, GetStringUTFCharsCopiesWithoutTaint) {
  dvm::Object* str = dvm_.new_string("1|Vincent|cx@gg.com");
  dvm_.heap().set_object_taint(*str, kTaintContacts);
  const u32 iref = dvm_.irt().add(str);
  const u32 buf = cpu_.call_function(env_.fn("GetStringUTFChars"),
                                     {env_.env_addr(), iref, 0});
  ASSERT_NE(buf, 0u);
  EXPECT_EQ(mem_.read_cstr(buf), "1|Vincent|cx@gg.com");
  // The DVM-side object taint does NOT follow into the native buffer —
  // TaintDroid's JNI gap (NDroid's hook repairs this).
}

TEST_F(JniFixture, PrimArrayRoundTrip) {
  const u32 arr_iref = cpu_.call_function(env_.fn("NewIntArray"),
                                          {env_.env_addr(), 4});
  ASSERT_TRUE(dvm_.irt().is_valid(arr_iref));
  dvm::Object* arr = dvm_.irt().decode(arr_iref);
  EXPECT_EQ(arr->length(), 4u);
  EXPECT_EQ(arr->elem_size(), 4u);

  EXPECT_EQ(cpu_.call_function(env_.fn("GetArrayLength"),
                               {env_.env_addr(), arr_iref}),
            4u);

  // SetIntArrayRegion(env, arr, 0, 4, buf): 5th arg on the native stack.
  const GuestAddr buf = dvm_.data_alloc(16);
  for (u32 i = 0; i < 4; ++i) mem_.write32(buf + 4 * i, (i + 1) * 11);
  cpu_.call_function(env_.fn("SetIntArrayRegion"),
                     {env_.env_addr(), arr_iref, 0, 4, buf});
  EXPECT_EQ(dvm_.heap().array_get(*arr, 3), 44u);

  const u32 elems = cpu_.call_function(env_.fn("GetIntArrayElements"),
                                       {env_.env_addr(), arr_iref, 0});
  ASSERT_NE(elems, 0u);
  EXPECT_EQ(mem_.read32(elems + 8), 33u);

  // Mutate the copy and release with mode 0 (copy back).
  mem_.write32(elems, 99);
  cpu_.call_function(env_.fn("ReleaseIntArrayElements"),
                     {env_.env_addr(), arr_iref, elems, 0});
  EXPECT_EQ(dvm_.heap().array_get(*arr, 0), 99u);
}

TEST_F(JniFixture, ReleaseArrayElementsModes) {
  // 0: copy back and free; JNI_COMMIT: copy back, keep; JNI_ABORT: free
  // without copying back.
  const u32 arr_iref = cpu_.call_function(env_.fn("NewIntArray"),
                                          {env_.env_addr(), 2});
  dvm::Object* arr = dvm_.irt().decode(arr_iref);
  const os::NativeHeap& heap = kernel_.heap();
  const auto get = [&] {
    return cpu_.call_function(env_.fn("GetIntArrayElements"),
                              {env_.env_addr(), arr_iref, 0});
  };
  const auto release = [&](u32 elems, u32 mode) {
    cpu_.call_function(env_.fn("ReleaseIntArrayElements"),
                       {env_.env_addr(), arr_iref, elems, mode});
  };

  const u32 elems = get();
  mem_.write32(elems, 7);
  release(elems, kJniCommit);
  EXPECT_EQ(dvm_.heap().array_get(*arr, 0), 7u);
  EXPECT_NE(heap.block_size(elems), 0u);
  mem_.write32(elems + 4, 8);
  release(elems, kJniAbort);
  EXPECT_EQ(dvm_.heap().array_get(*arr, 1), 0u);
  EXPECT_EQ(heap.block_size(elems), 0u);

  const u32 again = get();
  EXPECT_EQ(again, elems);  // the freed block is reused
  mem_.write32(again + 4, 9);
  release(again, 0);
  EXPECT_EQ(dvm_.heap().array_get(*arr, 1), 9u);
  EXPECT_EQ(heap.block_size(again), 0u);
}

TEST_F(JniFixture, StringBuffersReleasedInPairsKeepTheHeapFlat) {
  dvm::Object* str = dvm_.new_string("monkey-input-123");
  const u32 iref = dvm_.irt().add(str);
  const auto pair = [&] {
    const u32 buf = cpu_.call_function(env_.fn("GetStringUTFChars"),
                                       {env_.env_addr(), iref, 0});
    cpu_.call_function(env_.fn("ReleaseStringUTFChars"),
                       {env_.env_addr(), iref, buf});
    return buf;
  };
  const u32 first = pair();
  const u32 mapped = kernel_.heap().mapped_bytes();
  for (u32 i = 0; i < 100000; ++i) ASSERT_EQ(pair(), first) << i;
  EXPECT_EQ(kernel_.heap().mapped_bytes(), mapped);
  EXPECT_EQ(kernel_.heap().live_blocks(), 0u);
}

TEST_F(JniFixture, ObjectArrayElementAccess) {
  dvm::ClassObject* str_cls = dvm_.string_class();
  const u32 arr_iref = cpu_.call_function(
      env_.fn("NewObjectArray"),
      {env_.env_addr(), 2, dvm_.class_mirror(str_cls), 0});
  dvm::Object* s = dvm_.new_string("element");
  const u32 s_iref = dvm_.irt().add(s);
  cpu_.call_function(env_.fn("SetObjectArrayElement"),
                     {env_.env_addr(), arr_iref, 1, s_iref});
  const u32 got = cpu_.call_function(env_.fn("GetObjectArrayElement"),
                                     {env_.env_addr(), arr_iref, 1});
  EXPECT_EQ(dvm_.irt().decode(got), s);
}

TEST_F(JniFixture, FieldAccessThroughJni) {
  dvm::ClassObject* cls = dvm_.define_class("LAcct;");
  cls->add_instance_field("balance", 'I');
  cls->add_instance_field("owner", 'L');
  dvm::Object* obj = dvm_.heap().new_instance(cls);
  const u32 obj_iref = dvm_.irt().add(obj);

  const GuestAddr fname = dvm_.data_cstr("balance");
  const u32 fid = cpu_.call_function(
      env_.fn("GetFieldID"),
      {env_.env_addr(), dvm_.class_mirror(cls), fname, 0});

  cpu_.call_function(env_.fn("SetIntField"),
                     {env_.env_addr(), obj_iref, fid, 4200});
  EXPECT_EQ(obj->fields()[0].value, 4200u);
  EXPECT_EQ(cpu_.call_function(env_.fn("GetIntField"),
                               {env_.env_addr(), obj_iref, fid}),
            4200u);

  // Object field: store a string by iref, read it back as a new local ref.
  dvm::Object* s = dvm_.new_string("alice");
  const u32 s_iref = dvm_.irt().add(s);
  const GuestAddr oname = dvm_.data_cstr("owner");
  const u32 ofid = cpu_.call_function(
      env_.fn("GetFieldID"),
      {env_.env_addr(), dvm_.class_mirror(cls), oname, 0});
  cpu_.call_function(env_.fn("SetObjectField"),
                     {env_.env_addr(), obj_iref, ofid, s_iref});
  EXPECT_EQ(obj->fields()[1].value, s->addr());
  const u32 back = cpu_.call_function(env_.fn("GetObjectField"),
                                      {env_.env_addr(), obj_iref, ofid});
  EXPECT_EQ(dvm_.irt().decode(back), s);
}

TEST_F(JniFixture, StaticFieldAccess) {
  dvm::ClassObject* cls = dvm_.define_class("LCfg;");
  cls->add_static_field("flags", 'I');
  const GuestAddr fname = dvm_.data_cstr("flags");
  const u32 fid = cpu_.call_function(
      env_.fn("GetStaticFieldID"),
      {env_.env_addr(), dvm_.class_mirror(cls), fname, 0});
  cpu_.call_function(env_.fn("SetStaticIntField"),
                     {env_.env_addr(), dvm_.class_mirror(cls), fid, 7});
  EXPECT_EQ(cpu_.call_function(env_.fn("GetStaticIntField"),
                               {env_.env_addr(), dvm_.class_mirror(cls), fid}),
            7u);
}

TEST_F(JniFixture, CallStaticIntMethodFromNative) {
  dvm::ClassObject* cls = dvm_.define_class("LMath;");
  dvm::CodeBuilder cb;
  cb.add(0, 2, 3).return_value(0);
  dvm::Method* m = dvm_.define_method(
      cls, "plus", "III", dvm::kAccPublic | dvm::kAccStatic, 4, cb.take());

  const GuestAddr args = dvm_.data_alloc(8);
  mem_.write32(args, 40);
  mem_.write32(args + 4, 2);
  const u32 r = cpu_.call_function(
      env_.fn("CallStaticIntMethodA"),
      {env_.env_addr(), dvm_.class_mirror(cls), m->guest_addr, args});
  EXPECT_EQ(r, 42u);
}

TEST_F(JniFixture, CallObjectMethodReturnsLocalRef) {
  dvm::ClassObject* cls = dvm_.define_class("LProv;");
  dvm::CodeBuilder cb;
  cb.const_string(0, "device-contacts").return_value(0);
  dvm::Method* m = dvm_.define_method(
      cls, "fetch", "L", dvm::kAccPublic | dvm::kAccStatic, 1, cb.take());
  const u32 r = cpu_.call_function(
      env_.fn("CallStaticObjectMethodV"),
      {env_.env_addr(), dvm_.class_mirror(cls), m->guest_addr, 0});
  ASSERT_TRUE(dvm_.irt().is_valid(r));
  EXPECT_EQ(dvm_.irt().decode(r)->utf(), "device-contacts");
}

TEST_F(JniFixture, CallVoidMethodOnInstance) {
  dvm::ClassObject* cls = dvm_.define_class("LSink;");
  cls->add_instance_field("last", 'I');
  dvm::CodeBuilder cb;
  // void set(this=v1, x=v2): this.last = x
  cb.iput(2, 1, 0).return_void();
  dvm::Method* m =
      dvm_.define_method(cls, "set", "VI", dvm::kAccPublic, 3, cb.take());
  dvm::Object* obj = dvm_.heap().new_instance(cls);
  const u32 obj_iref = dvm_.irt().add(obj);
  const GuestAddr args = dvm_.data_alloc(4);
  mem_.write32(args, 1234);
  cpu_.call_function(env_.fn("CallVoidMethodA"),
                     {env_.env_addr(), obj_iref, m->guest_addr, args});
  EXPECT_EQ(obj->fields()[0].value, 1234u);
}

TEST_F(JniFixture, NativeCodeUsesEnvTableIndirection) {
  // Native: jstring make(JNIEnv* env, jclass): resolves NewStringUTF from
  // the env table (env -> table -> fn) and calls it.
  const GuestAddr cstr = dvm_.data_cstr("from-table");
  const u32 idx = static_cast<u32>(JniFn::kNewStringUTF);
  const GuestAddr fn = install_native([&](Assembler& a) {
    a.push({R(4), LR});
    a.mov(R(4), R(0));                        // env
    a.ldr(IP, R(4), 0);                       // table
    a.ldr(IP, IP, static_cast<i32>(4 * idx)); // NewStringUTF
    a.mov(R(0), R(4));
    a.mov_imm32(R(1), cstr);
    a.blx(IP);
    a.pop({R(4), PC});
  });
  dvm::ClassObject* cls = dvm_.define_class("LTab;");
  dvm::Method* m = dvm_.define_native(
      cls, "make", "L", dvm::kAccPublic | dvm::kAccStatic, fn);
  const Slot r = dvm_.call(*m, {});
  dvm::Object* s = dvm_.heap().object_at(r.value);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->utf(), "from-table");
}

TEST_F(JniFixture, ThrowNewChainSetsPendingException) {
  dvm::ClassObject* exc_cls = dvm_.define_class("Ljava/io/IOException;");
  const GuestAddr msg = dvm_.data_cstr("imei:354958031234567");

  const GuestAddr init_exc = env_.fn("ThrowNew");
  const GuestAddr init_exception = env_.symbols().at("initException");
  const GuestAddr maf = dvm_.sym("dvmCreateStringFromCstr");
  bool chain_init = false, chain_maf = false;
  cpu_.add_branch_hook([&](arm::Cpu&, GuestAddr from, GuestAddr to) {
    if (to == init_exception && from >= init_exc && from < init_exc + 0x40) {
      chain_init = true;
    }
    if (to == maf && from >= init_exception &&
        from < init_exception + 0x40) {
      chain_maf = true;
    }
  });

  cpu_.call_function(env_.fn("ThrowNew"),
                     {env_.env_addr(), dvm_.class_mirror(exc_cls), msg});
  EXPECT_TRUE(chain_init);
  EXPECT_TRUE(chain_maf);
  ASSERT_NE(dvm_.pending_exception, nullptr);
  dvm::Object* exc = dvm_.pending_exception;
  const dvm::Field* f = exc_cls->find_instance_field("message");
  ASSERT_NE(f, nullptr);
  dvm::Object* message =
      dvm_.heap().object_at(exc->fields()[f->index].value);
  ASSERT_NE(message, nullptr);
  EXPECT_EQ(message->utf(), "imei:354958031234567");

  // ExceptionOccurred / ExceptionClear round trip.
  const u32 exc_iref = cpu_.call_function(env_.fn("ExceptionOccurred"),
                                          {env_.env_addr()});
  EXPECT_EQ(dvm_.irt().decode(exc_iref), exc);
  cpu_.call_function(env_.fn("ExceptionClear"), {env_.env_addr()});
  EXPECT_EQ(dvm_.pending_exception, nullptr);
}

TEST_F(JniFixture, LocalAndGlobalRefs) {
  dvm::Object* s = dvm_.new_string("ref");
  const u32 local = dvm_.irt().add(s);
  const u32 global = cpu_.call_function(env_.fn("NewGlobalRef"),
                                        {env_.env_addr(), local});
  EXPECT_NE(local, global);
  cpu_.call_function(env_.fn("DeleteLocalRef"), {env_.env_addr(), local});
  EXPECT_FALSE(dvm_.irt().is_valid(local));
  EXPECT_TRUE(dvm_.irt().is_valid(global));
  EXPECT_EQ(dvm_.irt().decode(global), s);
}

TEST_F(JniFixture, GetObjectClass) {
  dvm::Object* s = dvm_.new_string("x");
  const u32 iref = dvm_.irt().add(s);
  const u32 jclass =
      cpu_.call_function(env_.fn("GetObjectClass"), {env_.env_addr(), iref});
  EXPECT_EQ(dvm_.class_at(jclass), dvm_.string_class());
}

TEST_F(JniFixture, LocalFramesReleaseRefs) {
  dvm::Object* outer_obj = dvm_.new_string("outer");
  const u32 outer = dvm_.irt().add(outer_obj);

  cpu_.call_function(env_.fn("PushLocalFrame"), {env_.env_addr(), 16});
  dvm::Object* inner_obj = dvm_.new_string("inner");
  const u32 inner = dvm_.irt().add(inner_obj);
  dvm::Object* survivor_obj = dvm_.new_string("survivor");
  const u32 survivor = dvm_.irt().add(survivor_obj);

  const u32 promoted = cpu_.call_function(env_.fn("PopLocalFrame"),
                                          {env_.env_addr(), survivor});
  // Refs created inside the frame are dead; the survivor got a new handle
  // in the enclosing frame; pre-existing refs are untouched.
  EXPECT_FALSE(dvm_.irt().is_valid(inner));
  EXPECT_FALSE(dvm_.irt().is_valid(survivor));
  ASSERT_TRUE(dvm_.irt().is_valid(promoted));
  EXPECT_EQ(dvm_.irt().decode(promoted), survivor_obj);
  EXPECT_TRUE(dvm_.irt().is_valid(outer));
}

TEST_F(JniFixture, PopWithoutPushFaults) {
  EXPECT_THROW(
      cpu_.call_function(env_.fn("PopLocalFrame"), {env_.env_addr(), 0}),
      GuestFault);
}

TEST_F(JniFixture, DeleteRefsDeleteOnlyTheirOwnKind) {
  dvm::Object* s = dvm_.new_string("ref");
  const u32 local = dvm_.irt().add(s);
  const u32 global = cpu_.call_function(env_.fn("NewGlobalRef"),
                                        {env_.env_addr(), local});
  cpu_.call_function(env_.fn("DeleteGlobalRef"), {env_.env_addr(), local});
  cpu_.call_function(env_.fn("DeleteLocalRef"), {env_.env_addr(), global});
  EXPECT_TRUE(dvm_.irt().is_valid(local));
  EXPECT_TRUE(dvm_.irt().is_valid(global));

  cpu_.call_function(env_.fn("DeleteGlobalRef"), {env_.env_addr(), global});
  EXPECT_FALSE(dvm_.irt().is_valid(global));
  EXPECT_THROW((void)dvm_.irt().decode(global), GuestFault);
  EXPECT_EQ(dvm_.irt().decode(local), s);
}

TEST_F(JniFixture, GetStringUtfLengthCountsBytes) {
  const u32 iref = dvm_.irt().add(dvm_.new_string("imei:354958"));
  EXPECT_EQ(cpu_.call_function(env_.fn("GetStringUTFLength"),
                               {env_.env_addr(), iref}),
            11u);
  EXPECT_EQ(cpu_.call_function(env_.fn(JniFn::kGetStringUTFLength),
                               {env_.env_addr(), 0}),
            0u);
}

TEST_F(JniFixture, GlobalRefInAFreedLocalSlotOutlivesTheCall) {
  // int keep(env, cls, jobject x, jobject y):
  //   DeleteLocalRef(x); return NewGlobalRef(y);
  // The global takes x's freed slot; closing the call's frame must not
  // release it along with x.
  const GuestAddr del = env_.fn("DeleteLocalRef");
  const GuestAddr new_global = env_.fn("NewGlobalRef");
  const GuestAddr fn = install_native([&](Assembler& a) {
    a.push({R(4), R(5), R(6), LR});
    a.mov(R(4), R(0));
    a.mov(R(5), R(3));
    a.mov(R(1), R(2));
    a.call(del);
    a.mov(R(0), R(4));
    a.mov(R(1), R(5));
    a.call(new_global);
    a.pop({R(4), R(5), R(6), PC});
  });
  dvm::ClassObject* cls = dvm_.define_class("LKeep;");
  dvm::Method* m = dvm_.define_native(
      cls, "keep", "ILL", dvm::kAccPublic | dvm::kAccStatic, fn);
  u32 x_ref = 0;
  cpu_.add_branch_hook([&](arm::Cpu& c, GuestAddr, GuestAddr to) {
    if (to == fn) x_ref = c.state().regs[2];
  });

  dvm::Object* x = dvm_.new_string("x");
  dvm::Object* y = dvm_.new_string("y");
  const u32 global =
      dvm_.call(*m, {Slot{x->addr(), 0}, Slot{y->addr(), 0}}).value;
  EXPECT_EQ((global >> 2) & 0xFFFF, (x_ref >> 2) & 0xFFFF);  // same slot
  ASSERT_TRUE(dvm_.irt().is_valid(global));
  EXPECT_EQ(dvm_.irt().decode(global), y);
  EXPECT_EQ(dvm_.irt().frame_depth(), 0u);
}

TEST_F(JniFixture, PopLocalFrameCannotPopTheNativeCallFrame) {
  const GuestAddr pop = env_.fn("PopLocalFrame");
  const GuestAddr fn = install_native([&](Assembler& a) {
    a.push({R(4), LR});
    a.mov_imm(R(1), 0);
    a.call(pop);
    a.pop({R(4), PC});
  });
  dvm::ClassObject* cls = dvm_.define_class("LPop;");
  dvm::Method* m = dvm_.define_native(
      cls, "pop", "VL", dvm::kAccPublic | dvm::kAccStatic, fn);
  dvm::Object* s = dvm_.new_string("s");
  EXPECT_THROW(dvm_.call(*m, {Slot{s->addr(), 0}}), GuestFault);
  EXPECT_EQ(dvm_.irt().frame_depth(), 0u);
  EXPECT_EQ(dvm_.irt().live_count(), 0u);
}

TEST_F(JniFixture, UnpoppedLocalFramesCloseWithTheCall) {
  // PushLocalFrame, one local inside it, return without PopLocalFrame.
  const GuestAddr push = env_.fn("PushLocalFrame");
  const GuestAddr new_utf = env_.fn("NewStringUTF");
  const GuestAddr text = dvm_.data_cstr("inner");
  const GuestAddr fn = install_native([&](Assembler& a) {
    a.push({R(4), LR});
    a.mov(R(4), R(0));
    a.mov_imm(R(1), 16);
    a.call(push);
    a.mov(R(0), R(4));
    a.mov_imm32(R(1), text);
    a.call(new_utf);
    a.mov_imm(R(0), 0);
    a.pop({R(4), PC});
  });
  dvm::ClassObject* cls = dvm_.define_class("LPush;");
  dvm::Method* m = dvm_.define_native(
      cls, "push", "I", dvm::kAccPublic | dvm::kAccStatic, fn);
  for (u32 i = 0; i < 1000; ++i) dvm_.call(*m, {});
  EXPECT_EQ(dvm_.irt().frame_depth(), 0u);
  EXPECT_EQ(dvm_.irt().live_count(), 0u);
}

TEST_F(JniFixture, LocalTableOverflowEndsTheCall) {
  // int make(env, cls): `count` NewStringUTF calls, all kept live.
  const GuestAddr new_utf = env_.fn("NewStringUTF");
  const GuestAddr text = dvm_.data_cstr("local");
  dvm::ClassObject* cls = dvm_.define_class("LHog;");
  auto define_hog = [&](const char* name, u32 count) {
    const GuestAddr fn = install_native([&](Assembler& a) {
      a.push({R(4), R(5), R(6), LR});
      a.mov(R(4), R(0));
      a.mov_imm32(R(5), text);
      for (u32 i = 0; i < count; ++i) {
        a.mov(R(0), R(4));
        a.mov(R(1), R(5));
        a.call(new_utf);
      }
      a.mov_imm(R(0), 0);
      a.pop({R(4), R(5), R(6), PC});
    });
    return dvm_.define_native(cls, name, "I",
                              dvm::kAccPublic | dvm::kAccStatic, fn);
  };
  dvm::Method* full = define_hog("full", dvm::IndirectRefTable::kMaxLocals);
  dvm::Method* over =
      define_hog("over", dvm::IndirectRefTable::kMaxLocals + 1);

  EXPECT_NO_THROW(dvm_.call(*full, {}));
  try {
    dvm_.call(*over, {});
    ADD_FAILURE() << "the 513th local did not fault";
  } catch (const GuestFault& e) {
    EXPECT_NE(std::string(e.what()).find("local reference table overflow"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(dvm_.irt().frame_depth(), 0u);
  EXPECT_EQ(dvm_.irt().live_count(), 0u);
}

TEST_F(JniFixture, FaultedCallsUnwindTheDvmStack) {
  // A call can fault in an interpreted callee, in a JNI function a native
  // calls, or in Java code a native calls back (dvmCallMethodA). Each leaves
  // frames, an outs area, a pending dvmCallMethod or guest call depth
  // behind unless the fault unwinds them; 10,000 of them would overflow the
  // DVM stack (256 KiB here) or the 64-deep guest call limit.
  dvm::ClassObject* cls = dvm_.define_class("LFaulty;");
  constexpr u32 kStatic = dvm::kAccPublic | dvm::kAccStatic;
  dvm::CodeBuilder div_cb;
  div_cb.binop(dvm::DOp::kDiv, 0, 2, 3).return_value(0);
  dvm::Method* div = dvm_.define_method(cls, "div", "III", kStatic, 4,
                                        div_cb.take());
  dvm::CodeBuilder outer_cb;
  outer_cb.invoke(div, {2, 3}).move_result(0).return_value(0);
  dvm::Method* outer = dvm_.define_method(cls, "outer", "III", kStatic, 4,
                                          outer_cb.take());
  // int null_field(env, cls): GetIntField(env, NULL, NULL)
  const GuestAddr null_field_fn = install_native([&](Assembler& a) {
    a.push({R(4), LR});
    a.mov_imm(R(1), 0);
    a.mov_imm(R(2), 0);
    a.call(env_.fn("GetIntField"));
    a.pop({R(4), PC});
  });
  dvm::Method* null_field =
      dvm_.define_native(cls, "null_field", "I", kStatic, null_field_fn);
  // int callback(env, cls, x, y): CallStaticIntMethodA(env, cls, div, {x, y})
  const GuestAddr callback_fn = install_native([&](Assembler& a) {
    a.push({R(4), LR});
    a.sub_imm(arm::SP, arm::SP, 8);
    a.str(R(2), arm::SP, 0);
    a.str(R(3), arm::SP, 4);
    a.mov_imm32(R(2), div->guest_addr);
    a.mov(R(3), arm::SP);
    a.call(env_.fn("CallStaticIntMethodA"));
    a.add_imm(arm::SP, arm::SP, 8);
    a.pop({R(4), PC});
  });
  dvm::Method* callback =
      dvm_.define_native(cls, "callback", "III", kStatic, callback_fn);

  const dvm::DvmStack::Mark start = dvm_.stack().mark();
  const u32 start_native_sp = cpu_.state().sp();
  u32 faults = 0;
  for (u32 i = 0; i < 10000; ++i) {
    try {
      switch (i % 3) {
        case 0: dvm_.call(*outer, {Slot{1, 0}, Slot{0, 0}}); break;
        case 1: dvm_.call(*null_field, {}); break;
        default: dvm_.call(*callback, {Slot{1, 0}, Slot{0, 0}}); break;
      }
    } catch (const GuestFault&) {
      ++faults;
    }
  }
  EXPECT_EQ(faults, 10000u);
  EXPECT_EQ(dvm_.stack().mark().sp, start.sp);
  EXPECT_EQ(dvm_.stack().mark().fp, start.fp);
  EXPECT_EQ(cpu_.state().sp(), start_native_sp);
  EXPECT_EQ(dvm_.irt().frame_depth(), 0u);
  EXPECT_EQ(dvm_.call(*callback, {Slot{42, 0}, Slot{6, 0}}).value, 7u);
  EXPECT_EQ(dvm_.call(*outer, {Slot{42, 0}, Slot{7, 0}}).value, 6u);
}

TEST_F(JniFixture, IsSameObjectComparesIdentity) {
  dvm::Object* s = dvm_.new_string("one");
  const u32 r1 = dvm_.irt().add(s);
  const u32 r2 = dvm_.irt().add(s);  // second handle, same object
  dvm::Object* t = dvm_.new_string("one");  // equal content, different object
  const u32 r3 = dvm_.irt().add(t);
  EXPECT_EQ(cpu_.call_function(env_.fn("IsSameObject"),
                               {env_.env_addr(), r1, r2}),
            1u);
  EXPECT_EQ(cpu_.call_function(env_.fn("IsSameObject"),
                               {env_.env_addr(), r1, r3}),
            0u);
}

TEST_F(JniFixture, ProcMapsRenderedInVfs) {
  ASSERT_TRUE(kernel_.vfs().exists("/proc/self/maps") ||
              kernel_.processes().empty());
  kernel_.create_process("com.maps.app");
  kernel_.map_region(kernel_.processes().back().pid,
                     {"libfoo.so", 0x50000000, 0x50002000, mem::kRX});
  const std::string maps = kernel_.vfs().content_str("/proc/self/maps");
  EXPECT_NE(maps.find("50000000-50002000 r-xp 00000000 libfoo.so"),
            std::string::npos);
}

TEST_F(JniFixture, Table2RoutingVvsA) {
  // Per Table II: Call*Method and Call*MethodV must route to dvmCallMethodV;
  // Call*MethodA to dvmCallMethodA.
  dvm::ClassObject* cls = dvm_.define_class("LRoute;");
  dvm::CodeBuilder cb;
  cb.return_void();
  dvm::Method* m = dvm_.define_method(
      cls, "f", "V", dvm::kAccPublic | dvm::kAccStatic, 1, cb.take());

  const GuestAddr dvm_v = dvm_.sym("dvmCallMethodV");
  const GuestAddr dvm_a = dvm_.sym("dvmCallMethodA");
  int hits_v = 0, hits_a = 0;
  cpu_.add_branch_hook([&](arm::Cpu&, GuestAddr, GuestAddr to) {
    if (to == dvm_v) ++hits_v;
    if (to == dvm_a) ++hits_a;
  });

  cpu_.call_function(env_.fn("CallStaticVoidMethod"),
                     {env_.env_addr(), dvm_.class_mirror(cls),
                      m->guest_addr, 0});
  EXPECT_EQ(hits_v, 1);
  EXPECT_EQ(hits_a, 0);
  cpu_.call_function(env_.fn("CallStaticVoidMethodV"),
                     {env_.env_addr(), dvm_.class_mirror(cls),
                      m->guest_addr, 0});
  EXPECT_EQ(hits_v, 2);
  cpu_.call_function(env_.fn("CallStaticVoidMethodA"),
                     {env_.env_addr(), dvm_.class_mirror(cls),
                      m->guest_addr, 0});
  EXPECT_EQ(hits_a, 1);
}

}  // namespace
}  // namespace ndroid::jni
