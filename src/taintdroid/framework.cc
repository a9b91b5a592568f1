#include "taintdroid/framework.h"

#include "jni/jnienv.h"

namespace ndroid::taintdroid {

using dvm::kAccPublic;
using dvm::kAccStatic;
using dvm::Slot;

Framework::Framework(dvm::Dvm& dvm, os::Kernel& kernel,
                     DeviceIdentity identity)
    : FrameworkClasses(image().classes),
      dvm_(dvm),
      kernel_(kernel),
      identity_(std::move(identity)) {
  dvm_.load_image(image().libdvm);
  dvm_.set_boot_context(this);
}

Framework::~Framework() { dvm_.set_boot_context(nullptr); }

const FrameworkImage& Framework::image() {
  static const FrameworkImage image = emit_image();
  return image;
}

Framework& Framework::of(dvm::Dvm& dvm) {
  dvm::BootContext* context = dvm.boot_context();
  if (context == nullptr) {
    throw GuestFault("framework method called on a Dvm without a Framework");
  }
  return static_cast<Framework&>(*context);
}

Slot Framework::make_source_string(dvm::Dvm& dvm, const std::string& value,
                                   Taint taint) {
  dvm::Object* s = dvm.new_string(value);
  dvm.heap().set_object_taint(*s, taint);
  return Slot{s->addr(), taint};
}

Taint Framework::visible_taint(dvm::Dvm& dvm, const Slot& slot) {
  Taint t = slot.taint;
  if (dvm::Object* obj = dvm.heap().object_at(slot.value)) {
    t |= dvm.heap().object_taint(*obj);
  }
  return t;
}

// The classes and builtins in the order the guest bytes have always been
// laid out in: sources, sinks, then the string utilities.
FrameworkImage Framework::emit_image() {
  dvm::LibdvmImageBuilder b(&jni::JniEnv::image().libdvm);
  FrameworkImage img;
  FrameworkClasses& classes = img.classes;
  const auto builtin = [&b](dvm::ClassObject* cls, const char* name,
                            const char* shorty, dvm::Builtin fn) {
    b.define_builtin(cls, name, shorty, kAccPublic | kAccStatic,
                     std::move(fn));
  };

  // --- Sources -------------------------------------------------------------
  auto src = [&](dvm::ClassObject* cls, const char* name,
                 std::string DeviceIdentity::* field, Taint taint) {
    builtin(cls, name, "L",
            [field, taint](dvm::Dvm& dvm, std::vector<Slot>&) {
              return make_source_string(dvm, of(dvm).identity_.*field, taint);
            });
  };
  // Individual contact columns, as queried by the PoC of case 2 (Fig. 8).
  auto literal_src = [&](dvm::ClassObject* cls, const char* name,
                         std::string value, Taint taint) {
    builtin(cls, name, "L",
            [value = std::move(value), taint](dvm::Dvm& dvm,
                                              std::vector<Slot>&) {
              return make_source_string(dvm, value, taint);
            });
  };

  dvm::ClassObject* telephony =
      b.define_class("Landroid/telephony/TelephonyManager;");
  src(telephony, "getDeviceId", &DeviceIdentity::imei, kTaintImei);
  src(telephony, "getSubscriberId", &DeviceIdentity::imsi, kTaintImsi);
  src(telephony, "getLine1Number", &DeviceIdentity::line1_number,
      kTaintPhoneNumber);
  src(telephony, "getNetworkOperator", &DeviceIdentity::network_operator,
      kTaintImsi);
  src(telephony, "getSimSerialNumber", &DeviceIdentity::sim_serial,
      kTaintIccid);
  classes.telephony = telephony;

  dvm::ClassObject* sms_manager =
      b.define_class("Landroid/telephony/SmsManager;");
  src(sms_manager, "getAllMessages", &DeviceIdentity::sms, kTaintSms);
  classes.sms_manager = sms_manager;

  dvm::ClassObject* contacts =
      b.define_class("Landroid/provider/ContactsContract;");
  src(contacts, "queryContacts", &DeviceIdentity::contacts, kTaintContacts);
  literal_src(contacts, "getContactId", "1", kTaintContacts);
  literal_src(contacts, "getContactName", "Vincent", kTaintContacts);
  literal_src(contacts, "getContactEmail", "cx@gg.com", kTaintContacts);
  classes.contacts = contacts;

  dvm::ClassObject* location =
      b.define_class("Landroid/location/LocationManager;");
  src(location, "getLastKnownLocation", &DeviceIdentity::location,
      kTaintLocation | kTaintLocationGps);
  classes.location = location;

  // --- Sinks -----------------------------------------------------------------
  // NetworkOutput.send(host, data): opens a socket, sends `data`, and lets
  // TaintDroid check the argument taints (its Java-context sink).
  dvm::ClassObject* network = b.define_class("Ljava/net/NetworkOutput;");
  builtin(network, "send", "VLL", [](dvm::Dvm& dvm, std::vector<Slot>& args) {
    Framework& fw = of(dvm);
    dvm::Object* host = dvm.heap().object_at(args[0].value);
    dvm::Object* data = dvm.heap().object_at(args[1].value);
    if (host == nullptr || data == nullptr) {
      throw GuestFault("NetworkOutput.send: null argument");
    }
    const std::string host_s = dvm.heap().read_string(*host);
    const std::string data_s = dvm.heap().read_string(*data);
    os::Kernel& kernel = fw.kernel_;
    const int fd = kernel.open_socket();
    const auto* entry = kernel.fd_entry(fd);
    kernel.network().connect(entry->socket_id, host_s, 80);
    kernel.network().send(
        entry->socket_id,
        {reinterpret_cast<const u8*>(data_s.data()), data_s.size()});
    kernel.close_fd(fd);
    if (dvm.policy().propagate_java) {
      const Taint t = visible_taint(dvm, args[1]);
      if (t != kTaintClear) {
        fw.leaks_.push_back(
            LeakReport{"OutputStream.write", host_s, t, data_s});
      }
    }
    return Slot{};
  });
  classes.network = network;

  // FileOutput.write(path, data): file sink.
  dvm::ClassObject* file_output = b.define_class("Ljava/io/FileOutput;");
  builtin(file_output, "write", "VLL",
          [](dvm::Dvm& dvm, std::vector<Slot>& args) {
            Framework& fw = of(dvm);
            dvm::Object* path = dvm.heap().object_at(args[0].value);
            dvm::Object* data = dvm.heap().object_at(args[1].value);
            if (path == nullptr || data == nullptr) {
              throw GuestFault("FileOutput.write: null argument");
            }
            const std::string path_s = dvm.heap().read_string(*path);
            const std::string data_s = dvm.heap().read_string(*data);
            os::Vfs& vfs = fw.kernel_.vfs();
            vfs.write_at(path_s, vfs.size(path_s),
                         {reinterpret_cast<const u8*>(data_s.data()),
                          data_s.size()});
            if (dvm.policy().propagate_java) {
              const Taint t = visible_taint(dvm, args[1]);
              if (t != kTaintClear) {
                fw.leaks_.push_back(
                    LeakReport{"FileOutputStream.write", path_s, t, data_s});
              }
            }
            return Slot{};
          });
  classes.file_output = file_output;

  // --- String utilities ------------------------------------------------------
  dvm::ClassObject* string_ops = b.define_class("Ljava/lang/StringOps;");

  // concat(a, b) -> new String; TaintDroid would propagate through
  // String.concat's DVM bytecode — modeled here with explicit taint union.
  builtin(string_ops, "concat", "LLL",
          [](dvm::Dvm& dvm, std::vector<Slot>& args) {
            dvm::Object* a = dvm.heap().object_at(args[0].value);
            dvm::Object* b = dvm.heap().object_at(args[1].value);
            if (a == nullptr || b == nullptr) {
              throw GuestFault("StringOps.concat: null argument");
            }
            const Taint t =
                visible_taint(dvm, args[0]) | visible_taint(dvm, args[1]);
            dvm::Object* out = dvm.new_string(dvm.heap().read_string(*a) +
                                              dvm.heap().read_string(*b));
            if (dvm.policy().propagate_java) {
              dvm.heap().set_object_taint(*out, t);
            }
            return Slot{out->addr(),
                        dvm.policy().propagate_java ? t : kTaintClear};
          });

  builtin(string_ops, "length", "IL",
          [](dvm::Dvm& dvm, std::vector<Slot>& args) {
            dvm::Object* s = dvm.heap().object_at(args[0].value);
            if (s == nullptr) {
              throw GuestFault("StringOps.length: null argument");
            }
            const u32 len =
                static_cast<u32>(dvm.heap().read_string(*s).size());
            return Slot{len, visible_taint(dvm, args[0])};
          });

  builtin(string_ops, "valueOf", "LI",
          [](dvm::Dvm& dvm, std::vector<Slot>& args) {
            dvm::Object* out = dvm.new_string(
                std::to_string(static_cast<i32>(args[0].value)));
            if (dvm.policy().propagate_java) {
              dvm.heap().set_object_taint(*out, args[0].taint);
            }
            return Slot{out->addr(), args[0].taint};
          });
  classes.string_ops = string_ops;

  img.libdvm = b.finish();
  return img;
}

}  // namespace ndroid::taintdroid
