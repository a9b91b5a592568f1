// The Android application framework slice TaintDroid instruments:
// taint sources (telephony, contacts, SMS, location) and taint sinks
// (network output, file output) exposed to apps as framework classes with
// built-in methods.
//
// Sources return freshly allocated String objects carrying both an
// object-level taint label and a reference taint — TaintDroid's behaviour
// after its framework instrumentation (paper §II-B: "TaintDroid adds taints
// to the sources of sensitive information (GPS data, SMS messages, IMSI,
// IMEI, etc.)").
//
// Sinks perform the real I/O through the kernel (so packets/files exist as
// ground truth regardless of tainting) and additionally record a LeakReport
// when TaintDroid's Java-context taint reaches them — this is TaintDroid's
// detection verdict, compared against NDroid's in the Table I experiment.
//
// The framework classes are the same in every Device: their mirrors and
// Method structs (the ones NDroid reads through dvmCallJNIMethod's third
// argument, §V-B) are emitted once per process as a libdvm.so image on top
// of the JNI functions (Framework::image()), and their host ClassObjects and
// Methods are shared, immutable boot classes. A Device's Framework only
// loads that image and holds what is per Device: the identity its sources
// report, the kernel its sinks write through and the leaks they record.
// The shared builtins reach it through the Dvm they are called with.
#pragma once

#include <string>
#include <vector>

#include "common/taint_tags.h"
#include "dvm/dvm.h"
#include "os/kernel.h"

namespace ndroid::taintdroid {

struct LeakReport {
  std::string sink;         // e.g. "OutputStream.write", "send"
  std::string destination;  // host name or file path
  Taint taint = kTaintClear;
  std::string data;
};

/// Values the simulated device reports from its identity sources (defaults
/// follow the strings visible in the paper's logs, Figs. 7-9).
struct DeviceIdentity {
  std::string imei = "354958031234567";
  std::string imsi = "310260000000000";
  std::string line1_number = "15555215554";
  std::string network_operator = "310260";
  std::string sim_serial = "89014103211118510720";
  std::string contacts = "1|Vincent|cx@gg.com";
  std::string sms = "sms:1:hello from vincent";
  std::string location = "22.3364,114.2655";
};

/// The framework classes (also discoverable via dvm.find_class): shared
/// boot classes, never written.
struct FrameworkClasses {
  const dvm::ClassObject* telephony = nullptr;   // Landroid/telephony/TelephonyManager;
  const dvm::ClassObject* sms_manager = nullptr; // Landroid/telephony/SmsManager;
  const dvm::ClassObject* contacts = nullptr;    // Landroid/provider/ContactsContract;
  const dvm::ClassObject* location = nullptr;    // Landroid/location/LocationManager;
  const dvm::ClassObject* network = nullptr;     // Ljava/net/NetworkOutput;
  const dvm::ClassObject* file_output = nullptr; // Ljava/io/FileOutput;
  const dvm::ClassObject* string_ops = nullptr;  // Ljava/lang/StringOps;
};

/// The framework's part of libdvm.so (Framework::image()).
struct FrameworkImage {
  dvm::LibdvmImage libdvm;  // JniEnv::image()'s libdvm.so plus the classes
  FrameworkClasses classes;
};

class Framework : public dvm::BootContext, public FrameworkClasses {
 public:
  /// Loads image() into `dvm`, which must hold JniEnv::image() with nothing
  /// allocated in libdvm.so since.
  Framework(dvm::Dvm& dvm, os::Kernel& kernel,
            DeviceIdentity identity = {});
  ~Framework();

  Framework(const Framework&) = delete;
  Framework& operator=(const Framework&) = delete;

  /// The framework classes' guest bytes and shared host side, emitted once
  /// per process (thread-safe).
  static const FrameworkImage& image();

  [[nodiscard]] const DeviceIdentity& identity() const { return identity_; }

  /// Leaks TaintDroid's Java-context sinks flagged.
  [[nodiscard]] const std::vector<LeakReport>& leaks() const { return leaks_; }
  void clear_leaks() { leaks_.clear(); }

 private:
  static FrameworkImage emit_image();
  /// The Framework of the Device a builtin runs on.
  static Framework& of(dvm::Dvm& dvm);

  static dvm::Slot make_source_string(dvm::Dvm& dvm, const std::string& value,
                                      Taint taint);
  /// Combined TaintDroid-visible taint of a string argument: reference slot
  /// taint OR the object-level label.
  static Taint visible_taint(dvm::Dvm& dvm, const dvm::Slot& slot);

  dvm::Dvm& dvm_;
  os::Kernel& kernel_;
  DeviceIdentity identity_;
  std::vector<LeakReport> leaks_;
};

}  // namespace ndroid::taintdroid
