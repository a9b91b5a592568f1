// Helper for authoring third-party native libraries (.so images).
//
// Scenario apps assemble their JNI methods at the library's final load
// address (no relocation machinery needed), embed string literals and data
// buffers in the image, and install the result into the Device.
//
// The scenario libraries (CF-Bench, the Table I cases, the real apps) are
// the same bytes in every Device that loads them at the same base against
// the same libc and JNI images, so load_app_lib emits each once per process
// and copies it into every matching Device, as Libc::image() does for the
// system libraries.
#pragma once

#include <string>
#include <vector>

#include "android/device.h"
#include "arm/assembler.h"

namespace ndroid::apps {

class NativeLibBuilder {
 public:
  NativeLibBuilder(android::Device& device, std::string name)
      : device_(device),
        name_(std::move(name)),
        asm_(device.next_lib_base()) {}

  arm::Assembler& a() { return asm_; }

  /// Marks the current position as a function entry point (recorded in
  /// entries()).
  GuestAddr fn() {
    asm_.align(4);
    entries_.push_back(asm_.here());
    return asm_.here();
  }

  GuestAddr cstr(std::string_view s) { return asm_.cstring(s); }

  /// Reserves a zero-initialised buffer inside the image.
  GuestAddr buffer(u32 size) {
    asm_.align(4);
    const GuestAddr addr = asm_.here();
    for (u32 i = 0; i < (size + 3) / 4; ++i) asm_.word(0);
    return addr;
  }

  /// The entry points marked with fn(), in order.
  [[nodiscard]] const std::vector<GuestAddr>& entries() const {
    return entries_;
  }

  /// Installs the image into the device; the builder must not be used after.
  GuestAddr install() {
    return device_.load_native_lib(name_, asm_.finish());
  }

 private:
  android::Device& device_;
  std::string name_;
  arm::Assembler asm_;
  std::vector<GuestAddr> entries_;
};

/// Emits a scenario library's code into `lib`, marking each exported
/// function with lib.fn(). `device` supplies only the libc and JNI entry
/// points the code calls.
using LibEmitter = void (*)(NativeLibBuilder& lib,
                            const android::Device& device);

/// Loads the library `emit` builds into `device` as `name`, at
/// device.next_lib_base(), and returns its entry points in lib.fn() order.
/// The bytes and entry points are emitted once per process for each
/// emitter, load base, libc image and JNI image (thread-safe); every Device
/// that matches copies them. The returned entries live as long as the
/// process.
const std::vector<GuestAddr>& load_app_lib(android::Device& device,
                                           const std::string& name,
                                           LibEmitter emit);

}  // namespace ndroid::apps
