// The emulated Android device: one object wiring every substrate with the
// standard memory layout. Apps (src/apps) are loaded into a Device;
// analysis systems (NDroid, the TaintDroid-only baseline, DroidScope-mode)
// attach to a Device's instrumentation surfaces.
#pragma once

#include <string>
#include <vector>

#include "arm/cpu.h"
#include "dvm/dvm.h"
#include "jni/jnienv.h"
#include "libc/libc.h"
#include "mem/address_space.h"
#include "mem/memory_map.h"
#include "os/kernel.h"
#include "os/view_reconstructor.h"
#include "taintdroid/framework.h"

namespace ndroid::android {

/// Canonical guest layout.
struct Layout {
  static constexpr GuestAddr kAppLibBase = 0x10000000;   // app .so files
  static constexpr GuestAddr kHeapBase = 0x30000000;     // native heap (kernel)
  static constexpr GuestAddr kDalvikHeap = 0x34000000;
  static constexpr u32 kDalvikHeapSize = 0x01000000;
  static constexpr GuestAddr kDalvikStack = 0x38000000;
  static constexpr u32 kDalvikStackSize = 0x00100000;
  // System libraries: fixed by their once-per-process images.
  static constexpr GuestAddr kLibdvm = dvm::kLibdvmBase;
  static constexpr u32 kLibdvmSize = dvm::kLibdvmSize;
  static constexpr GuestAddr kLibc = libc::kLibcBase;
  static constexpr u32 kLibcSize = libc::kLibcSize;
  static constexpr GuestAddr kLibm = libc::kLibmBase;
  static constexpr u32 kLibmSize = libc::kLibmSize;
  static constexpr GuestAddr kNativeStack = 0xBE000000;
  static constexpr u32 kNativeStackSize = 0x00100000;
};

class Device {
 public:
  explicit Device(std::string app_name = "com.example.app",
                  taintdroid::DeviceIdentity identity = {});

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// Loads a native library image at the next free app-lib address; the
  /// region is registered globally and in the app process (VMI-visible).
  /// Returns the load base.
  GuestAddr load_native_lib(const std::string& name,
                            std::span<const u8> image);

  /// Next app-lib load base without loading (for assembling PIC-free code
  /// at its final address).
  [[nodiscard]] GuestAddr next_lib_base() const { return lib_bump_; }

  [[nodiscard]] u32 app_pid() const { return app_pid_; }

  mem::AddressSpace memory;
  mem::MemoryMap memmap;
  arm::Cpu cpu;
  os::Kernel kernel;
  dvm::Dvm dvm;
  jni::JniEnv jni;
  libc::Libc libc;
  taintdroid::Framework framework;

 private:
  GuestAddr lib_bump_ = Layout::kAppLibBase;
  u32 app_pid_ = 0;
};

}  // namespace ndroid::android
