#include "android/device.h"

namespace ndroid::android {

Device::Device(std::string app_name, taintdroid::DeviceIdentity identity)
    : cpu(memory, memmap),
      kernel(memory, memmap),
      dvm(cpu, Layout::kDalvikHeap, Layout::kDalvikHeapSize,
          Layout::kDalvikStack, Layout::kDalvikStackSize),
      jni(dvm, kernel),
      libc(cpu, kernel),
      framework(dvm, kernel, std::move(identity)) {
  memmap.add("[native-stack]", Layout::kNativeStack, Layout::kNativeStackSize,
             mem::kRW);
  cpu.set_initial_sp(Layout::kNativeStack + Layout::kNativeStackSize);
  kernel.attach(cpu);

  app_pid_ = kernel.create_process(std::move(app_name));
  // System libraries appear in the app's memory map (VMI ground truth).
  for (const char* lib : {"libdvm.so", "libc.so", "libm.so"}) {
    if (const mem::Region* r = memmap.find_by_name(lib)) {
      kernel.map_region(app_pid_, *r);
    }
  }
}

GuestAddr Device::load_native_lib(const std::string& name,
                                  std::span<const u8> image) {
  const GuestAddr base = lib_bump_;
  const u32 size = (static_cast<u32>(image.size()) + 0xFFFu) & ~0xFFFu;
  memory.write_bytes(base, image);
  const mem::Region& region = memmap.add(name, base, size, mem::kRX);
  kernel.map_region(app_pid_, region);
  lib_bump_ = base + size + 0x1000;  // guard page between libraries
  return base;
}

}  // namespace ndroid::android
