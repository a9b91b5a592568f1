#include "apps/native_lib_builder.h"

#include <memory>
#include <mutex>

namespace ndroid::apps {

namespace {

/// One emitted library and the key it was emitted for.
struct AppLibImage {
  LibEmitter emit;
  GuestAddr base;
  const void* libc;  // the Libc image's symbol table
  const void* jni;   // the JniEnv image's symbol table
  std::vector<u8> bytes;
  std::vector<GuestAddr> entries;
};

}  // namespace

const std::vector<GuestAddr>& load_app_lib(android::Device& device,
                                           const std::string& name,
                                           LibEmitter emit) {
  static std::mutex mu;
  static std::vector<std::unique_ptr<const AppLibImage>> images;  // by mu

  const GuestAddr base = device.next_lib_base();
  const void* libc = &device.libc.symbols();
  const void* jni = &device.jni.symbols();
  const AppLibImage* image = nullptr;
  {
    std::lock_guard lock(mu);
    for (const auto& img : images) {
      if (img->emit == emit && img->base == base && img->libc == libc &&
          img->jni == jni) {
        image = img.get();
        break;
      }
    }
    if (image == nullptr) {
      NativeLibBuilder lib(device, name);
      emit(lib, device);
      images.push_back(std::make_unique<const AppLibImage>(AppLibImage{
          emit, base, libc, jni, lib.a().finish(), lib.entries()}));
      image = images.back().get();
    }
  }
  device.load_native_lib(name, image->bytes);
  return image->entries;
}

}  // namespace ndroid::apps
