// The guest C library ("libc.so" / "libm.so").
//
// Two implementation classes, mirroring the paper's architecture:
//
//  * String/memory functions (memcpy, strcpy, strlen, ...) are REAL GUEST
//    ARM CODE assembled into libc.so. When NDroid's System Lib Hook Engine
//    models them (Table VI) it hooks the entry point and skips no code —
//    the functions still run — but the instruction tracer does not need to
//    follow their instructions one by one, which is where the speedup comes
//    from (§V-D). With models disabled (ablation / DroidScope-mode), the
//    tracer propagates taint through these loops instruction by instruction
//    and must reach the same answer.
//
//  * Format-string functions (sprintf/fprintf/...), stdio FILE* functions,
//    malloc/free, and all of libm are helper-backed: the paper models these
//    as well, and their bodies are irrelevant to the taint flows studied.
//    libm operates on 32-bit floats (the emulated core has no VFP; the
//    double-named entry points use single precision — documented
//    substitution).
//
// Syscall wrappers (open/read/write/close/socket/connect/send/sendto/recv)
// are guest stubs that trap via SVC, so Table VII's kernel-level sinks are
// observable as guest instructions.
//
// The assembly and the symbol table are the same in every Device, so they
// are emitted once per process (Libc::image(), arm/guest_image.h); each Libc
// copies the image's pages and registers its helper closures.
#pragma once

#include <map>
#include <string>
#include <unordered_map>

#include "arm/assembler.h"
#include "arm/cpu.h"
#include "arm/guest_image.h"
#include "os/kernel.h"

namespace ndroid::libc {

/// libc.so's and libm.so's places in the guest layout.
inline constexpr GuestAddr kLibcBase = 0x40100000;
inline constexpr u32 kLibcSize = 0x00020000;
inline constexpr GuestAddr kLibmBase = 0x40200000;
inline constexpr u32 kLibmSize = 0x00010000;

/// libc.so and libm.so as emitted once per process: libc's assembly pages
/// (libm is all helpers) and the symbols of both.
struct LibcImage {
  GuestAddr helper_base = 0;  // where its helpers start in the window
  arm::ImagePages pages;
  arm::HelperTable helpers;
  std::map<std::string, GuestAddr> symbols;
};

class Libc {
 public:
  /// Loads image(cpu.next_helper_addr()) and registers the helpers.
  Libc(arm::Cpu& cpu, os::Kernel& kernel);

  Libc(const Libc&) = delete;
  Libc& operator=(const Libc&) = delete;

  /// The libraries for helpers registered from `helper_base` on, emitted
  /// once per process and base (thread-safe). Every Device loads libc at
  /// the same point of its helper registration, so it uses one image.
  static const LibcImage& image(GuestAddr helper_base);

  /// Address of a libc/libm function by name.
  [[nodiscard]] GuestAddr fn(const std::string& name) const;
  /// The image's symbols: one table shared by every Libc loaded at the same
  /// helper base (dl* entry points added at run time are not in it).
  [[nodiscard]] const std::map<std::string, GuestAddr>& symbols() const {
    return image_.symbols;
  }

  /// malloc/free on the guest native heap (os::NativeHeap, which the JNI
  /// accessors' buffers come from too).
  GuestAddr malloc_guest(u32 size);
  void free_guest(GuestAddr addr) { kernel_.heap().free(addr); }

  [[nodiscard]] u64 mallocs_performed() const { return mallocs_; }

  /// Kernel fd behind a FILE* handle, or -1 (used by sink hooks to resolve
  /// fprintf/fwrite destinations).
  [[nodiscard]] int fd_of_file(GuestAddr file) const {
    auto it = files_.find(file);
    return it == files_.end() ? -1 : it->second;
  }

  /// Registers a library with the dynamic loader so guest dlopen/dlsym can
  /// resolve it (Table VII hooks dlopen/dlsym/dlclose; malware uses them to
  /// hide program logic in late-loaded libraries, paper §I/§III).
  void register_dl_library(const std::string& name,
                           std::map<std::string, GuestAddr> dl_symbols);

 private:
  static LibcImage emit_image(GuestAddr helper_base);
  void bind_helpers();
  void bind_stdio();
  void bind(std::string_view name, arm::Helper helper);

  std::string read_format_args(arm::Cpu& c, const std::string& fmt,
                               u32 first_reg, GuestAddr stack_args);

  arm::Cpu& cpu_;
  os::Kernel& kernel_;
  const LibcImage& image_;
  /// dlopen/dlsym/dlclose, registered by the first register_dl_library.
  std::map<std::string, GuestAddr> dl_entry_points_;

  u64 mallocs_ = 0;

  // FILE* handles: guest struct of one word holding fd + host map.
  std::unordered_map<GuestAddr, int> files_;
  GuestAddr file_struct_bump_ = kLibcBase + kLibcSize - 0x800;

  // Dynamic loader registry: handle (index+1) -> {name, symbols, open}.
  struct DlLibrary {
    std::string name;
    std::map<std::string, GuestAddr> symbols;
    bool open = false;
  };
  std::vector<DlLibrary> dl_libraries_;
};

}  // namespace ndroid::libc
