// Guest library images: code and data emitted once per process, copied into
// each address space that loads them.
//
// The system libraries (libdvm's stubs, the JNI function table, libc/libm)
// are the same bytes at the same addresses in every Device; only the C++
// helpers behind them are per-Device closures. So each library emits its
// guest side once, into a scratch address space, against the helper
// addresses a fresh Cpu will hand out (kHelperWindowBase + 4·i in
// registration order). A Device then copies the captured pages and
// registers its own helper closures, and every registration is checked
// against the address the image's code was emitted with.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "arm/cpu.h"
#include "mem/address_space.h"

namespace ndroid::arm {

/// The helpers an image was emitted against, in emission order: helper i
/// sits at `base + 4·i`.
struct HelperTable {
  GuestAddr base = kHelperWindowBase;
  std::vector<std::string> names;
};

/// The resident pages of an emitted guest range.
struct ImagePages {
  std::vector<GuestAddr> addrs;  // page-aligned, ascending
  std::vector<u8> bytes;         // one page per entry of `addrs`, in order

  /// Copies every page into `memory`.
  void stamp(mem::AddressSpace& memory) const;
  /// Copies the pages at `indices` (positions in `addrs`) into `memory`.
  void stamp(mem::AddressSpace& memory, std::span<const u32> indices) const;

  /// Positions of the pages that `prior` lacks or holds other bytes for:
  /// what stamping this image over `prior` changes.
  [[nodiscard]] std::vector<u32> changed_from(const ImagePages& prior) const;
};

/// Scratch address space plus helper-address cursor an image is emitted
/// into. A builder may be seeded from an earlier image (stamp its pages,
/// start the cursor where that image's helpers ended) to layer one library
/// on top of another.
class ImageBuilder {
 public:
  explicit ImageBuilder(GuestAddr helper_base = kHelperWindowBase)
      : next_helper_(helper_base) {}

  mem::AddressSpace& memory() { return memory_; }

  /// Reserves the next helper address for `name` in `table`.
  GuestAddr reserve_helper(HelperTable& table, std::string name);
  [[nodiscard]] GuestAddr next_helper() const { return next_helper_; }

  /// The resident pages of [base, base + size).
  [[nodiscard]] ImagePages capture(GuestAddr base, u32 size) const;

 private:
  mem::AddressSpace memory_;
  GuestAddr next_helper_;
};

/// Registers `helper` on `cpu` and checks it landed where `table` says the
/// image's code expects helper `name`. Throws std::logic_error otherwise
/// (helpers registered out of emission order, or onto a Cpu whose helper
/// window was already in use).
void bind_helper(Cpu& cpu, const HelperTable& table, std::string_view name,
                 Helper helper);

}  // namespace ndroid::arm
