#include "arm/guest_image.h"

#include <stdexcept>

namespace ndroid::arm {

namespace {
constexpr u32 kPageSize = mem::AddressSpace::kPageSize;
}  // namespace

void ImagePages::stamp(mem::AddressSpace& memory) const {
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    memory.write_bytes(addrs[i], {bytes.data() + i * kPageSize, kPageSize});
  }
}

GuestAddr ImageBuilder::reserve_helper(HelperTable& table, std::string name) {
  const GuestAddr addr = next_helper_;
  next_helper_ += 4;
  if (!table.emplace(std::move(name), addr).second) {
    throw std::logic_error("helper reserved twice in one image");
  }
  return addr;
}

ImagePages ImageBuilder::capture(GuestAddr base, u32 size) const {
  ImagePages pages;
  for (GuestAddr page = base; page - base < size; page += kPageSize) {
    if (!memory_.is_resident(page)) continue;
    pages.addrs.push_back(page);
    const std::size_t at = pages.bytes.size();
    pages.bytes.resize(at + kPageSize);
    memory_.read_bytes(page, {pages.bytes.data() + at, kPageSize});
  }
  return pages;
}

void bind_helper(Cpu& cpu, const HelperTable& table, std::string_view name,
                 Helper helper) {
  const GuestAddr addr = cpu.register_helper_auto(std::move(helper));
  auto it = table.find(name);
  if (it == table.end() || it->second != addr) {
    throw std::logic_error("helper " + std::string(name) +
                           " registered at an address its image was not "
                           "emitted against");
  }
}

}  // namespace ndroid::arm
