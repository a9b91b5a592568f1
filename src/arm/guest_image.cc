#include "arm/guest_image.h"

#include <algorithm>
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

void ImagePages::stamp(mem::AddressSpace& memory,
                       std::span<const u32> indices) const {
  for (const u32 i : indices) {
    memory.write_bytes(addrs[i], {bytes.data() + i * kPageSize, kPageSize});
  }
}

std::vector<u32> ImagePages::changed_from(const ImagePages& prior) const {
  std::vector<u32> out;
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    const u8* page = bytes.data() + i * kPageSize;
    const auto it = std::lower_bound(prior.addrs.begin(), prior.addrs.end(),
                                     addrs[i]);
    if (it != prior.addrs.end() && *it == addrs[i]) {
      const u8* old = prior.bytes.data() +
                      static_cast<std::size_t>(it - prior.addrs.begin()) *
                          kPageSize;
      if (std::equal(page, page + kPageSize, old)) continue;
    }
    out.push_back(static_cast<u32>(i));
  }
  return out;
}

GuestAddr ImageBuilder::reserve_helper(HelperTable& table, std::string name) {
  const GuestAddr addr = next_helper_;
  next_helper_ += 4;
  if (table.names.empty()) table.base = addr;
  if (std::find(table.names.begin(), table.names.end(), name) !=
      table.names.end()) {
    throw std::logic_error("helper reserved twice in one image");
  }
  table.names.push_back(std::move(name));
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
  const std::size_t slot = (addr - table.base) / 4;
  if (addr < table.base || slot >= table.names.size() ||
      table.names[slot] != name) {
    throw std::logic_error("helper " + std::string(name) +
                           " registered at an address its image was not "
                           "emitted against");
  }
}

}  // namespace ndroid::arm
