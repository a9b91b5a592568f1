// Approximate membership filter over guest addresses, and the exact lookup
// behind it.
//
// The hook engines consult a filter on every taken branch to decide whether
// the (much bigger) dispatch body needs to run at all. The filter may say
// "maybe" for an address that was never added (hash collision) — the caller
// then runs its full dispatch, which no-ops — but it never says "no" for an
// address that WAS added, so hooks are never lost.
#pragma once

#include <algorithm>
#include <array>
#include <vector>

#include "common/types.h"

namespace ndroid {

/// The entry of `sorted` (ascending by its `addr` member) at `addr`, or
/// nullptr.
template <typename Entry>
const Entry* find_by_addr(const std::vector<Entry>& sorted, GuestAddr addr) {
  auto it = std::lower_bound(
      sorted.begin(), sorted.end(), addr,
      [](const Entry& e, GuestAddr a) { return e.addr < a; });
  return it != sorted.end() && it->addr == addr ? &*it : nullptr;
}

class AddrBloom {
 public:
  void add(GuestAddr addr) { bits_[word(addr)] |= bit(addr); }

  /// True if `addr` may have been added; false only if it definitely wasn't.
  [[nodiscard]] bool maybe(GuestAddr addr) const {
    return (bits_[word(addr)] & bit(addr)) != 0;
  }

  void clear() { bits_.fill(0); }

 private:
  static constexpr u32 kBits = 12;  // 4096-bit table, 512 bytes

  [[nodiscard]] static u32 index(GuestAddr addr) {
    return static_cast<u32>((addr * 0x9E3779B97F4A7C15ull) >> (64 - kBits));
  }
  [[nodiscard]] static u32 word(GuestAddr addr) { return index(addr) >> 6; }
  [[nodiscard]] static u64 bit(GuestAddr addr) {
    return 1ull << (index(addr) & 63);
  }

  std::array<u64, (1u << kBits) / 64> bits_{};
};

}  // namespace ndroid
