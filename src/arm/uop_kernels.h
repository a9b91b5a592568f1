// Shared micro-op memory kernels: inline TLB-probing scalar access plus the
// dense LDM/STM block-transfer forms, used by threaded.cc's computed-goto
// bodies.
//
// A read/write probe hit is one bounds test, one tag compare, and a host
// memcpy; the miss path is the ordinary read*/write* call (which refills the
// TLB and, for writes, runs the write-watch). st_* returns true on a probe
// hit: the write TLB never caches watched pages, so a hit store provably
// cannot have flipped tb.dead and the caller skips the self-modification
// check entirely.
#pragma once

#include <cstring>

#include "arm/executor.h"
#include "mem/address_space.h"

namespace ndroid::arm {

inline u32 ld_u32(mem::AddressSpace& m, GuestAddr a) {
  const u8* h = m.tlb_probe_read(a, 4);
  if (h != nullptr) [[likely]] {
    u32 v;
    std::memcpy(&v, h, 4);
    return v;
  }
  return m.read32(a);
}
inline u32 ld_u16(mem::AddressSpace& m, GuestAddr a) {
  const u8* h = m.tlb_probe_read(a, 2);
  if (h != nullptr) [[likely]] {
    u16 v;
    std::memcpy(&v, h, 2);
    return v;
  }
  return m.read16(a);
}
inline u32 ld_u8(mem::AddressSpace& m, GuestAddr a) {
  const u8* h = m.tlb_probe_read(a, 1);
  if (h != nullptr) [[likely]] return *h;
  return m.read8(a);
}
inline u32 ld_s16(mem::AddressSpace& m, GuestAddr a) {
  return static_cast<u32>(static_cast<i32>(static_cast<i16>(ld_u16(m, a))));
}
inline u32 ld_s8(mem::AddressSpace& m, GuestAddr a) {
  return static_cast<u32>(static_cast<i32>(static_cast<i8>(ld_u8(m, a))));
}
inline bool st_u32(mem::AddressSpace& m, GuestAddr a, u32 v) {
  u8* h = m.tlb_probe_write(a, 4);
  if (h != nullptr) [[likely]] {
    std::memcpy(h, &v, 4);
    return true;
  }
  m.write32(a, v);
  return false;
}
inline bool st_u16(mem::AddressSpace& m, GuestAddr a, u32 v) {
  u8* h = m.tlb_probe_write(a, 2);
  if (h != nullptr) [[likely]] {
    const u16 t = static_cast<u16>(v);
    std::memcpy(h, &t, 2);
    return true;
  }
  m.write16(a, static_cast<u16>(v));
  return false;
}
inline bool st_u8(mem::AddressSpace& m, GuestAddr a, u32 v) {
  u8* h = m.tlb_probe_write(a, 1);
  if (h != nullptr) [[likely]] {
    *h = static_cast<u8>(v);
    return true;
  }
  m.write8(a, static_cast<u8>(v));
  return false;
}

// Dense STM (push-prologue shape). Emission guarantees: unconditional,
// outside IT, PC and the base register absent from reglist, reglist
// non-empty. Mirrors execute()'s kStm body: stores in ascending register
// order, writeback last (so a base in the list would store the original
// base — excluded anyway). Returns true when every word hit the write TLB
// (no self-modification dead-check needed).
inline bool stm_dense(CPUState& s, mem::AddressSpace& m, const Insn& in) {
  const BlockTransfer bt = block_transfer(in, s);
  GuestAddr addr = bt.start;
  bool all_hit = true;
  for (u8 rr = 0; rr < 15; ++rr) {
    if (!(in.reglist & (1u << rr))) continue;
    all_hit &= st_u32(m, addr, s.regs[rr]);
    addr += 4;
  }
  if (in.writeback) s.regs[in.rn] = bt.new_base;
  return all_hit;
}

// Dense LDM (pop-without-PC shape); same guarantees as stm_dense plus "no
// writeback when the base is in the list". Mirrors execute()'s kLdm body:
// load all words, then writeback, then write registers (loaded values win).
inline void ldm_dense(CPUState& s, mem::AddressSpace& m, const Insn& in) {
  const BlockTransfer bt = block_transfer(in, s);
  GuestAddr addr = bt.start;
  u32 loaded[16];
  u32 idx = 0;
  for (u8 rr = 0; rr < 15; ++rr) {
    if (!(in.reglist & (1u << rr))) continue;
    loaded[idx++] = ld_u32(m, addr);
    addr += 4;
  }
  if (in.writeback) s.regs[in.rn] = bt.new_base;
  idx = 0;
  for (u8 rr = 0; rr < 15; ++rr) {
    if (!(in.reglist & (1u << rr))) continue;
    s.regs[rr] = loaded[idx++];
  }
}

}  // namespace ndroid::arm
