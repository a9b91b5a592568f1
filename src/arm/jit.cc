// Template JIT implementation. See jit.h for the architecture overview.
//
// Semantics contract: every template below is a transliteration of the
// corresponding computed-goto label in threaded.cc, and every shape
// without a dense template calls out into C++ code that *is* the threaded
// body. Flag materialisation uses the host's arithmetic flags: after a host
// `sub`/`cmp a,b`, ARM N==SF, Z==ZF, C==!CF, V==OF; after a host `add`,
// C==CF, V==OF. setcc and plain movs write the CPUState flag bytes without
// disturbing the host flags, so the fused compare-and-branch terminals
// consume the still-live host flags with a direct jcc.
//
// Retire accounting is baked into exit sites instead of per-op increments:
// a terminal adds the whole block's instruction count to ctx.done, a
// partial exit (slow-store self-modification, exec-op dead mark, exception)
// adds exactly the instructions architecturally retired before leaving.
#include "arm/jit.h"

#include <cstddef>
#include <cstring>
#include <exception>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "arm/cpu.h"
#include "arm/uop_kernels.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define NDROID_JIT_MMAP 1
#endif

namespace ndroid::arm {

// --- CodeArena ---------------------------------------------------------

CodeArena::CodeArena(std::size_t capacity, bool wx)
    : capacity_(capacity), wx_(wx) {
#ifdef NDROID_JIT_MMAP
  const int prot = wx ? (PROT_READ | PROT_WRITE)
                      : (PROT_READ | PROT_WRITE | PROT_EXEC);
  void* p =
      ::mmap(nullptr, capacity_, prot, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p != MAP_FAILED) {
    base_ = static_cast<u8*>(p);
    if (wx_) ::mprotect(base_, capacity_, PROT_READ | PROT_EXEC);
  }
#endif
}

CodeArena::~CodeArena() {
#ifdef NDROID_JIT_MMAP
  if (base_ != nullptr) ::munmap(base_, capacity_);
#endif
}

u8* CodeArena::alloc(std::size_t n) {
  const std::size_t aligned = (used_ + 15u) & ~std::size_t{15};
  if (base_ == nullptr || n > capacity_ || aligned > capacity_ - n) {
    return nullptr;
  }
  u8* p = base_ + aligned;
  used_ = aligned + n;
  return p;
}

void CodeArena::begin_write() {
#ifdef NDROID_JIT_MMAP
  if (wx_ && base_ != nullptr) {
    ::mprotect(base_, capacity_, PROT_READ | PROT_WRITE);
  }
#endif
}

void CodeArena::end_write() {
#ifdef NDROID_JIT_MMAP
  if (wx_ && base_ != nullptr) {
    ::mprotect(base_, capacity_, PROT_READ | PROT_EXEC);
  }
#endif
}

// --- Availability / configuration (both build flavours) -----------------

bool Cpu::jit_available() {
#ifdef NDROID_JIT_X64
  return true;
#else
  return false;
#endif
}

void Cpu::set_jit_config(std::size_t arena_bytes, bool wx) {
  jit_arena_bytes_ = arena_bytes;
  jit_wx_ = wx;
  flush_blocks();
  if (exec_depth_ == 0) tb_cache_.drain_graveyard();
  // Stale JitBlocks may still point into the old arena, but with all blocks
  // flushed and the graveyard drained (no guest frame is live per the
  // documented precondition), nothing can reach them — the mapping can go.
  jit_engine_.reset();
}

#ifdef NDROID_JIT_X64

namespace {

// --- Execution context -------------------------------------------------

// The single C++/host-code handshake structure. Pinned in r15 for the whole
// jit segment; standard-layout so the emitter can offsetof into it.
struct JitCtx {
  Cpu* cpu = nullptr;
  CPUState* s = nullptr;
  mem::AddressSpace* mem = nullptr;
  u64 budget = 0;
  u64 done = 0;     // guest instructions retired this segment
  u64 flushed = 0;  // portion of `done` already folded into cpu->retired_
  u32 edge_slow = 0;  // branch hooks or low helpers live: links call out
  u32 exit_exc = 0;   // a callout parked an exception in *eptr
  std::exception_ptr* eptr = nullptr;
};
static_assert(std::is_standard_layout_v<JitCtx>);

// Register pinning (SysV callee-saved, so callouts preserve them):
//   r15 = JitCtx*   rbx = CPUState*   r13 = read-TLB base
//   r14 = write-TLB base              r12 = scratch that survives callouts
enum Reg : u8 {
  RAX = 0, RCX = 1, RDX = 2, RBX = 3, RSP = 4, RBP = 5, RSI = 6, RDI = 7,
  R8 = 8, R9 = 9, R10 = 10, R11 = 11, R12 = 12, R13 = 13, R14 = 14,
  R15 = 15,
};

// x86 condition-code nibbles (jcc 0F 8x / setcc 0F 9x).
enum Cc : u8 {
  CC_O = 0, CC_NO = 1, CC_B = 2, CC_AE = 3, CC_E = 4, CC_NE = 5,
  CC_BE = 6, CC_A = 7, CC_S = 8, CC_NS = 9, CC_L = 12, CC_GE = 13,
  CC_LE = 14, CC_G = 15,
};

// --- Minimal x86-64 assembler ------------------------------------------
//
// Emits into a byte vector with rel32 forward fixups; the finished block is
// copied into the arena verbatim (intra-block branches are relative, every
// external reference is a movabs-baked absolute address).
class Asm {
 public:
  std::vector<u8> out;

  void b(u8 v) { out.push_back(v); }
  void d32(u32 v) {
    for (int i = 0; i < 4; ++i) b(static_cast<u8>(v >> (8 * i)));
  }
  void d64(u64 v) {
    for (int i = 0; i < 8; ++i) b(static_cast<u8>(v >> (8 * i)));
  }
  [[nodiscard]] std::size_t size() const { return out.size(); }

  void rex(bool w, u8 reg, u8 idx, u8 base) {
    const u8 v = static_cast<u8>(0x40 | (static_cast<u8>(w) << 3) |
                                 ((reg >> 3) << 2) | ((idx >> 3) << 1) |
                                 (base >> 3));
    if (v != 0x40) b(v);
  }
  void modrm11(u8 reg, u8 rm) {
    b(static_cast<u8>(0xC0 | ((reg & 7) << 3) | (rm & 7)));
  }
  // ModRM (+SIB for rsp/r12 bases) for [base + disp].
  void mem(u8 reg, u8 base, i32 disp) {
    const u8 bl = base & 7;
    u8 mod;
    if (disp == 0 && bl != 5) mod = 0;
    else if (disp >= -128 && disp <= 127) mod = 1;
    else mod = 2;
    if (bl == 4) {
      b(static_cast<u8>((mod << 6) | ((reg & 7) << 3) | 4));
      b(0x24);
    } else {
      b(static_cast<u8>((mod << 6) | ((reg & 7) << 3) | bl));
    }
    if (mod == 1) b(static_cast<u8>(disp));
    else if (mod == 2) d32(static_cast<u32>(disp));
  }
  // ModRM+SIB for [base + index*1 + disp]; index must not be RSP.
  void memx(u8 reg, u8 base, u8 idx, i32 disp) {
    const u8 bl = base & 7;
    u8 mod;
    if (disp == 0 && bl != 5) mod = 0;
    else if (disp >= -128 && disp <= 127) mod = 1;
    else mod = 2;
    b(static_cast<u8>((mod << 6) | ((reg & 7) << 3) | 4));
    b(static_cast<u8>(((idx & 7) << 3) | bl));
    if (mod == 1) b(static_cast<u8>(disp));
    else if (mod == 2) d32(static_cast<u32>(disp));
  }

  void mov_rm32(u8 r, u8 base, i32 d) { rex(0, r, 0, base); b(0x8B); mem(r, base, d); }
  void mov_mr32(u8 base, i32 d, u8 r) { rex(0, r, 0, base); b(0x89); mem(r, base, d); }
  void mov_rm64(u8 r, u8 base, i32 d) { rex(1, r, 0, base); b(0x8B); mem(r, base, d); }
  void mov_mr64(u8 base, i32 d, u8 r) { rex(1, r, 0, base); b(0x89); mem(r, base, d); }
  void mov_rm64x(u8 r, u8 base, u8 idx, i32 d) { rex(1, r, idx, base); b(0x8B); memx(r, base, idx, d); }
  void mov_rm32x(u8 r, u8 base, u8 idx, i32 d) { rex(0, r, idx, base); b(0x8B); memx(r, base, idx, d); }
  void mov_mr32x(u8 base, u8 idx, i32 d, u8 r) { rex(0, r, idx, base); b(0x89); memx(r, base, idx, d); }
  void mov_mr16x(u8 base, u8 idx, i32 d, u8 r) { b(0x66); rex(0, r, idx, base); b(0x89); memx(r, base, idx, d); }
  void mov_mr8x(u8 base, u8 idx, i32 d, u8 r) { rex(0, r, idx, base); b(0x88); memx(r, base, idx, d); }
  void movzx8_rmx(u8 r, u8 base, u8 idx, i32 d) { rex(0, r, idx, base); b(0x0F); b(0xB6); memx(r, base, idx, d); }
  void movzx16_rmx(u8 r, u8 base, u8 idx, i32 d) { rex(0, r, idx, base); b(0x0F); b(0xB7); memx(r, base, idx, d); }
  void movzx8_rm(u8 r, u8 base, i32 d) { rex(0, r, 0, base); b(0x0F); b(0xB6); mem(r, base, d); }
  void movzx16_rm(u8 r, u8 base, i32 d) { rex(0, r, 0, base); b(0x0F); b(0xB7); mem(r, base, d); }
  void movsx8_rm(u8 r, u8 base, i32 d) { rex(0, r, 0, base); b(0x0F); b(0xBE); mem(r, base, d); }
  void movsx16_rm(u8 r, u8 base, i32 d) { rex(0, r, 0, base); b(0x0F); b(0xBF); mem(r, base, d); }
  void movsx8_rr(u8 r, u8 src) { rex(0, r, 0, src); b(0x0F); b(0xBE); modrm11(r, src); }
  void movsx16_rr(u8 r, u8 src) { rex(0, r, 0, src); b(0x0F); b(0xBF); modrm11(r, src); }
  void mov_ri32(u8 r, u32 imm) { rex(0, 0, 0, r); b(static_cast<u8>(0xB8 + (r & 7))); d32(imm); }
  void mov_ri64(u8 r, u64 imm) { rex(1, 0, 0, r); b(static_cast<u8>(0xB8 + (r & 7))); d64(imm); }
  void mov_rr32(u8 dst, u8 src) { rex(0, src, 0, dst); b(0x89); modrm11(src, dst); }
  void mov_rr64(u8 dst, u8 src) { rex(1, src, 0, dst); b(0x89); modrm11(src, dst); }
  void mov_mi32(u8 base, i32 d, u32 imm) { rex(0, 0, 0, base); b(0xC7); mem(0, base, d); d32(imm); }
  void mov_mi16(u8 base, i32 d, u16 imm) { b(0x66); rex(0, 0, 0, base); b(0xC7); mem(0, base, d); b(static_cast<u8>(imm)); b(static_cast<u8>(imm >> 8)); }
  void mov_mi8(u8 base, i32 d, u8 imm) { rex(0, 0, 0, base); b(0xC6); mem(0, base, d); b(imm); }

  // dst32 <- dst32 OP [base+disp]; opc = 03 add / 2B sub / 23 and / 0B or /
  // 33 xor / 3B cmp.
  void alu_rm32(u8 opc, u8 r, u8 base, i32 d) { rex(0, r, 0, base); b(opc); mem(r, base, d); }
  void alu_rmx32(u8 opc, u8 r, u8 base, u8 idx, i32 d) { rex(0, r, idx, base); b(opc); memx(r, base, idx, d); }
  void alu_rr32(u8 opc, u8 dst, u8 src) { rex(0, dst, 0, src); b(opc); modrm11(dst, src); }
  // r OP= imm32; ext = 0 add / 1 or / 4 and / 5 sub / 6 xor / 7 cmp.
  void alu_ri32(u8 ext, u8 r, u32 imm) { rex(0, 0, 0, r); b(0x81); modrm11(ext, r); d32(imm); }
  void alu_ri64(u8 ext, u8 r, u32 imm) { rex(1, 0, 0, r); b(0x81); modrm11(ext, r); d32(imm); }
  void add_mi64(u8 base, i32 d, u32 imm) { rex(1, 0, 0, base); b(0x81); mem(0, base, d); d32(imm); }
  void add_mi32(u8 base, i32 d, u32 imm) { rex(0, 0, 0, base); b(0x81); mem(0, base, d); d32(imm); }
  void cmp_rm64(u8 r, u8 base, i32 d) { rex(1, r, 0, base); b(0x3B); mem(r, base, d); }
  void cmp_mi8(u8 base, i32 d, u8 imm) { rex(0, 0, 0, base); b(0x80); mem(7, base, d); b(imm); }
  void cmp_mi32(u8 base, i32 d, u32 imm) { rex(0, 0, 0, base); b(0x81); mem(7, base, d); d32(imm); }
  void not_r32(u8 r) { rex(0, 0, 0, r); b(0xF7); modrm11(2, r); }
  // ext = 4 shl / 5 shr / 7 sar / 1 ror.
  void shift_ri32(u8 ext, u8 r, u8 imm) { rex(0, 0, 0, r); b(0xC1); modrm11(ext, r); b(imm); }
  void imul_rm32(u8 r, u8 base, i32 d) { rex(0, r, 0, base); b(0x0F); b(0xAF); mem(r, base, d); }
  // edx:eax = eax * [base+disp]; ext = 4 mul (unsigned) / 5 imul (signed).
  void mul1_m32(u8 ext, u8 base, i32 d) { rex(0, 0, 0, base); b(0xF7); mem(ext, base, d); }
  void inc_m64(u8 base, i32 d) { rex(1, 0, 0, base); b(0xFF); mem(0, base, d); }
  void setcc_m(u8 cc, u8 base, i32 d) { rex(0, 0, 0, base); b(0x0F); b(static_cast<u8>(0x90 + cc)); mem(0, base, d); }
  void test_rr32(u8 a, u8 c) { rex(0, a, 0, c); b(0x85); modrm11(a, c); }
  void test_rr64(u8 a, u8 c) { rex(1, a, 0, c); b(0x85); modrm11(a, c); }
  void test_al() { b(0x84); b(0xC0); }
  void mov_al_m(u8 base, i32 d) { rex(0, 0, 0, base); b(0x8A); mem(0, base, d); }
  void xor_al_1() { b(0x34); b(0x01); }
  void xor_al_m(u8 base, i32 d) { rex(0, 0, 0, base); b(0x32); mem(0, base, d); }
  void or_al_m(u8 base, i32 d) { rex(0, 0, 0, base); b(0x0A); mem(0, base, d); }
  void and_al_m(u8 base, i32 d) { rex(0, 0, 0, base); b(0x22); mem(0, base, d); }
  void mov_al_1() { b(0xB0); b(0x01); }
  void call_r(u8 r) { rex(0, 0, 0, r); b(0xFF); modrm11(2, r); }
  void jmp_r(u8 r) { rex(0, 0, 0, r); b(0xFF); modrm11(4, r); }
  void push_r(u8 r) { rex(0, 0, 0, r); b(static_cast<u8>(0x50 + (r & 7))); }
  void pop_r(u8 r) { rex(0, 0, 0, r); b(static_cast<u8>(0x58 + (r & 7))); }
  void ret() { b(0xC3); }

  // Forward rel32 branches: returns the fixup position; bind() retargets it
  // to the current end.
  [[nodiscard]] std::size_t jcc(u8 cc) {
    b(0x0F);
    b(static_cast<u8>(0x80 + cc));
    const std::size_t p = size();
    d32(0);
    return p;
  }
  [[nodiscard]] std::size_t jmp() {
    b(0xE9);
    const std::size_t p = size();
    d32(0);
    return p;
  }
  void bind(std::size_t p) {
    const i32 rel = static_cast<i32>(size() - (p + 4));
    std::memcpy(out.data() + p, &rel, 4);
  }
};

// --- Layout constants baked into templates -----------------------------

constexpr i32 kRegsOff = static_cast<i32>(offsetof(CPUState, regs));
constexpr i32 reg_off(u8 r) { return kRegsOff + 4 * static_cast<i32>(r); }
constexpr i32 kPcOff = kRegsOff + 4 * kRegPC;
constexpr i32 kFlagN = static_cast<i32>(offsetof(CPUState, n));
constexpr i32 kFlagZ = static_cast<i32>(offsetof(CPUState, z));
constexpr i32 kFlagC = static_cast<i32>(offsetof(CPUState, c));
constexpr i32 kFlagV = static_cast<i32>(offsetof(CPUState, v));
constexpr i32 kThumbOff = static_cast<i32>(offsetof(CPUState, thumb));
constexpr i32 kItOff = static_cast<i32>(offsetof(CPUState, itstate));

constexpr i32 kCtxS = static_cast<i32>(offsetof(JitCtx, s));
constexpr i32 kCtxBudget = static_cast<i32>(offsetof(JitCtx, budget));
constexpr i32 kCtxDone = static_cast<i32>(offsetof(JitCtx, done));
constexpr i32 kCtxEdgeSlow = static_cast<i32>(offsetof(JitCtx, edge_slow));

constexpr u32 kPageMask = mem::AddressSpace::kPageMask;
constexpr u32 kPageSize = mem::AddressSpace::kPageSize;
constexpr u32 kTlbMask = mem::AddressSpace::kTlbSlots - 1;

// ARM condition -> jcc nibble after a host sub/cmp (full flag fidelity:
// ARM C is the complement of the host borrow, so CS -> AE and so on).
constexpr u8 kCcSub[14] = {
    CC_E,  CC_NE, CC_AE, CC_B,  CC_S,  CC_NS, CC_O,
    CC_NO, CC_A,  CC_BE, CC_GE, CC_L,  CC_G,  CC_LE,
};
// After a host `test` for the cmp-#0 shape (ARM C:=1, V:=0): CS/VC become
// always-taken, CC/VS never-taken, and OF=0 keeps the signed forms exact.
constexpr u8 kCcAlways = 0xFE;
constexpr u8 kCcNever = 0xFF;
constexpr u8 kCcCmp0[14] = {
    CC_E,      CC_NE, kCcAlways, kCcNever, CC_S,  CC_NS, kCcNever,
    kCcAlways, CC_NE, CC_E,      CC_GE,    CC_L,  CC_G,  CC_LE,
};

// --- Memory callouts (TLB-miss slow paths) ------------------------------
//
// These reuse the exact kernels the threaded bodies run, so slow-path
// semantics (write-watch, refill) are shared by construction. Reads are
// fault-free by the AddressSpace contract (untouched memory reads zero) and
// the write slow path only runs the internal write watch, so none of these
// can throw — matching the threaded tier, where the same calls sit outside
// any catch.

u32 co_read8(JitCtx* c, u32 a) noexcept { return ld_u8(*c->mem, a); }
u32 co_read16(JitCtx* c, u32 a) noexcept { return ld_u16(*c->mem, a); }
u32 co_read32(JitCtx* c, u32 a) noexcept { return ld_u32(*c->mem, a); }
void co_write8(JitCtx* c, u32 a, u32 v) noexcept { st_u8(*c->mem, a, v); }
void co_write16(JitCtx* c, u32 a, u32 v) noexcept { st_u16(*c->mem, a, v); }
void co_write32(JitCtx* c, u32 a, u32 v) noexcept { st_u32(*c->mem, a, v); }
u32 co_stm(JitCtx* c, const TbInsn* ti) noexcept {
  return stm_dense(*c->s, *c->mem, ti->insn) ? 1u : 0u;
}
void co_ldm(JitCtx* c, const TbInsn* ti) noexcept {
  ldm_dense(*c->s, *c->mem, ti->insn);
}

// General-path body instruction (threaded L_exec / L_exec_dead): never a
// branch, may throw (undecodable shapes surface as GuestFault). Returns 0
// on success, 1 with the exception parked in the context.
u64 co_exec(JitCtx* c, const TbInsn* ti, u32 pc) noexcept {
  try {
    c->s->set_pc(pc);
    execute(ti->insn, *c->s, *c->mem);
    return 0;
  } catch (...) {
    *c->eptr = std::current_exception();
    c->exit_exc = 1;
    return 1;
  }
}

// Reverse map from a computed-goto label to its micro-op kind.
UK uop_kind(const void* label) {
  static const std::unordered_map<const void*, UK> map = [] {
    std::unordered_map<const void*, UK> m;
    void* const* table = ThreadedRun::label_table();
    for (u32 k = 0; k < static_cast<u32>(UK::kCount); ++k) {
      m.emplace(table[k], static_cast<UK>(k));
    }
    return m;
  }();
  const auto it = map.find(label);
  return it == map.end() ? UK::kCount : it->second;
}

// Per-generation prologue/epilogue glue, emitted at the arena base. The
// prologue saves the callee-saved pin registers (6 pushes plus the rsp
// adjustment leave rsp 16-aligned inside block code, so a slow path's
// `call` meets the SysV alignment rule), loads the pins, and tail-jumps
// into block code; the epilogue restores and returns to JitRun::exec. RBP
// is saved here but only pinned (to the taint register-label file) at each
// traced body's entry — clean bodies never touch it.
bool emit_stubs(Cpu& cpu, JitEngine& eng) {
  const mem::AddressSpace::TlbView view = cpu.memory().tlb_view();
  Asm a;
  a.push_r(RBX);
  a.push_r(RBP);
  a.push_r(R12);
  a.push_r(R13);
  a.push_r(R14);
  a.push_r(R15);
  a.alu_ri64(5, RSP, 8);
  a.mov_rr64(R15, RDI);
  a.mov_rm64(RBX, RDI, kCtxS);
  a.mov_ri64(R13, reinterpret_cast<u64>(view.read_base));
  a.mov_ri64(R14, reinterpret_cast<u64>(view.write_base));
  a.jmp_r(RSI);
  const std::size_t epi = a.size();
  a.alu_ri64(0, RSP, 8);
  a.pop_r(R15);
  a.pop_r(R14);
  a.pop_r(R13);
  a.pop_r(R12);
  a.pop_r(RBP);
  a.pop_r(RBX);
  a.ret();

  u8* code = eng.arena.alloc(a.size());
  if (code == nullptr) return false;
  eng.arena.begin_write();
  std::memcpy(code, a.out.data(), a.size());
  eng.arena.end_write();
  eng.entry = reinterpret_cast<JitEngine::EntryFn>(code);
  eng.epilogue = code + epi;
  return true;
}

}  // namespace

// --- Edge resolution (threaded link_edge/link_fall transliterated) ------

const void* JitRun::resolve(void* ctx_, void* jb_, u32 slot_idx, u32 from,
                            u32 to, u32 taken) {
  auto* c = static_cast<JitCtx*>(ctx_);
  auto* jb = static_cast<JitBlock*>(jb_);
  Cpu& cpu = *c->cpu;
  CPUState& s = *c->s;
  if (taken != 0 && !cpu.branch_hooks_.empty() &&
      !cpu.is_branch_quiet(*jb->blk->tb, from, to)) {
    // Analysis event: fire and surface (hooks may move anything).
    s.set_pc(to);
    cpu.retired_ += c->done - c->flushed;
    c->flushed = c->done;
    cpu.fire_branch_hooks(from, to);
    return nullptr;
  }
  if (s.itstate != 0 || to >= kHelperWindowBase ||
      (cpu.has_low_helpers_ && cpu.helpers_.count(to) != 0)) {
    s.set_pc(to);
    return nullptr;
  }
  JitEngine& eng = *cpu.jit_engine_;
  const u64 key = TbCache::key(to, s.thumb);
  const u64 ver = cpu.tb_cache_.version();
  HostSlot& slot = jb->slots[slot_idx];
  if (!cpu.insn_hooks_.empty()) {
    // Gate-live mode: every crossing re-decides the stream, so slots are
    // never consulted or patched (a cached target would freeze a stale
    // gate answer into the edge). The inline fast path is already fenced
    // off — exec forces edge_slow while instruction hooks are live.
    const Cpu::TbFrontEntry& fe = cpu.tb_front_[static_cast<u32>(
        (key * 0x9E3779B97F4A7C15ull) >> (64 - Cpu::kTbFrontBits))];
    if (fe.key == key && fe.version == ver && fe.tb->threaded != nullptr &&
        fe.tb->threaded->jit != nullptr &&
        fe.tb->threaded->jit->code != nullptr &&
        fe.tb->threaded->jit->arena_gen == eng.generation) {
      ThreadedBlock& sb = *fe.tb->threaded;
      if (cpu.block_hooks_fire(*fe.tb)) {
        if (sb.jit->traced_entry != nullptr) {
          ++cpu.jit_links_;
          return sb.jit->traced_entry;
        }
        // Gate fired but no traced stream was emitted: surface so the
        // trampoline dispatches this block through the threaded tier.
        s.set_pc(to);
        return nullptr;
      }
      ++cpu.fastpath_blocks_;
      cpu.fastpath_insns_ += sb.n_insns;
      ++cpu.jit_links_;
      return sb.jit->code;
    }
    s.set_pc(to);
    return nullptr;
  }
  if (slot.version == ver && slot.key == key) {
    // Counted as a TB hit when exec folds the jit_links_ delta in.
    ++cpu.jit_links_;
    return slot.target;
  }
  const Cpu::TbFrontEntry& fe = cpu.tb_front_[static_cast<u32>(
      (key * 0x9E3779B97F4A7C15ull) >> (64 - Cpu::kTbFrontBits))];
  if (fe.key == key && fe.version == ver && fe.tb->threaded != nullptr &&
      fe.tb->threaded->jit != nullptr &&
      fe.tb->threaded->jit->code != nullptr &&
      fe.tb->threaded->jit->arena_gen == eng.generation) {
    slot = {ver, key, fe.tb->threaded->jit->code};
    ++cpu.jit_link_patches_;
    ++cpu.jit_links_;
    return slot.target;
  }
  // Untranslated (or not yet compiled) successor: surface to the
  // trampoline, which compiles it and re-enters.
  s.set_pc(to);
  return nullptr;
}

const void* JitRun::co_edge(void* ctx_, void* jb_, u32 slot_idx, u32 from,
                            u32 to, u32 taken) {
  auto* c = static_cast<JitCtx*>(ctx_);
  try {
    return resolve(ctx_, jb_, slot_idx, from, to, taken);
  } catch (...) {
    *c->eptr = std::current_exception();
    c->exit_exc = 1;
    return nullptr;
  }
}

const void* JitRun::co_bx(void* ctx_, void* jb_, const void* uop_) {
  // Threaded L_bx_term (retire already accounted inline by the template).
  auto* c = static_cast<JitCtx*>(ctx_);
  const auto* u = static_cast<const Uop*>(uop_);
  CPUState& s = *c->s;
  try {
    const u32 target = s.regs[u->a];
    if (u->b != 0) s.regs[kRegLR] = s.thumb ? (u->x | 1u) : u->x;
    const u32 from = static_cast<const TbInsn*>(u->p)->pc;
    const u32 to = target & ~1u;
    s.thumb = (target & 1u) != 0;
    const bool taken = to != u->x;
    return resolve(ctx_, jb_, taken ? 0u : 1u, from, to, taken ? 1u : 0u);
  } catch (...) {
    *c->eptr = std::current_exception();
    c->exit_exc = 1;
    return nullptr;
  }
}

const void* JitRun::co_exec_term(void* ctx_, void* jb_, const void* uop_) {
  // Threaded L_exec_term; the template added the body's retire count, this
  // adds the terminal's own only after execute() succeeds (an exception
  // must not count the faulting instruction).
  auto* c = static_cast<JitCtx*>(ctx_);
  const auto* u = static_cast<const Uop*>(uop_);
  CPUState& s = *c->s;
  try {
    const auto* ti = static_cast<const TbInsn*>(u->p);
    s.set_pc(u->imm);
    execute(ti->insn, s, *c->mem);
    ++c->done;
    const u32 to = s.pc();
    const bool taken = to != u->x;
    return resolve(ctx_, jb_, taken ? 0u : 1u, ti->pc, to,
                   taken ? 1u : 0u);
  } catch (...) {
    *c->eptr = std::current_exception();
    c->exit_exc = 1;
    return nullptr;
  }
}

const void* JitRun::co_svc_term(void* ctx_, void* jb_, const void* uop_) {
  // Threaded L_svc_term, including the retire flush before the handler
  // (which may observe or re-enter the Cpu).
  auto* c = static_cast<JitCtx*>(ctx_);
  const auto* u = static_cast<const Uop*>(uop_);
  Cpu& cpu = *c->cpu;
  CPUState& s = *c->s;
  try {
    const auto* ti = static_cast<const TbInsn*>(u->p);
    s.set_pc(u->imm);
    if (ti->insn.op == Op::kSvc &&
        condition_passed(effective_cond(ti->insn, s), s)) {
      if (!cpu.svc_handler_) throw GuestFault("SVC with no kernel attached");
      if (s.thumb && s.itstate != 0) advance_itstate(s);
      s.set_pc(u->x);
      ++c->done;
      cpu.retired_ += c->done - c->flushed;
      c->flushed = c->done;
      cpu.svc_handler_(cpu, ti->insn.imm);
      return nullptr;
    }
    // Condition failed: execute() just advances PC (and ITSTATE).
    execute(ti->insn, s, *c->mem);
    ++c->done;
    return resolve(ctx_, jb_, 1, ti->pc, s.pc(), 0);
  } catch (...) {
    *c->eptr = std::current_exception();
    c->exit_exc = 1;
    return nullptr;
  }
}

// --- Traced-stream callouts ---------------------------------------------

u64 JitRun::co_trace_step(void* ctx_, const void* op_, const void* ti_,
                          u32 written) {
  // One non-inlineable TraceStep (threaded exec_traced_impl's fused-thunk
  // dispatch). The engine's incremental bookkeeping must be reconciled
  // before the handler runs: it may call set_reg, whose count/mask deltas
  // assume the stored state matches the label file.
  auto* c = static_cast<JitCtx*>(ctx_);
  const TaintJitView& v = c->cpu->taint_jit_view_;
  if (written != 0) v.sync(v.sync_ctx, written);
  const auto* op = static_cast<const TraceOp*>(op_);
  const auto* ti = static_cast<const TbInsn*>(ti_);
  try {
    op->fn(op->ctx, *c->cpu, ti->insn, ti->pc);
    return 0;
  } catch (...) {
    c->s->set_pc(ti->pc);  // the hook ran before its instruction retired
    *c->eptr = std::current_exception();
    c->exit_exc = 1;
    return 1;
  }
}

void JitRun::co_taint_sync(void* ctx_, u32 written) {
  auto* c = static_cast<JitCtx*>(ctx_);
  const TaintJitView& v = c->cpu->taint_jit_view_;
  v.sync(v.sync_ctx, written);
}

u32 JitRun::co_shadow_read(void* ctx_, u32 addr, u32 len) {
  auto* c = static_cast<JitCtx*>(ctx_);
  const TaintJitView& v = c->cpu->taint_jit_view_;
  return v.shadow_read(v.mem_ctx, addr, len);
}

void JitRun::co_shadow_write(void* ctx_, u32 addr, u32 len, u32 taint) {
  auto* c = static_cast<JitCtx*>(ctx_);
  const TaintJitView& v = c->cpu->taint_jit_view_;
  v.shadow_write(v.mem_ctx, addr, len, taint);
}

// --- Block compilation --------------------------------------------------

namespace {

// Everything the template emitters reference from outside the block. Filled
// by JitRun::compile (a Cpu friend); the emitters themselves are plain free
// functions and only see what is staged here.
struct EmitEnv {
  JitEngine* eng = nullptr;
  ThreadedBlock* blk = nullptr;
  JitBlock* jb = nullptr;
  u64* links = nullptr;            // &cpu.jit_links_
  const u64* version_addr = nullptr;  // TbCache::version_addr()
};

void emit_epilogue_jump(Asm& a, const EmitEnv& e) {
  a.mov_ri64(RAX, reinterpret_cast<u64>(e.eng->epilogue));
  a.jmp_r(RAX);
}

// Traced-pass emitter state (defined with the traced-stream section below).
// Forward-declared so the shared partial-exit emitters can spill the
// deferred taint bookkeeping on exits that occur mid-traced-body.
struct TraceEmit;
void emit_trace_spill(Asm& a, const TraceEmit& ts);

// Partial exit after a slow store / dense STM that may have killed the
// block: check tb.dead, and when set retire `ri + 1` instructions and
// surface with the resume PC (the store instruction fully retired). In a
// traced body the exit first spills the pending label sync / counter folds
// (`ts`); the fall-through keeps them pending (only one path runs).
void emit_dead_check(Asm& a, const EmitEnv& e, u32 ri, u32 resume_pc,
                     const TraceEmit* ts) {
  a.mov_ri64(RAX, reinterpret_cast<u64>(&e.blk->tb->dead));
  a.cmp_mi8(RAX, 0, 0);
  const std::size_t alive = a.jcc(CC_E);
  if (ts != nullptr) emit_trace_spill(a, *ts);
  a.add_mi64(R15, kCtxDone, ri + 1);
  a.mov_mi32(RBX, kPcOff, resume_pc);
  emit_epilogue_jump(a, e);
  a.bind(alive);
}

// Inline software-TLB probe shared by the load/store templates, mirroring
// tlb_probe_read/tlb_probe_write. On entry esi holds the guest address; on
// a hit `host` holds the slot's host page base and eax the page offset.
// Misses (and page-straddling accesses) collect into `slow_fixups`.
void emit_tlb_probe(Asm& a, u8 tlb_base, u8 host, u32 len,
                    std::vector<std::size_t>& slow_fixups) {
  if (len > 1) {
    a.mov_rr32(RAX, RSI);
    a.alu_ri32(4, RAX, kPageMask);
    a.alu_ri32(7, RAX, kPageSize - len);
    slow_fixups.push_back(a.jcc(CC_A));
  }
  a.mov_rr32(RCX, RSI);
  a.shift_ri32(5, RCX, 12);      // page number
  a.mov_rr32(RAX, RCX);
  a.alu_ri32(4, RAX, kTlbMask);  // slot index
  a.shift_ri32(4, RAX, 4);       // * sizeof(TlbEntry)
  a.alu_rmx32(0x3B, RCX, tlb_base, RAX, 0);  // cmp page, slot.page
  slow_fixups.push_back(a.jcc(CC_NE));
  a.mov_rm64x(host, tlb_base, RAX, 8);  // slot.host
  a.mov_rr32(RAX, RSI);
  a.alu_ri32(4, RAX, kPageMask);  // page offset
}

enum class MemVar : u8 { kOff, kPre, kPost };

// Dense load (threaded LD_TRIPLE): the loaded value lands byte-identically
// to ld_u*/ld_s*; writeback (pre/post, staged in r12 across the potential
// slow call) is applied before the destination write, so rn == rd takes the
// same net effect as the threaded body (rd wins).
void emit_load(Asm& a, const Uop& u, MemVar var, u32 len, bool is_signed) {
  a.mov_rm32(RSI, RBX, reg_off(u.b));
  if (var != MemVar::kPost && u.imm != 0) a.alu_ri32(0, RSI, u.imm);
  if (var == MemVar::kPre) a.mov_rr32(R12, RSI);
  if (var == MemVar::kPost) {
    a.mov_rr32(R12, RSI);
    if (u.imm != 0) a.alu_ri32(0, R12, u.imm);
  }
  std::vector<std::size_t> slow;
  emit_tlb_probe(a, R13, RDX, len, slow);
  if (len == 4) a.mov_rm32x(RAX, RDX, RAX, 0);
  else if (len == 2) a.movzx16_rmx(RAX, RDX, RAX, 0);
  else a.movzx8_rmx(RAX, RDX, RAX, 0);
  const std::size_t join = a.jmp();
  for (const std::size_t f : slow) a.bind(f);
  a.mov_rr64(RDI, R15);  // arg0 = ctx; esi already holds the address
  const void* fn = len == 4 ? reinterpret_cast<const void*>(&co_read32)
                 : len == 2 ? reinterpret_cast<const void*>(&co_read16)
                            : reinterpret_cast<const void*>(&co_read8);
  a.mov_ri64(RAX, reinterpret_cast<u64>(fn));
  a.call_r(RAX);
  a.bind(join);
  if (is_signed) {
    if (len == 2) a.movsx16_rr(RAX, RAX);
    else a.movsx8_rr(RAX, RAX);
  }
  if (var != MemVar::kOff) a.mov_mr32(RBX, reg_off(u.b), R12);
  a.mov_mr32(RBX, reg_off(u.a), RAX);
}

// Dense store (threaded ST_BODY): value read before writeback, writeback
// after the store completes. A TLB-hit store provably cannot have touched
// cached code (watched pages are never write-TLB cached) and skips the dead
// check; the slow path re-checks tb.dead and takes the partial exit.
void emit_store(Asm& a, const EmitEnv& e, const Uop& u, MemVar var, u32 len,
                u32 ri, const TraceEmit* ts) {
  a.mov_rm32(RSI, RBX, reg_off(u.b));
  if (var != MemVar::kPost && u.imm != 0) a.alu_ri32(0, RSI, u.imm);
  if (var == MemVar::kPre) a.mov_rr32(R12, RSI);
  if (var == MemVar::kPost) {
    a.mov_rr32(R12, RSI);
    if (u.imm != 0) a.alu_ri32(0, R12, u.imm);
  }
  a.mov_rm32(RDX, RBX, reg_off(u.a));  // value, before any writeback
  std::vector<std::size_t> slow;
  emit_tlb_probe(a, R14, R8, len, slow);
  if (len == 4) a.mov_mr32x(R8, RAX, 0, RDX);
  else if (len == 2) a.mov_mr16x(R8, RAX, 0, RDX);
  else a.mov_mr8x(R8, RAX, 0, RDX);
  if (var != MemVar::kOff) a.mov_mr32(RBX, reg_off(u.b), R12);
  const std::size_t next = a.jmp();
  for (const std::size_t f : slow) a.bind(f);
  a.mov_rr64(RDI, R15);  // esi = addr, edx = value already in place
  const void* fn = len == 4 ? reinterpret_cast<const void*>(&co_write32)
                 : len == 2 ? reinterpret_cast<const void*>(&co_write16)
                            : reinterpret_cast<const void*>(&co_write8);
  a.mov_ri64(RAX, reinterpret_cast<u64>(fn));
  a.call_r(RAX);
  if (var != MemVar::kOff) a.mov_mr32(RBX, reg_off(u.b), R12);
  emit_dead_check(a, e, ri, u.x, ts);
  a.bind(next);
}

// Quiet-edge link tail (threaded link_edge + link_fall), emitted after the
// terminal's retire accounting. Static targets bake everything; the
// version-fenced slot fast path jumps straight into the successor's code.
// No runtime key compare is needed inline: each slot belongs to exactly one
// static edge site with a fixed (to, thumb), so a version match implies a
// key match (dynamic terminals resolve in C++ with the full compare).
void emit_link(Asm& a, const EmitEnv& e, u8 slot_idx, u32 from, u32 to,
               bool taken) {
  // Host-return / helper-window landings always surface...
  if (to >= kHelperWindowBase) {
    if (taken) {
      // ...but a taken edge may still owe the branch hooks a callout.
      a.cmp_mi32(R15, kCtxEdgeSlow, 0);
      const std::size_t quiet = a.jcc(CC_E);
      a.mov_rr64(RDI, R15);
      a.mov_ri64(RSI, reinterpret_cast<u64>(e.jb));
      a.mov_ri32(RDX, slot_idx);
      a.mov_ri32(RCX, from);
      a.mov_ri32(R8, to);
      a.mov_ri32(R9, 1);
      a.mov_ri64(RAX, reinterpret_cast<u64>(&JitRun::co_edge));
      a.call_r(RAX);
      emit_epilogue_jump(a, e);  // window targets never link
      a.bind(quiet);
    }
    a.mov_mi32(RBX, kPcOff, to);
    emit_epilogue_jump(a, e);
    return;
  }
  // Branch hooks / low helpers live: resolve in C++ (rare configurations).
  const std::size_t slow1 = [&] {
    a.cmp_mi32(R15, kCtxEdgeSlow, 0);
    return a.jcc(CC_NE);
  }();
  // Mid-IT landings surface (blocks are translated without IT context).
  const std::size_t surface = [&] {
    a.cmp_mi8(RBX, kItOff, 0);
    return a.jcc(CC_NE);
  }();
  // Version-fenced direct link.
  a.mov_ri64(RCX, reinterpret_cast<u64>(&e.jb->slots[slot_idx]));
  a.mov_rm64(RAX, RCX, 0);  // slot.version
  a.mov_ri64(RDX, reinterpret_cast<u64>(e.version_addr));
  a.cmp_rm64(RAX, RDX, 0);
  const std::size_t slow2 = a.jcc(CC_NE);
  a.mov_ri64(RAX, reinterpret_cast<u64>(e.links));
  a.inc_m64(RAX, 0);
  a.mov_rm64(RAX, RCX, 16);  // slot.target
  a.jmp_r(RAX);
  // Patch-or-surface through co_edge.
  a.bind(slow1);
  a.bind(slow2);
  a.mov_rr64(RDI, R15);
  a.mov_ri64(RSI, reinterpret_cast<u64>(e.jb));
  a.mov_ri32(RDX, slot_idx);
  a.mov_ri32(RCX, from);
  a.mov_ri32(R8, to);
  a.mov_ri32(R9, taken ? 1 : 0);
  a.mov_ri64(RAX, reinterpret_cast<u64>(&JitRun::co_edge));
  a.call_r(RAX);
  a.test_rr64(RAX, RAX);
  const std::size_t exit_j = a.jcc(CC_E);
  a.jmp_r(RAX);
  a.bind(exit_j);
  emit_epilogue_jump(a, e);
  a.bind(surface);
  a.mov_mi32(RBX, kPcOff, to);
  emit_epilogue_jump(a, e);
}

// Dynamic terminal (bx / exec_term / svc_term): the callout owns the edge
// resolution; emitted code only routes the returned successor.
void emit_dynamic_terminal(Asm& a, const EmitEnv& e, const Uop& u,
                           const void* fn) {
  a.mov_rr64(RDI, R15);
  a.mov_ri64(RSI, reinterpret_cast<u64>(e.jb));
  a.mov_ri64(RDX, reinterpret_cast<u64>(&u));
  a.mov_ri64(RAX, reinterpret_cast<u64>(fn));
  a.call_r(RAX);
  a.test_rr64(RAX, RAX);
  const std::size_t exit_j = a.jcc(CC_E);
  a.jmp_r(RAX);
  a.bind(exit_j);
  emit_epilogue_jump(a, e);
}

// Materialise `al = condition passed` from the CPUState flag bytes (the
// standalone B<cond> terminal — no live host flags to reuse).
void emit_cond_eval(Asm& a, Cond cond) {
  switch (cond) {
    case Cond::kEQ: a.mov_al_m(RBX, kFlagZ); break;
    case Cond::kNE: a.mov_al_m(RBX, kFlagZ); a.xor_al_1(); break;
    case Cond::kCS: a.mov_al_m(RBX, kFlagC); break;
    case Cond::kCC: a.mov_al_m(RBX, kFlagC); a.xor_al_1(); break;
    case Cond::kMI: a.mov_al_m(RBX, kFlagN); break;
    case Cond::kPL: a.mov_al_m(RBX, kFlagN); a.xor_al_1(); break;
    case Cond::kVS: a.mov_al_m(RBX, kFlagV); break;
    case Cond::kVC: a.mov_al_m(RBX, kFlagV); a.xor_al_1(); break;
    case Cond::kHI:
      a.mov_al_m(RBX, kFlagZ);
      a.xor_al_1();
      a.and_al_m(RBX, kFlagC);
      break;
    case Cond::kLS:
      a.mov_al_m(RBX, kFlagC);
      a.xor_al_1();
      a.or_al_m(RBX, kFlagZ);
      break;
    case Cond::kGE:
      a.mov_al_m(RBX, kFlagN);
      a.xor_al_m(RBX, kFlagV);
      a.xor_al_1();
      break;
    case Cond::kLT:
      a.mov_al_m(RBX, kFlagN);
      a.xor_al_m(RBX, kFlagV);
      break;
    case Cond::kGT:
      a.mov_al_m(RBX, kFlagN);
      a.xor_al_m(RBX, kFlagV);
      a.or_al_m(RBX, kFlagZ);
      a.xor_al_1();
      break;
    case Cond::kLE:
      a.mov_al_m(RBX, kFlagN);
      a.xor_al_m(RBX, kFlagV);
      a.or_al_m(RBX, kFlagZ);
      break;
    default:  // kAL never reaches b_cond; treat as taken defensively
      a.mov_al_1();
      break;
  }
  a.test_al();
}

// Two-arm conditional link: jcc on the live host flags selects the taken
// arm (kCcAlways/kCcNever collapse to a single arm).
void emit_cond_arms(Asm& a, const EmitEnv& e, u8 cc, u32 from, u32 taken_to,
                    u32 fall_to) {
  if (cc == kCcAlways) {
    emit_link(a, e, 0, from, taken_to, true);
    return;
  }
  if (cc == kCcNever) {
    emit_link(a, e, 1, from, fall_to, false);
    return;
  }
  const std::size_t taken_j = a.jcc(cc);
  emit_link(a, e, 1, from, fall_to, false);
  a.bind(taken_j);
  emit_link(a, e, 0, from, taken_to, true);
}

// Write the four flag bytes from the live host flags of a sub/cmp
// (set_sub_flags) or add (set_add_flags). setcc does not disturb the host
// flags, so a following jcc still sees them.
void emit_flags_sub(Asm& a) {
  a.setcc_m(CC_S, RBX, kFlagN);
  a.setcc_m(CC_E, RBX, kFlagZ);
  a.setcc_m(CC_AE, RBX, kFlagC);  // ARM C = !borrow
  a.setcc_m(CC_O, RBX, kFlagV);
}
void emit_flags_add(Asm& a) {
  a.setcc_m(CC_S, RBX, kFlagN);
  a.setcc_m(CC_E, RBX, kFlagZ);
  a.setcc_m(CC_B, RBX, kFlagC);  // ARM C = carry-out
  a.setcc_m(CC_O, RBX, kFlagV);
}

// --- Traced-stream emission ---------------------------------------------
//
// The traced body prefixes every instruction's clean template with its
// Table V taint transfer, written raw over the engine's register label file
// (base pinned in RBP). Engine bookkeeping (count/mask/epoch) and the
// tracer's statistics counters are deferred: `pending_w` accumulates the
// label slots written since the last sync callout, `fold_insns` the
// inline-handled steps since the last counter fold, and every path that
// leaves the body (exits, out-of-line step callouts) reconciles both.
// Instructions the emitter cannot inline exactly call out per step
// (co_trace_step), which replays the threaded traced dispatch verbatim.

struct TraceEmit {
  const TaintJitView* view = nullptr;
  u32 pending_w = 0;   // label slots written raw since the last sync
  u32 fold_insns = 0;  // inline-handled steps since the last counter fold
  /// Per-instruction dead label-file writes (block-local backward liveness;
  /// plan_elision). An elided write skips only the raw store — the step
  /// still folds its counters, since the tracer would have run its handler.
  std::vector<u16> elide;
};

// Block-local dead-write elimination over the register label file. A write
// is dead when every path to the next observation point overwrites it:
// "wild" steps (anything that can exit the body, call into the engine, or
// move labels to memory) make all sixteen slots observable, so liveness
// resets to full across them. Reads/writes come from the same Table V
// classification the tracer uses; steps whose thunk is null touch nothing.
std::vector<u16> plan_elision(const ThreadedBlock& blk) {
  const u32 n = blk.n_insns;
  std::vector<u16> reads(n, 0), writes(n, 0), elide(n, 0);
  std::vector<u8> wild(n, 0);
  const std::vector<TraceStep>& steps = blk.traced;
  const std::vector<TbInsn>& insns = blk.tb->insns;

  const auto alu_effects = [&](u32 idx) {
    const TraceStep& st = steps[idx];
    if (st.generic) {
      wild[idx] = 1;
      return;
    }
    if (st.op.fn == nullptr) return;
    const Insn& in = insns[idx].insn;
    switch (in.taint_class()) {
      case TaintClass::kBinaryOp3: {
        u16 r = static_cast<u16>(1u << in.rn);
        if (!in.imm_operand) r |= static_cast<u16>(1u << in.rm);
        if (in.op == Op::kMla || in.op == Op::kUmull ||
            in.op == Op::kSmull) {
          r |= static_cast<u16>(1u << in.rs);
        }
        u16 w = static_cast<u16>(1u << in.rd);
        if (in.op == Op::kUmull || in.op == Op::kSmull) {
          w |= static_cast<u16>(1u << in.rn);  // RdHi
        }
        reads[idx] = r;
        writes[idx] = w;
        break;
      }
      case TaintClass::kBinaryOp2:
        if (!in.imm_operand) {
          reads[idx] = static_cast<u16>((1u << in.rd) | (1u << in.rm));
          writes[idx] = static_cast<u16>(1u << in.rd);
        }
        break;  // imm form: t(Rd) unchanged — no effect at all
      case TaintClass::kUnary:
      case TaintClass::kMovReg:
        reads[idx] = static_cast<u16>(1u << in.rm);
        writes[idx] = static_cast<u16>(1u << in.rd);
        break;
      case TaintClass::kMovImm:
        writes[idx] = static_cast<u16>(1u << in.rd);
        break;
      default:
        wild[idx] = 1;  // an out-of-line handler may observe any slot
        break;
    }
  };
  const auto load_effects = [&](u32 idx) {
    const TraceStep& st = steps[idx];
    if (st.generic) {
      wild[idx] = 1;
      return;
    }
    if (st.op.fn == nullptr) return;
    const Insn& in = insns[idx].insn;
    reads[idx] = static_cast<u16>(1u << in.rn);
    writes[idx] = static_cast<u16>(1u << in.rd);
  };

  u32 ri = 0;
  const u32 kAluLo = static_cast<u32>(UK::k_and_i);
  const u32 kAluHi = static_cast<u32>(UK::k_smull);
  const u32 kLdLo = static_cast<u32>(UK::k_ldr_off);
  const u32 kLdHi = static_cast<u32>(UK::k_ldrsh_post);
  for (std::size_t i = 1; i < blk.ops.size() && ri < n; ++i) {
    const u32 k = static_cast<u32>(uop_kind(blk.ops[i].label));
    if (k >= kAluLo && k <= kAluHi) {
      alu_effects(ri);
      ++ri;
    } else if (k >= kLdLo && k <= kLdHi) {
      load_effects(ri);
      ++ri;
    } else if (k == static_cast<u32>(UK::k_movw_movt)) {
      alu_effects(ri);
      if (ri + 1 < n) alu_effects(ri + 1);
      ri += 2;
    } else if (k == static_cast<u32>(UK::k_ldr_addi)) {
      load_effects(ri);
      if (ri + 1 < n) alu_effects(ri + 1);
      ri += 2;
    } else if (k == static_cast<u32>(UK::k_ldm)) {
      // Clean LDM never exits, so a null-thunk step is fully transparent;
      // a live thunk calls out (the handler writes many slots).
      if (steps[ri].generic || steps[ri].op.fn != nullptr) wild[ri] = 1;
      ++ri;
    } else if (k >= static_cast<u32>(UK::k_cmp0_b) &&
               k <= static_cast<u32>(UK::k_subs_i_b)) {
      wild[ri] = 1;
      if (ri + 1 < n) wild[ri + 1] = 1;
      ri += 2;
    } else if (k == static_cast<u32>(UK::k_end)) {
      break;
    } else {
      // Stores, STM, exec ops, dynamic terminals, unknown shapes: each can
      // exit the body or move labels out of the register file.
      wild[ri] = 1;
      ++ri;
    }
  }

  u16 live = 0xFFFFu;
  for (u32 j = n; j-- > 0;) {
    if (wild[j]) {
      live = 0xFFFFu;
      continue;
    }
    elide[j] = static_cast<u16>(writes[j] & static_cast<u16>(~live));
    live = static_cast<u16>(
        (live & static_cast<u16>(~writes[j])) | reads[j]);
  }
  return elide;
}

// Reconcile-without-clearing: emits the sync callout for the accumulated
// raw writes and the folded counter adds, leaving `ts` untouched. Used on
// conditional exit branches — at runtime exactly one path executes, so the
// fall-through keeping the state pending can never double-count.
void emit_trace_spill(Asm& a, const TraceEmit& ts) {
  if (ts.pending_w != 0) {
    a.mov_rr64(RDI, R15);
    a.mov_ri32(RSI, ts.pending_w);
    a.mov_ri64(RAX, reinterpret_cast<u64>(&JitRun::co_taint_sync));
    a.call_r(RAX);
  }
  if (ts.fold_insns != 0) {
    const TaintJitView& v = *ts.view;
    a.mov_ri64(RAX, reinterpret_cast<u64>(v.traced_ctr));
    a.add_mi64(RAX, 0, ts.fold_insns);
    a.mov_ri64(RAX, reinterpret_cast<u64>(v.prop_ctr));
    a.add_mi64(RAX, 0, ts.fold_insns);
    if (v.cache_ctr != nullptr) {
      a.mov_ri64(RAX, reinterpret_cast<u64>(v.cache_ctr));
      a.add_mi64(RAX, 0, ts.fold_insns);
    }
  }
}

// Spill-and-clear, emitted on the fall-through path before every terminal
// (the link tails and their callouts run with nothing deferred).
void emit_trace_flush(Asm& a, TraceEmit& ts) {
  emit_trace_spill(a, ts);
  ts.pending_w = 0;
  ts.fold_insns = 0;
}

// Out-of-line step: co_trace_step pre-syncs the pending raw writes (baked
// as an immediate), dispatches the prepared thunk, and returns nonzero with
// an exception parked — the exit retires the instructions before this one.
// The thunk self-counts, so only the folds spill on the exception path.
void emit_trace_callout(Asm& a, const EmitEnv& e, TraceEmit& ts, u32 idx,
                        u32 ri) {
  const TraceStep& st = e.blk->traced[idx];
  const TbInsn& ti = e.blk->tb->insns[idx];
  a.mov_rr64(RDI, R15);
  a.mov_ri64(RSI, reinterpret_cast<u64>(&st.op));
  a.mov_ri64(RDX, reinterpret_cast<u64>(&ti));
  a.mov_ri32(RCX, ts.pending_w);
  a.mov_ri64(RAX, reinterpret_cast<u64>(&JitRun::co_trace_step));
  a.call_r(RAX);
  ts.pending_w = 0;  // synced by the callout on both outcomes
  a.test_rr64(RAX, RAX);
  const std::size_t ok = a.jcc(CC_E);
  emit_trace_spill(a, ts);
  if (ri > 0) a.add_mi64(R15, kCtxDone, ri);
  emit_epilogue_jump(a, e);
  a.bind(ok);
}

// Inline Table V register-to-register transfer for `in` (the tracer handler
// transliterated over the raw label file at RBP), honouring the per-step
// dead-write mask `em`. Returns false when the class is not a pure register
// transfer (the caller falls back to a step callout).
bool emit_taint_alu(Asm& a, const Insn& in, u16 em, TraceEmit& ts) {
  switch (in.taint_class()) {
    case TaintClass::kBinaryOp3: {
      const bool acc = in.op == Op::kMla || in.op == Op::kUmull ||
                       in.op == Op::kSmull;
      const bool dhi = in.op == Op::kUmull || in.op == Op::kSmull;
      u16 w = static_cast<u16>(1u << in.rd);
      if (dhi) w |= static_cast<u16>(1u << in.rn);
      w &= static_cast<u16>(~em);
      ++ts.fold_insns;
      if (w == 0) return true;  // every write dead: reads have no effect
      a.mov_rm32(RAX, RBP, 4 * in.rn);
      if (!in.imm_operand) a.alu_rm32(0x0B, RAX, RBP, 4 * in.rm);
      if (acc) a.alu_rm32(0x0B, RAX, RBP, 4 * in.rs);
      if ((w & (1u << in.rd)) != 0) a.mov_mr32(RBP, 4 * in.rd, RAX);
      if (dhi && (w & (1u << in.rn)) != 0) a.mov_mr32(RBP, 4 * in.rn, RAX);
      ts.pending_w |= w;
      return true;
    }
    case TaintClass::kBinaryOp2:
      ++ts.fold_insns;
      // Immediate form sets t(Rd) to its own value — a provable no-op on
      // the raw file (the engine's derived state cannot change either).
      if (in.imm_operand || (em & (1u << in.rd)) != 0) return true;
      a.mov_rm32(RAX, RBP, 4 * in.rd);
      a.alu_rm32(0x0B, RAX, RBP, 4 * in.rm);
      a.mov_mr32(RBP, 4 * in.rd, RAX);
      ts.pending_w |= 1u << in.rd;
      return true;
    case TaintClass::kUnary:
    case TaintClass::kMovReg:
      ++ts.fold_insns;
      if ((em & (1u << in.rd)) != 0) return true;
      a.mov_rm32(RAX, RBP, 4 * in.rm);
      a.mov_mr32(RBP, 4 * in.rd, RAX);
      ts.pending_w |= 1u << in.rd;
      return true;
    case TaintClass::kMovImm:
      ++ts.fold_insns;
      if ((em & (1u << in.rd)) != 0) return true;
      a.mov_mi32(RBP, 4 * in.rd, kTaintClear);
      ts.pending_w |= 1u << in.rd;
      return true;
    default:
      return false;
  }
}

// Inline shadow-TLB probe shared by the taint load/store prefixes. On entry
// esi holds the effective address; on a hit RDX holds the page's label
// array and eax the byte offset (scaled by the caller). Misses and page
// straddles collect into `slow`. Uses only RAX/RCX/RDX (+ RSI preserved),
// so the clean template's pins stay untouched.
void emit_shadow_probe(Asm& a, const TaintJitView& v, u32 len,
                       std::vector<std::size_t>& slow) {
  if (len > 1) {
    a.mov_rr32(RAX, RSI);
    a.alu_ri32(4, RAX, kPageMask);
    a.alu_ri32(7, RAX, kPageSize - len);
    slow.push_back(a.jcc(CC_A));
  }
  a.mov_rr32(RCX, RSI);
  a.shift_ri32(5, RCX, 12);  // page number (shadow pages are 4K too)
  a.mov_rr32(RAX, RCX);
  a.alu_ri32(4, RAX, v.shadow_tlb_slots - 1);
  a.shift_ri32(4, RAX, 4);  // * 16-byte entries (page at +0, labels at +8)
  a.mov_ri64(RDX, reinterpret_cast<u64>(v.shadow_tlb));
  a.alu_rmx32(0x3B, RCX, RDX, RAX, 0);
  slow.push_back(a.jcc(CC_NE));
  a.mov_rm64x(RDX, RDX, RAX, 8);
  a.mov_rr32(RAX, RSI);
  a.alu_ri32(4, RAX, kPageMask);
}

// Taint prefix of a dense load: t(Rd) = t(M[addr, len]) | t(Rn), with the
// per-byte labels read straight off the shadow page on a TLB hit and the
// bookkeeping-complete co_shadow_read on a miss/straddle. The effective
// address replays the clean template's pre-execution computation (the
// prefix runs before the instruction, like the hook it replaces).
void emit_taint_load(Asm& a, const TaintJitView& v, const Uop& u, MemVar var,
                     u32 len, u16 em, TraceEmit& ts) {
  ++ts.fold_insns;
  if ((em & (1u << u.a)) != 0) return;  // dead destination: reads effect-free
  a.mov_rm32(RSI, RBX, reg_off(u.b));
  if (var != MemVar::kPost && u.imm != 0) a.alu_ri32(0, RSI, u.imm);
  std::vector<std::size_t> slow;
  emit_shadow_probe(a, v, len, slow);
  a.shift_ri32(4, RAX, 2);  // label slots are u32, one per guest byte
  a.mov_rm32x(RCX, RDX, RAX, 0);
  if (len >= 2) a.alu_rmx32(0x0B, RCX, RDX, RAX, 4);
  if (len == 4) {
    a.alu_rmx32(0x0B, RCX, RDX, RAX, 8);
    a.alu_rmx32(0x0B, RCX, RDX, RAX, 12);
  }
  const std::size_t join = a.jmp();
  for (const std::size_t f : slow) a.bind(f);
  a.mov_rr64(RDI, R15);  // esi = addr already in place
  a.mov_ri32(RDX, len);
  a.mov_ri64(RAX, reinterpret_cast<u64>(&JitRun::co_shadow_read));
  a.call_r(RAX);
  a.mov_rr32(RCX, RAX);
  a.bind(join);
  a.alu_rm32(0x0B, RCX, RBP, 4 * u.b);  // | t(Rn)
  a.mov_mr32(RBP, 4 * u.a, RCX);
  ts.pending_w |= 1u << u.a;
}

// Taint prefix of a dense store: t(M[addr, len]) = t(Rd). The fast path
// proves the transfer a no-op (clean source label, clean target range —
// set_range with kTaintClear over already-clear bytes does no bookkeeping);
// everything else routes through co_shadow_write. Never elided: memory
// labels are globally observable.
void emit_taint_store(Asm& a, const TaintJitView& v, const Uop& u,
                      MemVar var, u32 len, TraceEmit& ts) {
  ++ts.fold_insns;
  a.mov_rm32(RSI, RBX, reg_off(u.b));
  if (var != MemVar::kPost && u.imm != 0) a.alu_ri32(0, RSI, u.imm);
  std::vector<std::size_t> slow;
  a.cmp_mi32(RBP, 4 * u.a, kTaintClear);
  slow.push_back(a.jcc(CC_NE));
  emit_shadow_probe(a, v, len, slow);
  a.shift_ri32(4, RAX, 2);
  a.mov_rm32x(RCX, RDX, RAX, 0);
  if (len >= 2) a.alu_rmx32(0x0B, RCX, RDX, RAX, 4);
  if (len == 4) {
    a.alu_rmx32(0x0B, RCX, RDX, RAX, 8);
    a.alu_rmx32(0x0B, RCX, RDX, RAX, 12);
  }
  a.test_rr32(RCX, RCX);
  const std::size_t done = a.jcc(CC_E);  // clear over clear: exact no-op
  for (const std::size_t f : slow) a.bind(f);  // fall-through joins the slow path
  a.mov_rr64(RDI, R15);  // esi = addr already in place
  a.mov_ri32(RDX, len);
  a.mov_rm32(RCX, RBP, 4 * u.a);
  a.mov_ri64(RAX, reinterpret_cast<u64>(&JitRun::co_shadow_write));
  a.call_r(RAX);
  a.bind(done);
}

// Per-op traced prefix, emitted immediately before the op's clean template.
// Handles the whole traced-pass delta for the op — inline transfers, step
// callouts, and the pre-terminal flush — so the clean switch cases need no
// per-case knowledge of the traced stream. Returns false when the block
// cannot carry an exact traced body (generic steps, shapes whose early
// dispatch would diverge); the caller abandons the traced pass and keeps
// the clean body.
bool emit_trace_prefix(Asm& a, const EmitEnv& e, TraceEmit& ts, const Uop& u,
                       UK k, u32 ri) {
  const std::vector<TraceStep>& steps = e.blk->traced;
  const std::vector<TbInsn>& insns = e.blk->tb->insns;
  const u32 n = e.blk->n_insns;

  // Inline-or-callout for one register-transfer step. Early dispatch of a
  // callout is exact here: prepared thunks re-check their own condition
  // against state no earlier instruction of the same op has modified.
  const auto fused_alu = [&](u32 idx) -> bool {
    const TraceStep& st = steps[idx];
    if (st.generic) return false;
    if (st.op.fn == nullptr) return true;
    if (emit_taint_alu(a, insns[idx].insn, ts.elide[idx], ts)) return true;
    emit_trace_callout(a, e, ts, idx, ri);
    return true;
  };
  const auto fused_load = [&](u32 idx, MemVar var, u32 len) -> bool {
    const TraceStep& st = steps[idx];
    if (st.generic) return false;
    if (st.op.fn != nullptr) {
      emit_taint_load(a, *ts.view, u, var, len, ts.elide[idx], ts);
    }
    return true;
  };
  const auto step_callout = [&](u32 idx) -> bool {
    const TraceStep& st = steps[idx];
    if (st.generic) return false;
    if (st.op.fn != nullptr) emit_trace_callout(a, e, ts, idx, ri);
    return true;
  };

  const u32 ku = static_cast<u32>(k);
  if (ku >= static_cast<u32>(UK::k_and_i) &&
      ku <= static_cast<u32>(UK::k_smull)) {
    return fused_alu(ri);
  }
  if (ku >= static_cast<u32>(UK::k_ldr_off) &&
      ku <= static_cast<u32>(UK::k_ldrsh_post)) {
    const u32 idx = ku - static_cast<u32>(UK::k_ldr_off);
    const u32 group = idx / 3;
    const u32 len = group == 0 ? 4 : (group == 2 || group == 4) ? 2 : 1;
    return fused_load(ri, static_cast<MemVar>(idx % 3), len);
  }
  if (ku >= static_cast<u32>(UK::k_str_off) &&
      ku <= static_cast<u32>(UK::k_strh_post)) {
    const TraceStep& st = steps[ri];
    if (st.generic) return false;
    if (st.op.fn != nullptr) {
      const u32 idx = ku - static_cast<u32>(UK::k_str_off);
      const u32 group = idx / 3;
      const u32 len = group == 0 ? 4 : group == 1 ? 1 : 2;
      emit_taint_store(a, *ts.view, u, static_cast<MemVar>(idx % 3), len,
                       ts);
    }
    return true;
  }
  switch (k) {
    case UK::k_movw_movt:
      return fused_alu(ri) && ri + 1 < n && fused_alu(ri + 1);
    case UK::k_ldr_addi:
      return fused_load(ri, MemVar::kOff, 4) && ri + 1 < n &&
             fused_alu(ri + 1);
    case UK::k_stm:
    case UK::k_ldm:
    case UK::k_exec:
    case UK::k_exec_dead:
      return step_callout(ri);
    case UK::k_cmp0_b:
    case UK::k_cmp_i_b:
    case UK::k_cmp_r_b:
    case UK::k_subs_i_b: {
      // The compare/subtract step prefixes normally (it is unconditional by
      // lowering). The branch step must be a provable no-op: running it
      // here would test the condition against the *old* flags.
      if (!fused_alu(ri)) return false;
      if (ri + 1 >= n || steps[ri + 1].generic ||
          steps[ri + 1].op.fn != nullptr) {
        return false;
      }
      emit_trace_flush(a, ts);
      return true;
    }
    case UK::k_b_al:
    case UK::k_bl_al:
    case UK::k_b_cond:
    case UK::k_bx_term:
    case UK::k_svc_term:
    case UK::k_exec_term:
      if (!step_callout(ri)) return false;
      emit_trace_flush(a, ts);
      return true;
    case UK::k_end:
      emit_trace_flush(a, ts);
      return true;
    default:
      return false;  // k_enter / kCount: the clean pass bails too
  }
}

}  // namespace

bool JitRun::compile(Cpu& cpu, ThreadedBlock& blk) {
  JitEngine& eng = *cpu.jit_engine_;
  auto jb = std::make_shared<JitBlock>();
  jb->blk = &blk;

  EmitEnv e;
  e.eng = &eng;
  e.blk = &blk;
  e.jb = jb.get();
  e.links = &cpu.jit_links_;
  e.version_addr = cpu.tb_cache_.version_addr();

  const TranslationBlock& tb = *blk.tb;
  const u32 n_total = blk.n_insns;
  Asm a;

  // A traced body is worth emitting only under the fusable hook shape the
  // trampoline dispatches here: exactly one instruction hook, fused through
  // the trace emitter, with the client's taint view installed.
  const bool want_traced = cpu.taint_jit_view_.reg_labels != nullptr &&
                           cpu.trace_emitter_ && cpu.insn_hooks_.size() == 1;
  if (want_traced) ThreadedRun::build_traced(cpu, blk);

  // Both bodies (clean, traced) share one emission pass over the op stream;
  // `ts == nullptr` is the clean pass. Returns false when the stream has no
  // dense lowering (clean pass: the block stays threaded) or the traced
  // prefix cannot be exact (traced pass: the clean body alone is kept).
  const auto emit_body = [&](TraceEmit* ts) -> bool {
    // --- Block entry: budget fence + exec_count (threaded L_enter with the
    // gate elided — stream selection happened before dispatch, and hook
    // topology cannot change inside a segment without surfacing).
    a.mov_rm64(RAX, R15, kCtxDone);
    a.alu_ri64(0, RAX, n_total);
    a.cmp_rm64(RAX, R15, kCtxBudget);
    const std::size_t budget_ok = a.jcc(CC_BE);
    a.mov_mi8(RBX, kThumbOff, tb.thumb ? 1 : 0);
    a.mov_mi32(RBX, kPcOff, tb.pc);
    emit_epilogue_jump(a, e);
    a.bind(budget_ok);
    a.mov_ri64(RAX, reinterpret_cast<u64>(&blk.tb->exec_count));
    a.inc_m64(RAX, 0);
    if (ts != nullptr) {
      a.mov_ri64(RAX, reinterpret_cast<u64>(&cpu.jit_traced_blocks_));
      a.inc_m64(RAX, 0);
      // Pin the register label file for the whole traced body. Callouts
      // preserve it (callee-saved); clean templates never touch RBP.
      a.mov_ri64(RBP,
                 reinterpret_cast<u64>(cpu.taint_jit_view_.reg_labels));
    }

    // --- Body + terminal. `ri` counts the instructions retired by the body
    // templates emitted so far (they add nothing to ctx.done at runtime;
    // the exit sites bake the totals).
    u32 ri = 0;
    bool terminated = false;
    for (std::size_t i = 1; i < blk.ops.size() && !terminated; ++i) {
      const Uop& u = blk.ops[i];
      const UK k = uop_kind(u.label);
      if (ts != nullptr && !emit_trace_prefix(a, e, *ts, u, k, ri)) {
        return false;
      }
      switch (k) {
        // --- Flagless data processing ------------------------------------
        case UK::k_and_i:
        case UK::k_eor_i:
        case UK::k_sub_i:
        case UK::k_add_i:
        case UK::k_orr_i: {
          const u8 ext = k == UK::k_and_i ? 4
                       : k == UK::k_eor_i ? 6
                       : k == UK::k_sub_i ? 5
                       : k == UK::k_add_i ? 0
                                          : 1;
          a.mov_rm32(RAX, RBX, reg_off(u.b));
          a.alu_ri32(ext, RAX, u.imm);
          a.mov_mr32(RBX, reg_off(u.a), RAX);
          ++ri;
          break;
        }
        case UK::k_and_r:
        case UK::k_eor_r:
        case UK::k_sub_r:
        case UK::k_add_r:
        case UK::k_orr_r: {
          const u8 opc = k == UK::k_and_r ? 0x23
                       : k == UK::k_eor_r ? 0x33
                       : k == UK::k_sub_r ? 0x2B
                       : k == UK::k_add_r ? 0x03
                                          : 0x0B;
          a.mov_rm32(RAX, RBX, reg_off(u.b));
          a.alu_rm32(opc, RAX, RBX, reg_off(u.c));
          a.mov_mr32(RBX, reg_off(u.a), RAX);
          ++ri;
          break;
        }
        case UK::k_rsb_i:
          a.mov_ri32(RAX, u.imm);
          a.alu_rm32(0x2B, RAX, RBX, reg_off(u.b));
          a.mov_mr32(RBX, reg_off(u.a), RAX);
          ++ri;
          break;
        case UK::k_rsb_r:
          a.mov_rm32(RAX, RBX, reg_off(u.c));
          a.alu_rm32(0x2B, RAX, RBX, reg_off(u.b));
          a.mov_mr32(RBX, reg_off(u.a), RAX);
          ++ri;
          break;
        case UK::k_adc_i:
        case UK::k_adc_r:
          a.movzx8_rm(RCX, RBX, kFlagC);
          a.mov_rm32(RAX, RBX, reg_off(u.b));
          if (k == UK::k_adc_i) a.alu_ri32(0, RAX, u.imm);
          else a.alu_rm32(0x03, RAX, RBX, reg_off(u.c));
          a.alu_rr32(0x03, RAX, RCX);
          a.mov_mr32(RBX, reg_off(u.a), RAX);
          ++ri;
          break;
        case UK::k_sbc_i:
        case UK::k_sbc_r:
          a.movzx8_rm(RCX, RBX, kFlagC);
          a.alu_ri32(6, RCX, 1);  // borrow = !c
          a.mov_rm32(RAX, RBX, reg_off(u.b));
          if (k == UK::k_sbc_i) a.alu_ri32(5, RAX, u.imm);
          else a.alu_rm32(0x2B, RAX, RBX, reg_off(u.c));
          a.alu_rr32(0x2B, RAX, RCX);
          a.mov_mr32(RBX, reg_off(u.a), RAX);
          ++ri;
          break;
        case UK::k_rsc_i:
        case UK::k_rsc_r:
          a.movzx8_rm(RCX, RBX, kFlagC);
          a.alu_ri32(6, RCX, 1);  // borrow = !c
          if (k == UK::k_rsc_i) a.mov_ri32(RAX, u.imm);
          else a.mov_rm32(RAX, RBX, reg_off(u.c));
          a.alu_rm32(0x2B, RAX, RBX, reg_off(u.b));
          a.alu_rr32(0x2B, RAX, RCX);
          a.mov_mr32(RBX, reg_off(u.a), RAX);
          ++ri;
          break;
        case UK::k_mov_i:
          a.mov_mi32(RBX, reg_off(u.a), u.imm);
          ++ri;
          break;
        case UK::k_mov_r:
          a.mov_rm32(RAX, RBX, reg_off(u.c));
          a.mov_mr32(RBX, reg_off(u.a), RAX);
          ++ri;
          break;
        case UK::k_bic_i:
          a.mov_rm32(RAX, RBX, reg_off(u.b));
          a.alu_ri32(4, RAX, ~u.imm);
          a.mov_mr32(RBX, reg_off(u.a), RAX);
          ++ri;
          break;
        case UK::k_bic_r:
          a.mov_rm32(RCX, RBX, reg_off(u.c));
          a.not_r32(RCX);
          a.mov_rm32(RAX, RBX, reg_off(u.b));
          a.alu_rr32(0x23, RAX, RCX);
          a.mov_mr32(RBX, reg_off(u.a), RAX);
          ++ri;
          break;
        case UK::k_mvn_i:
          a.mov_mi32(RBX, reg_off(u.a), ~u.imm);
          ++ri;
          break;
        case UK::k_mvn_r:
          a.mov_rm32(RAX, RBX, reg_off(u.c));
          a.not_r32(RAX);
          a.mov_mr32(RBX, reg_off(u.a), RAX);
          ++ri;
          break;

        // --- Flag-setting compares / arithmetic --------------------------
        case UK::k_cmp_i0:
          a.mov_rm32(RAX, RBX, reg_off(u.b));
          a.test_rr32(RAX, RAX);
          a.setcc_m(CC_S, RBX, kFlagN);
          a.setcc_m(CC_E, RBX, kFlagZ);
          a.mov_mi8(RBX, kFlagC, 1);
          a.mov_mi8(RBX, kFlagV, 0);
          ++ri;
          break;
        case UK::k_cmp_i:
          a.mov_rm32(RAX, RBX, reg_off(u.b));
          a.alu_ri32(7, RAX, u.imm);
          emit_flags_sub(a);
          ++ri;
          break;
        case UK::k_cmp_r:
          a.mov_rm32(RAX, RBX, reg_off(u.b));
          a.alu_rm32(0x3B, RAX, RBX, reg_off(u.c));
          emit_flags_sub(a);
          ++ri;
          break;
        case UK::k_cmn_i:
          a.mov_rm32(RAX, RBX, reg_off(u.b));
          a.alu_ri32(0, RAX, u.imm);
          emit_flags_add(a);
          ++ri;
          break;
        case UK::k_cmn_r:
          a.mov_rm32(RAX, RBX, reg_off(u.b));
          a.alu_rm32(0x03, RAX, RBX, reg_off(u.c));
          emit_flags_add(a);
          ++ri;
          break;
        case UK::k_subs_i:
        case UK::k_subs_r:
          a.mov_rm32(RAX, RBX, reg_off(u.b));
          if (k == UK::k_subs_i) a.alu_ri32(5, RAX, u.imm);
          else a.alu_rm32(0x2B, RAX, RBX, reg_off(u.c));
          emit_flags_sub(a);
          a.mov_mr32(RBX, reg_off(u.a), RAX);
          ++ri;
          break;
        case UK::k_adds_i:
        case UK::k_adds_r:
          a.mov_rm32(RAX, RBX, reg_off(u.b));
          if (k == UK::k_adds_i) a.alu_ri32(0, RAX, u.imm);
          else a.alu_rm32(0x03, RAX, RBX, reg_off(u.c));
          emit_flags_add(a);
          a.mov_mr32(RBX, reg_off(u.a), RAX);
          ++ri;
          break;

        // --- Wide moves / multiplies / extends / shifts ------------------
        case UK::k_movw:
          a.mov_mi32(RBX, reg_off(u.a), u.imm);
          ++ri;
          break;
        case UK::k_movt:
          // (r & 0xFFFF) | (imm << 16) == a 16-bit store to the high half.
          a.mov_mi16(RBX, reg_off(u.a) + 2, static_cast<u16>(u.imm));
          ++ri;
          break;
        case UK::k_mul:
          a.mov_rm32(RAX, RBX, reg_off(u.b));
          a.imul_rm32(RAX, RBX, reg_off(u.c));
          a.mov_mr32(RBX, reg_off(u.a), RAX);
          ++ri;
          break;
        case UK::k_sxtb:
          a.movsx8_rm(RAX, RBX, reg_off(u.b));
          a.mov_mr32(RBX, reg_off(u.a), RAX);
          ++ri;
          break;
        case UK::k_sxth:
          a.movsx16_rm(RAX, RBX, reg_off(u.b));
          a.mov_mr32(RBX, reg_off(u.a), RAX);
          ++ri;
          break;
        case UK::k_uxtb:
          a.movzx8_rm(RAX, RBX, reg_off(u.b));
          a.mov_mr32(RBX, reg_off(u.a), RAX);
          ++ri;
          break;
        case UK::k_uxth:
          a.movzx16_rm(RAX, RBX, reg_off(u.b));
          a.mov_mr32(RBX, reg_off(u.a), RAX);
          ++ri;
          break;
        case UK::k_lsl_i:
        case UK::k_lsr_i:
        case UK::k_asr_i:
        case UK::k_ror_i: {
          const u8 ext = k == UK::k_lsl_i ? 4
                       : k == UK::k_lsr_i ? 5
                       : k == UK::k_asr_i ? 7
                                          : 1;
          a.mov_rm32(RAX, RBX, reg_off(u.c));
          a.shift_ri32(ext, RAX, static_cast<u8>(u.imm));
          a.mov_mr32(RBX, reg_off(u.a), RAX);
          ++ri;
          break;
        }
        case UK::k_umull:
        case UK::k_smull:
          a.mov_rm32(RAX, RBX, reg_off(u.c));
          a.mul1_m32(k == UK::k_umull ? 4 : 5, RBX, reg_off(u.d));
          a.mov_mr32(RBX, reg_off(u.a), RAX);  // lo then hi, like execute()
          a.mov_mr32(RBX, reg_off(u.b), RDX);
          ++ri;
          break;

        // --- Loads / stores (inline TLB probe) ---------------------------
        case UK::k_ldr_off:
        case UK::k_ldr_pre:
        case UK::k_ldr_post:
        case UK::k_ldrb_off:
        case UK::k_ldrb_pre:
        case UK::k_ldrb_post:
        case UK::k_ldrh_off:
        case UK::k_ldrh_pre:
        case UK::k_ldrh_post:
        case UK::k_ldrsb_off:
        case UK::k_ldrsb_pre:
        case UK::k_ldrsb_post:
        case UK::k_ldrsh_off:
        case UK::k_ldrsh_pre:
        case UK::k_ldrsh_post: {
          const u32 idx =
              static_cast<u32>(k) - static_cast<u32>(UK::k_ldr_off);
          const u32 group = idx / 3;  // ldr, ldrb, ldrh, ldrsb, ldrsh
          const auto var = static_cast<MemVar>(idx % 3);
          const u32 len = group == 0 ? 4 : (group == 2 || group == 4) ? 2 : 1;
          emit_load(a, u, var, len, /*is_signed=*/group >= 3);
          ++ri;
          break;
        }
        case UK::k_str_off:
        case UK::k_str_pre:
        case UK::k_str_post:
        case UK::k_strb_off:
        case UK::k_strb_pre:
        case UK::k_strb_post:
        case UK::k_strh_off:
        case UK::k_strh_pre:
        case UK::k_strh_post: {
          const u32 idx =
              static_cast<u32>(k) - static_cast<u32>(UK::k_str_off);
          const u32 group = idx / 3;  // str, strb, strh
          const auto var = static_cast<MemVar>(idx % 3);
          const u32 len = group == 0 ? 4 : group == 1 ? 1 : 2;
          emit_store(a, e, u, var, len, ri, ts);
          ++ri;
          break;
        }

        // --- Superword-fused pairs ---------------------------------------
        case UK::k_movw_movt:
          a.mov_mi32(RBX, reg_off(u.a), u.imm);
          ri += 2;
          break;
        case UK::k_ldr_addi:
          emit_load(a, u, MemVar::kOff, 4, false);
          a.add_mi32(RBX, reg_off(u.d), u.x);
          ri += 2;
          break;
        case UK::k_stm: {
          a.mov_rr64(RDI, R15);
          a.mov_ri64(RSI, reinterpret_cast<u64>(u.p));
          a.mov_ri64(RAX, reinterpret_cast<u64>(&co_stm));
          a.call_r(RAX);
          a.test_rr32(RAX, RAX);
          const std::size_t all_hit = a.jcc(CC_NE);
          emit_dead_check(a, e, ri, u.x, ts);
          a.bind(all_hit);
          ++ri;
          break;
        }
        case UK::k_ldm:
          a.mov_rr64(RDI, R15);
          a.mov_ri64(RSI, reinterpret_cast<u64>(u.p));
          a.mov_ri64(RAX, reinterpret_cast<u64>(&co_ldm));
          a.call_r(RAX);
          ++ri;
          break;

        // --- Generic body instructions -----------------------------------
        case UK::k_exec:
        case UK::k_exec_dead: {
          a.mov_rr64(RDI, R15);
          a.mov_ri64(RSI, reinterpret_cast<u64>(u.p));
          a.mov_ri32(RDX, u.imm);  // the PC execute() expects
          a.mov_ri64(RAX, reinterpret_cast<u64>(&co_exec));
          a.call_r(RAX);
          a.test_rr64(RAX, RAX);
          const std::size_t ok = a.jcc(CC_E);
          // Exception: the faulting instruction did not retire and the PC
          // already points at it (co_exec materialised it).
          if (ts != nullptr) emit_trace_spill(a, *ts);
          if (ri > 0) a.add_mi64(R15, kCtxDone, ri);
          emit_epilogue_jump(a, e);
          a.bind(ok);
          if (k == UK::k_exec_dead) {
            // execute() already advanced the PC, so the dead exit surfaces
            // without rewriting it; the retire count still lands.
            a.mov_ri64(RAX, reinterpret_cast<u64>(&blk.tb->dead));
            a.cmp_mi8(RAX, 0, 0);
            const std::size_t alive = a.jcc(CC_E);
            if (ts != nullptr) emit_trace_spill(a, *ts);
            a.add_mi64(R15, kCtxDone, ri + 1);
            emit_epilogue_jump(a, e);
            a.bind(alive);
          }
          ++ri;
          break;
        }

        // --- Fused compare-and-branch terminals --------------------------
        // Retire accounting lands *before* the flag computation (the 64-bit
        // add clobbers the host flags); setcc/mov preserve them, so the
        // conditional arms consume the live host flags directly.
        case UK::k_cmp0_b: {
          a.add_mi64(R15, kCtxDone, ri + 2);
          a.mov_rm32(RAX, RBX, reg_off(u.b));
          a.test_rr32(RAX, RAX);
          a.setcc_m(CC_S, RBX, kFlagN);
          a.setcc_m(CC_E, RBX, kFlagZ);
          a.mov_mi8(RBX, kFlagC, 1);
          a.mov_mi8(RBX, kFlagV, 0);
          const u32 from = static_cast<const TbInsn*>(u.p)->pc;
          emit_cond_arms(a, e, kCcCmp0[u.a], from, u.imm, u.x);
          terminated = true;
          break;
        }
        case UK::k_cmp_i_b: {
          const auto* ti = static_cast<const TbInsn*>(u.p);
          a.add_mi64(R15, kCtxDone, ri + 2);
          a.mov_rm32(RAX, RBX, reg_off(u.b));
          a.alu_ri32(7, RAX, ti->insn.imm);
          emit_flags_sub(a);
          emit_cond_arms(a, e, kCcSub[u.a], ti->pc + ti->insn.length, u.imm,
                         u.x);
          terminated = true;
          break;
        }
        case UK::k_cmp_r_b: {
          a.add_mi64(R15, kCtxDone, ri + 2);
          a.mov_rm32(RAX, RBX, reg_off(u.b));
          a.alu_rm32(0x3B, RAX, RBX, reg_off(u.c));
          emit_flags_sub(a);
          const u32 from = static_cast<const TbInsn*>(u.p)->pc;
          emit_cond_arms(a, e, kCcSub[u.a], from, u.imm, u.x);
          terminated = true;
          break;
        }
        case UK::k_subs_i_b: {
          const auto* ti = static_cast<const TbInsn*>(u.p);
          a.add_mi64(R15, kCtxDone, ri + 2);
          a.mov_rm32(RAX, RBX, reg_off(u.b));
          a.alu_ri32(5, RAX, ti->insn.imm);
          emit_flags_sub(a);
          a.mov_mr32(RBX, reg_off(u.a), RAX);  // mov preserves host flags
          emit_cond_arms(a, e, kCcSub[u.d], ti->pc + ti->insn.length, u.imm,
                         u.x);
          terminated = true;
          break;
        }

        // --- Branch terminals --------------------------------------------
        case UK::k_b_al: {
          a.add_mi64(R15, kCtxDone, ri + 1);
          const u32 from = static_cast<const TbInsn*>(u.p)->pc;
          emit_link(a, e, 0, from, u.imm, true);
          terminated = true;
          break;
        }
        case UK::k_bl_al: {
          a.mov_mi32(RBX, reg_off(kRegLR), tb.thumb ? (u.x | 1u) : u.x);
          a.add_mi64(R15, kCtxDone, ri + 1);
          const u32 from = static_cast<const TbInsn*>(u.p)->pc;
          emit_link(a, e, 0, from, u.imm, true);
          terminated = true;
          break;
        }
        case UK::k_b_cond: {
          a.add_mi64(R15, kCtxDone, ri + 1);
          emit_cond_eval(a, static_cast<Cond>(u.a));
          const u32 from = static_cast<const TbInsn*>(u.p)->pc;
          const std::size_t taken_j = a.jcc(CC_NE);  // al != 0
          emit_link(a, e, 1, from, u.x, false);
          a.bind(taken_j);
          emit_link(a, e, 0, from, u.imm, true);
          terminated = true;
          break;
        }
        case UK::k_bx_term:
          a.add_mi64(R15, kCtxDone, ri + 1);  // bx always retires
          emit_dynamic_terminal(
              a, e, u, reinterpret_cast<const void*>(&JitRun::co_bx));
          terminated = true;
          break;
        case UK::k_exec_term:
          // The callout retires the terminal itself iff execute() succeeds.
          if (ri > 0) a.add_mi64(R15, kCtxDone, ri);
          emit_dynamic_terminal(
              a, e, u, reinterpret_cast<const void*>(&JitRun::co_exec_term));
          terminated = true;
          break;
        case UK::k_svc_term:
          if (ri > 0) a.add_mi64(R15, kCtxDone, ri);
          emit_dynamic_terminal(
              a, e, u, reinterpret_cast<const void*>(&JitRun::co_svc_term));
          terminated = true;
          break;
        case UK::k_end:
          if (ri > 0) a.add_mi64(R15, kCtxDone, ri);
          emit_link(a, e, 1, 0, u.imm, false);
          terminated = true;
          break;

        case UK::k_enter:
        case UK::kCount:
          return false;  // malformed stream; the block stays threaded
      }
    }
    return terminated;
  };

  if (!emit_body(nullptr)) return false;
  std::size_t traced_pos = 0;
  bool have_traced = false;
  if (want_traced) {
    // Second pass: the traced body lands in the same Asm buffer (and so the
    // same arena allocation) right after the clean body. A bail truncates
    // back to the clean body alone — gate-fired executions then fall back
    // to the threaded traced stream.
    traced_pos = a.size();
    TraceEmit ts;
    ts.view = &cpu.taint_jit_view_;
    ts.elide = plan_elision(blk);
    if (emit_body(&ts)) {
      have_traced = true;
    } else {
      a.out.resize(traced_pos);
    }
  }

  u8* code = eng.arena.alloc(a.size());
  if (code == nullptr) {
    if (a.size() > eng.arena.capacity()) {
      // Permanently too large for this arena: park a tombstone so the
      // trampoline stops recompiling (and re-flushing) on every dispatch.
      jb->code = nullptr;
      jb->arena_gen = eng.generation;
      blk.jit = std::move(jb);
    } else {
      eng.flush_pending = true;
    }
    return false;
  }
  eng.arena.begin_write();
  std::memcpy(code, a.out.data(), a.size());
  eng.arena.end_write();
  jb->code = code;
  jb->traced_entry = have_traced ? code + traced_pos : nullptr;
  jb->code_size = static_cast<u32>(a.size());
  jb->arena_gen = eng.generation;
  blk.jit = std::move(jb);
  ++cpu.jit_blocks_compiled_;
  cpu.jit_bytes_emitted_ += a.size();
  return true;
}

// --- Execution ----------------------------------------------------------

u64 JitRun::exec(Cpu& cpu, ThreadedBlock& entry, const u8* at, u64 budget) {
  JitEngine& eng = *cpu.jit_engine_;
  std::exception_ptr eptr;
  JitCtx ctx;
  ctx.cpu = &cpu;
  ctx.s = &cpu.state_;
  ctx.mem = &cpu.memory_;
  ctx.budget = budget;
  // Live instruction hooks force every inter-block edge through the slow
  // resolver: stream selection (clean vs traced) must be re-decided per
  // crossing, so inline link fast paths (whose patched targets are always
  // clean entries) stay disengaged.
  ctx.edge_slow = (!cpu.branch_hooks_.empty() || cpu.has_low_helpers_ ||
                   !cpu.insn_hooks_.empty())
                      ? 1
                      : 0;
  ctx.eptr = &eptr;
  const u64 links_before = cpu.jit_links_;
  eng.entry(&ctx, at);
  cpu.retired_ += ctx.done - ctx.flushed;
  // Every link follow (inline host jumps and resolve()-served ones alike)
  // is a block transition that never touched the TB cache: fold them into
  // the hit counters so hit_rate() stays comparable across tiers without
  // counter traffic inside emitted code.
  cpu.tb_cache_.count_front_hits(cpu.jit_links_ - links_before);
  if (ctx.exit_exc != 0) std::rethrow_exception(eptr);
  return ctx.done;
}

bool JitRun::ensure_engine(Cpu& cpu) {
  if (cpu.jit_engine_ == nullptr) {
    cpu.jit_engine_ =
        std::make_unique<JitEngine>(cpu.jit_arena_bytes_, cpu.jit_wx_);
  }
  JitEngine& eng = *cpu.jit_engine_;
  if (!eng.arena.valid()) return false;
  const mem::AddressSpace::TlbView view = cpu.memory_.tlb_view();
  if (view.entry_size != 16 || view.page_offset != 0 ||
      view.host_offset != 8 ||
      view.slot_count != mem::AddressSpace::kTlbSlots) {
    return false;  // TLB layout drifted from the baked probe templates
  }
  if (eng.entry == nullptr && !emit_stubs(cpu, eng)) return false;
  return true;
}

bool JitRun::arena_flush(Cpu& cpu) {
  JitEngine& eng = *cpu.jit_engine_;
  cpu.flush_blocks();
  cpu.tb_cache_.drain_graveyard();  // caller guarantees exec_depth_ == 0
  eng.arena.reset();
  ++eng.generation;
  eng.entry = nullptr;
  eng.epilogue = nullptr;
  eng.flush_pending = false;
  ++cpu.jit_arena_flushes_;
  return emit_stubs(cpu, eng);
}

#else  // !NDROID_JIT_X64

// Stub backend: Cpu::set_engine never records the jit tier here
// (jit_available() is false), so none of these is reached at run time.

bool JitRun::compile(Cpu&, ThreadedBlock&) { return false; }
u64 JitRun::exec(Cpu&, ThreadedBlock&, const u8*, u64) { return 0; }
bool JitRun::ensure_engine(Cpu&) { return false; }
bool JitRun::arena_flush(Cpu&) { return false; }
const void* JitRun::resolve(void*, void*, u32, u32, u32, u32) {
  return nullptr;
}
const void* JitRun::co_edge(void*, void*, u32, u32, u32, u32) {
  return nullptr;
}
const void* JitRun::co_bx(void*, void*, const void*) { return nullptr; }
const void* JitRun::co_exec_term(void*, void*, const void*) {
  return nullptr;
}
const void* JitRun::co_svc_term(void*, void*, const void*) {
  return nullptr;
}
u64 JitRun::co_trace_step(void*, const void*, const void*, u32) { return 0; }
void JitRun::co_taint_sync(void*, u32) {}
u32 JitRun::co_shadow_read(void*, u32, u32) { return 0; }
void JitRun::co_shadow_write(void*, u32, u32, u32) {}

#endif  // NDROID_JIT_X64

}  // namespace ndroid::arm
