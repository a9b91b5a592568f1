#include "arm/cpu.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace ndroid::arm {

namespace {

/// Decode cache, keyed by instruction word + mode and never the address:
/// decoding is a pure function of (word, mode), so the cache is safe under
/// self-modifying code and shared by every Cpu on a host thread. 16-bit
/// Thumb encodings key on their own halfword alone; only 32-bit Thumb-2
/// encodings include the second halfword.
struct DecodeEntry {
  u64 key = ~0ull;
  Insn insn;
};
constexpr u32 kDecodeCacheBits = 14;
/// Allocated on the thread's first decode, so a Device that never runs
/// guest code on a thread costs that thread nothing.
thread_local std::unique_ptr<DecodeEntry[]> t_decode_cache;

}  // namespace

Cpu::Cpu(mem::AddressSpace& memory, mem::MemoryMap& memmap)
    : memory_(memory), memmap_(memmap) {
  // Self-modifying-code safety: any write into a page holding cached code
  // (guest store or host-side image load) kills the blocks it intersects.
  // The TB cache watches exactly the pages its blocks cover.
  memory_.set_write_watch(
      [this](GuestAddr addr, u32 len) { tb_cache_.invalidate_range(addr, len); });
}

Cpu::~Cpu() { memory_.set_write_watch({}); }

int Cpu::add_insn_hook(InsnHook hook, bool gated) {
  const int id = next_hook_id_++;
  insn_hooks_.push_back({id, gated, std::move(hook)});
  gated_hooks_ += gated;
  // Fused trace streams bake in the hook topology at build time (they are
  // only used while exactly one hook is registered); a topology change
  // while an emitter is installed voids every built stream.
  if (trace_emitter_) flush_blocks();
  return id;
}

void Cpu::remove_insn_hook(int id) {
  std::erase_if(insn_hooks_, [&](const HookEntry& h) {
    if (h.id != id) return false;
    gated_hooks_ -= h.gated;
    return true;
  });
  if (trace_emitter_) flush_blocks();
}

int Cpu::add_branch_hook(BranchHook hook, bool gated) {
  const int id = next_hook_id_++;
  branch_hooks_.push_back({id, gated, std::move(hook)});
  gated_branch_hooks_ += gated;
  return id;
}

void Cpu::remove_branch_hook(int id) {
  std::erase_if(branch_hooks_, [&](const BranchHookEntry& h) {
    if (h.id != id) return false;
    gated_branch_hooks_ -= h.gated;
    return true;
  });
}

void Cpu::set_block_gate(BlockGate gate, const u64* epoch) {
  block_gate_ = std::move(gate);
  block_gate_epoch_ = epoch;
  flush_blocks();
}

void Cpu::set_branch_gate(BranchGate gate, const u64* epoch) {
  branch_gate_ = std::move(gate);
  branch_gate_epoch_ = epoch;
  flush_blocks();  // void any per-block branch memos from a previous gate
}

void Cpu::set_store_hook(StoreHook hook) {
  store_hook_ = hook;
  flush_blocks();
}

void Cpu::register_helper(GuestAddr addr, Helper helper) {
  addr &= ~1u;
  if (addr < kHelperWindowBase) {
    // Below the window every run loop skips the helper lookup while no low
    // helper exists; registering one arms the check. Kill any cached block
    // covering the shadowed address (translation also stops in front of
    // low helpers from now on).
    low_helpers_[addr] = std::move(helper);
    tb_cache_.invalidate_range(addr, 4);
    return;
  }
  if ((addr & 3u) != 0) {
    throw std::invalid_argument("helper window address is not word-aligned");
  }
  const std::size_t slot = (addr - kHelperWindowBase) / 4;
  if (slot >= window_helpers_.size()) {
    if (running_helpers_ != 0 && slot >= window_helpers_.capacity()) {
      throw std::logic_error("helper window grown from inside a helper");
    }
    window_helpers_.resize(slot + 1);
  }
  window_helpers_[slot] = std::move(helper);
}

GuestAddr Cpu::register_helper_auto(Helper helper) {
  const GuestAddr addr = next_helper_addr_;
  next_helper_addr_ += 4;
  register_helper(addr, std::move(helper));
  return addr;
}

void Cpu::set_engine(Engine engine) {
  memory_.set_tlb_enabled(engine != Engine::kInterp);
  if (engine_ == engine) return;
  engine_ = engine;
  flush_blocks();
}

void Cpu::set_trace_emitter(TraceEmitter emitter) {
  trace_emitter_ = std::move(emitter);
  flush_blocks();
}

void Cpu::flush_blocks() { tb_cache_.flush(); }

void Cpu::fire_branch_hooks(GuestAddr from, GuestAddr to) {
  for (auto& h : branch_hooks_) h.fn(*this, from, to);
}

const Insn& Cpu::decode_cached(u64 key, u32 word, u16 hw2) {
  ++decode_lookups_;
  if (t_decode_cache == nullptr) [[unlikely]] {
    t_decode_cache = std::make_unique<DecodeEntry[]>(1u << kDecodeCacheBits);
  }
  const u32 index =
      static_cast<u32>((key * 0x9E3779B97F4A7C15ull) >>
                       (64 - kDecodeCacheBits));
  DecodeEntry& entry = t_decode_cache[index];
  if (entry.key != key) {
    entry.insn = (key >> 62) == 2 ? decode_thumb(static_cast<u16>(word), hw2)
                                  : decode_arm(word);
    entry.key = key;
  } else {
    ++decode_hits_;
  }
  return entry.insn;
}

const Insn& Cpu::fetch_decode(GuestAddr pc, bool thumb) {
  if (thumb) {
    const u16 hw = memory_.read16(pc);
    if (is_thumb32(hw)) {
      const u16 hw2 = memory_.read16(pc + 2);
      const u64 key = (static_cast<u64>(hw2) << 16) | hw | (2ull << 62);
      return decode_cached(key, hw, hw2);
    }
    // 16-bit encodings key on their own halfword alone, so the same
    // instruction hits the cache regardless of what follows it.
    return decode_cached(static_cast<u64>(hw) | (2ull << 62), hw, 0);
  }
  const u32 word = memory_.read32(pc);
  return decode_cached(static_cast<u64>(word) | (1ull << 62), word, 0);
}

Helper* Cpu::find_helper(GuestAddr pc) {
  if (pc < kHelperWindowBase) {
    auto it = low_helpers_.find(pc);
    return it == low_helpers_.end() ? nullptr : &it->second;
  }
  const std::size_t slot = (pc - kHelperWindowBase) / 4;
  if ((pc & 3u) != 0 || slot >= window_helpers_.size() ||
      !window_helpers_[slot]) {
    return nullptr;
  }
  return &window_helpers_[slot];
}

bool Cpu::run_helper(GuestAddr pc) {
  Helper* helper = find_helper(pc);
  if (helper == nullptr) return false;
  ++retired_;
  const GuestAddr ret = state_.lr();
  ++running_helpers_;
  try {
    (*helper)(*this);
  } catch (...) {
    --running_helpers_;
    throw;
  }
  --running_helpers_;
  if (state_.pc() == pc) {
    state_.thumb = (ret & 1) != 0;
    state_.set_pc(ret & ~1u);
    fire_branch_hooks(pc, state_.pc());
  }
  return true;
}

void Cpu::step() {
  const GuestAddr pc = state_.pc();

  // Helpers normally live in the 0xF0000000+ window; skip the hash lookup
  // for ordinary guest code unless a helper shadows a low address.
  if ((pc >= kHelperWindowBase || !low_helpers_.empty()) && run_helper(pc)) {
    return;
  }

  // A copy: a hook may run guest code (on any Cpu of this thread) that
  // evicts the thread's decode-cache entry.
  const Insn insn = fetch_decode(pc, state_.thumb);

  for (auto& h : insn_hooks_) h.fn(*this, insn, pc);
  fire_store_hook(insn.taint_class(), insn, pc);

  if (insn.op == Op::kSvc &&
      condition_passed(effective_cond(insn, state_), state_)) {
    if (!svc_handler_) throw GuestFault("SVC with no kernel attached");
    if (state_.thumb && state_.itstate != 0) advance_itstate(state_);
    state_.set_pc(pc + insn.length);
    ++retired_;
    svc_handler_(*this, insn.imm);
    return;
  }

  execute(insn, state_, memory_);
  ++retired_;

  if (state_.pc() != pc + insn.length) fire_branch_hooks(pc, state_.pc());
}

std::shared_ptr<TranslationBlock> Cpu::translate(GuestAddr pc, bool thumb) {
  auto tb = std::make_shared<TranslationBlock>();
  tb->pc = pc;
  tb->thumb = thumb;
  GuestAddr cur = pc;
  while (tb->insns.size() < TbCache::kMaxBlockInsns) {
    // Never fall through into the helper window — or onto a helper that
    // shadows ordinary guest code: the run loop must regain control there
    // to dispatch helpers.
    if (cur >= kHelperWindowBase) break;
    if (cur != pc && is_low_helper(cur)) break;
    const Insn& insn = fetch_decode(cur, thumb);
    if (insn.op == Op::kUndefined) break;  // step() raises the fault
    if (insn.op == Op::kIt) {
      const u32 len =
          4 - static_cast<u32>(std::countr_zero(insn.imm & 0xFu));
      // Never split an IT block across translation blocks: the covered
      // instructions must live in the same block as the IT so emission
      // sees their IT context and keeps them on the general path.
      if (tb->insns.size() + 1 + len > TbCache::kMaxBlockInsns) break;
    }
    TbInsn ti;
    ti.insn = insn;
    ti.pc = cur;
    ti.taint_class = insn.taint_class();
    switch (ti.taint_class) {
      case TaintClass::kLoad:
      case TaintClass::kLdm:
        tb->has_loads = true;
        break;
      case TaintClass::kStore:
      case TaintClass::kStm:
        tb->has_stores = true;
        break;
      default:
        break;
    }
    if (insn.op == Op::kSvc) tb->has_svc = true;
    tb->insns.push_back(ti);
    cur += insn.length;
    tb->byte_length += insn.length;
    if (ends_block(insn)) break;
  }
  if (tb->insns.empty()) return nullptr;
  return tb;
}

bool Cpu::ask_branch_gate(TranslationBlock& tb, GuestAddr from, GuestAddr to) {
  const bool quiet = !branch_gate_(*this, from, to);
  if (branch_gate_epoch_ != nullptr) {
    tb.branch_epoch = *branch_gate_epoch_;
    tb.branch_to = to;
    tb.branch_quiet = quiet;
  }
  return quiet;
}

u64 Cpu::exec_block(TranslationBlock& tb, u64 budget) {
  // Per-instruction hook dispatch, budget accounting, and self-modification
  // checks, with hooks resolved once per block.
  const bool fire = block_hooks_fire(tb);
  const bool gate_skip = !fire && !insn_hooks_.empty();
  if (gate_skip) ++fastpath_blocks_;
  u64 done = 0;
  for (std::size_t i = 0; i < tb.insns.size() && done < budget; ++i) {
    const TbInsn& ti = tb.insns[i];
    if (fire) {
      for (auto& h : insn_hooks_) h.fn(*this, ti.insn, ti.pc);
    }
    fire_store_hook(ti.taint_class, ti.insn, ti.pc);
    if (ti.insn.op == Op::kSvc &&
        condition_passed(effective_cond(ti.insn, state_), state_)) {
      if (!svc_handler_) throw GuestFault("SVC with no kernel attached");
      if (state_.thumb && state_.itstate != 0) advance_itstate(state_);
      state_.set_pc(ti.pc + ti.insn.length);
      ++retired_;
      ++done;
      svc_handler_(*this, ti.insn.imm);
      break;  // SVC always terminates a block
    }
    execute(ti.insn, state_, memory_);
    ++retired_;
    ++done;
    if (state_.pc() != ti.pc + ti.insn.length) {
      // Taken branch. When every branch hook is gated and the branch gate
      // declares the edge uninteresting, firing them would be a no-op.
      if (!is_branch_quiet(tb, ti.pc, state_.pc())) {
        fire_branch_hooks(ti.pc, state_.pc());
      }
      break;
    }
    // The block may have stored over (or a hook rewritten) its own code:
    // stop replaying stale instructions and re-translate on re-entry.
    if (tb.dead) break;
  }
  if (gate_skip) fastpath_insns_ += done;
  return done;
}

bool Cpu::run_blocks(u64 max_steps) {
  u64 done = 0;
  while (done < max_steps) {
    const GuestAddr pc = state_.pc();
    if (pc == kHostReturnAddr) return true;
    // Mid-IT continuation (a block ended inside an IT block, or a jump
    // landed in one: blocks starting here were translated without IT
    // context) and helper dispatch both take one careful step.
    if (state_.itstate != 0 || pc >= kHelperWindowBase || is_low_helper(pc)) {
      step();
      ++done;
      continue;
    }
    const u64 key = TbCache::key(pc, state_.thumb);
    TbFrontEntry& fe = tb_front_[static_cast<u32>(
        (key * 0x9E3779B97F4A7C15ull) >> (64 - kTbFrontBits))];
    TranslationBlock* tb;
    if (fe.key == key && fe.version == tb_cache_.version()) {
      tb_cache_.count_front_hits(1);
      tb = fe.tb;
    } else {
      std::shared_ptr<TranslationBlock> found =
          tb_cache_.lookup(pc, state_.thumb);
      if (found == nullptr) {
        found = translate(pc, state_.thumb);
        if (found == nullptr) {
          step();  // undecodable head instruction: fault via the slow path
          ++done;
          continue;
        }
        tb_cache_.insert(found);
      }
      tb = found.get();  // owned by the cache (or its graveyard) from here
      fe = {key, tb_cache_.version(), tb};
    }
    if (tb->threaded == nullptr) ThreadedRun::emit(*this, *tb);
    ++exec_depth_;
    try {
      u64 block_done =
          ThreadedRun::exec(*this, *tb->threaded, max_steps - done);
      // The remaining budget can't cover even this block's entry: partial
      // replay through the careful per-instruction path.
      if (block_done == 0) block_done = exec_block(*tb, max_steps - done);
      done += block_done;
    } catch (...) {
      --exec_depth_;
      throw;
    }
    --exec_depth_;
    // Between blocks at top level is a safe point for killed-block cleanup.
    if (exec_depth_ == 0) tb_cache_.drain_graveyard();
  }
  return state_.pc() == kHostReturnAddr;
}

bool Cpu::run(u64 max_steps) {
  // Safe point: no translation block is mid-execution in any frame, so
  // blocks killed while executing can finally be destroyed.
  if (exec_depth_ == 0) tb_cache_.drain_graveyard();
  if (engine_ != Engine::kInterp) return run_blocks(max_steps);
  for (u64 i = 0; i < max_steps && state_.pc() != kHostReturnAddr; ++i) {
    step();
  }
  return state_.pc() == kHostReturnAddr;
}

u32 Cpu::call_function(GuestAddr addr, const std::vector<u32>& args) {
  // Re-entrant: guest code may invoke helpers that call back into guest
  // functions (the JNI call chains rely on this). The caller's state and
  // the depth come back on return and on a fault alike, so a fault drops
  // the guest frames it unwound through.
  struct Restore {
    Cpu& cpu;
    CPUState saved;
    ~Restore() {
      cpu.state_ = saved;
      --cpu.call_depth_;
    }
  } restore{*this, state_};
  if (++call_depth_ > 64) throw GuestFault("guest call depth exceeded");
  const CPUState& saved = restore.saved;

  const u32 nreg = std::min<u32>(4, static_cast<u32>(args.size()));
  for (u32 i = 0; i < nreg; ++i) state_.regs[i] = args[i];

  u32 sp = state_.sp();
  if (args.size() > 4) {
    const u32 extra = static_cast<u32>(args.size()) - 4;
    sp -= 4 * extra;
    sp &= ~7u;  // AAPCS stack alignment
    for (u32 i = 0; i < extra; ++i) {
      memory_.write32(sp + 4 * i, args[4 + i]);
    }
  } else {
    sp &= ~7u;
  }
  state_.set_sp(sp);
  state_.set_lr(kHostReturnAddr);
  state_.thumb = (addr & 1) != 0;
  state_.set_pc(addr & ~1u);
  // A host-initiated call is still a control transfer into guest code; make
  // it visible so address-triggered hooks (e.g. NDroid's SourcePolicy
  // application at a native method's first instruction) fire uniformly.
  fire_branch_hooks(saved.pc(), state_.pc());

  if (!run(step_budget_)) {
    throw GuestFault("guest call did not return (step budget exhausted)");
  }
  return state_.regs[0];  // read before Restore puts the caller's state back
}

}  // namespace ndroid::arm
