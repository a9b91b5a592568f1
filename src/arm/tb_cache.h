// Basic-block translation cache (the analogue of QEMU's TB cache, which the
// paper's NDroid rides on: "QEMU caches hot instructions and the
// corresponding handlers", §V-C).
//
// On first execution of a PC the Cpu decodes straight-line instructions up
// to a control-transfer boundary into a TranslationBlock: the decoded Insn,
// its address, and its pre-classified Table V taint class, plus block-level
// summary flags (has_loads/has_stores/has_svc) that let an attached analysis
// decide *once per block* whether per-instruction hooks are needed at all
// (the taint-liveness fast path).
//
// Invalidation rules (self-modifying code, dlopen, register_helper):
//  * a page is write-watched in the guest address space while at least one
//    cached block covers it (AddressSpace::set_page_watched: armed when the
//    first block lands there, disarmed when the last one dies);
//  * the address space reports writes to watched pages back (see
//    AddressSpace::set_write_watch), which kills every block intersecting
//    the written range — including a block that rewrites itself
//    mid-execution (`dead` is checked by the block executor);
//  * flush() drops everything (used when hook topology changes).
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "arm/insn.h"
#include "mem/address_space.h"

namespace ndroid::arm {

struct ThreadedBlock;  // arm/threaded.h

/// One decoded instruction inside a block, with its pre-classified taint
/// shape so per-instruction re-classification never happens on the hot path.
struct TbInsn {
  Insn insn;
  GuestAddr pc = 0;
  TaintClass taint_class = TaintClass::kNone;
};

struct TranslationBlock {
  GuestAddr pc = 0;
  bool thumb = false;
  u32 byte_length = 0;

  // Block-level summaries consulted by the block gate (fast-path decision).
  bool has_loads = false;   // any kLoad / kLdm instruction
  bool has_stores = false;  // any kStore / kStm instruction
  bool has_svc = false;     // ends in (or contains) an SVC

  /// Set by invalidation while the block may still be executing; the block
  /// executors check it after stores and abandon the remaining instructions.
  bool dead = false;

  /// Client-managed scope memo (0 = unknown, 1 = in scope, 2 = out of
  /// scope). Reset whenever the block gate changes (set_block_gate flushes).
  u8 scope_cache = 0;

  /// Block-gate memo: valid while the client's gate epoch equals gate_epoch
  /// (the client bumps its epoch whenever gate inputs change — e.g. taint
  /// liveness crossing zero). ~0 never matches a live epoch.
  u64 gate_epoch = ~0ull;
  bool gate_fire = true;

  /// Branch-gate memo for the block's most recent taken-branch target,
  /// epoch-validated the same way against the client's branch epoch.
  u64 branch_epoch = ~0ull;
  GuestAddr branch_to = 0;
  bool branch_quiet = false;

  std::vector<TbInsn> insns;

  /// Threaded-code lowering of this block (arm/threaded.h), built lazily on
  /// its first block dispatch. Owned here so the stream dies with the
  /// block — but never reset by kill_block: the threaded inner loop runs on
  /// raw pointers into it, and a block can kill *itself* through a store, so
  /// the stream must stay alive until the graveyard drains. Stale direct
  /// links into it are fenced by cache-version tags, exactly like the Cpu's
  /// front cache.
  std::shared_ptr<ThreadedBlock> threaded;
};

/// Keyed by (pc, thumb). Blocks are shared_ptr so an executing block
/// survives its own invalidation until the executor lets go of it: killed
/// blocks move to a graveyard the Cpu drains only when no block is being
/// executed, which lets the executor run on raw pointers (no per-block
/// refcount traffic).
class TbCache {
 public:
  static constexpr u32 kPageShift = 12;
  static constexpr u32 kMaxBlockInsns = 64;

  static u64 key(GuestAddr pc, bool thumb) {
    return static_cast<u64>(pc) | (static_cast<u64>(thumb) << 32);
  }

  /// Blocks are translated from (and their pages watched in) `memory`.
  explicit TbCache(mem::AddressSpace& memory) : memory_(memory) {}
  ~TbCache() { unwatch_all(); }
  TbCache(const TbCache&) = delete;
  TbCache& operator=(const TbCache&) = delete;

  [[nodiscard]] std::shared_ptr<TranslationBlock> lookup(GuestAddr pc,
                                                         bool thumb);

  /// Registers a freshly translated block and watches its code pages.
  void insert(std::shared_ptr<TranslationBlock> tb);

  /// Kills every cached block intersecting [addr, addr+len).
  void invalidate_range(GuestAddr addr, u32 len);

  /// Drops every cached block (hook-topology changes, engine switches).
  void flush();

  [[nodiscard]] std::size_t size() const { return blocks_.size(); }

  /// Bumped on every kill/flush; the Cpu's direct-mapped front cache tags
  /// entries with it so any invalidation atomically voids all raw pointers.
  [[nodiscard]] u64 version() const { return version_; }

  /// Destroys blocks killed since the last drain. Only safe to call when no
  /// translation block is currently being executed.
  void drain_graveyard() { graveyard_.clear(); }

  /// Statistics entry for `n` hits served from the Cpu's front cache or a
  /// direct link (keeps hit_rate() meaningful without routing the fast
  /// path through lookup()).
  void count_front_hits(u64 n) {
    lookups_ += n;
    hits_ += n;
  }

  // --- Statistics ------------------------------------------------------
  [[nodiscard]] u64 lookups() const { return lookups_; }
  [[nodiscard]] u64 hits() const { return hits_; }
  [[nodiscard]] u64 translations() const { return translations_; }
  [[nodiscard]] u64 invalidated_blocks() const { return invalidated_; }
  [[nodiscard]] u64 flushes() const { return flushes_; }
  [[nodiscard]] double hit_rate() const {
    return lookups_ == 0 ? 0.0
                         : static_cast<double>(hits_) /
                               static_cast<double>(lookups_);
  }

 private:
  void kill_block(TranslationBlock* tb);
  /// Disarms every watched code page and forgets the page lists.
  void unwatch_all();

  mem::AddressSpace& memory_;
  std::unordered_map<u64, std::shared_ptr<TranslationBlock>> blocks_;
  /// Live blocks per code page; a page is watched exactly while it has an
  /// entry here.
  std::unordered_map<u32, std::vector<TranslationBlock*>> page_blocks_;
  /// Killed blocks parked until the executor is provably outside them.
  std::vector<std::shared_ptr<TranslationBlock>> graveyard_;
  u64 version_ = 0;

  u64 lookups_ = 0;
  u64 hits_ = 0;
  u64 translations_ = 0;
  u64 invalidated_ = 0;
  u64 flushes_ = 0;
};

}  // namespace ndroid::arm
