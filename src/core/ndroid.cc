#include "core/ndroid.h"

#include "static/summary.h"
#include "static/summary_cache.h"
#include "static/summary_store.h"

namespace ndroid::core {

std::function<bool(GuestAddr)> NDroid::scope_predicate() const {
  using android::Layout;
  switch (config_.scope) {
    case NDroidConfig::Scope::kThirdParty:
      return [](GuestAddr pc) {
        return pc >= Layout::kAppLibBase && pc < Layout::kHeapBase;
      };
    case NDroidConfig::Scope::kThirdPartyAndLibc:
      return [](GuestAddr pc) {
        return (pc >= Layout::kAppLibBase && pc < Layout::kHeapBase) ||
               (pc >= Layout::kLibc && pc < Layout::kLibc + Layout::kLibcSize);
      };
    case NDroidConfig::Scope::kAll:
      return [](GuestAddr) { return true; };
  }
  return [](GuestAddr) { return false; };
}

bool NDroid::block_in_scope(arm::TranslationBlock& tb) {
  // Memoised per block; blocks are straight-line and short, so testing the
  // first and last instruction covers a region-boundary crossing. The memo
  // is safe because set_block_gate flushes cached blocks on attach/detach.
  if (tb.scope_cache == 0) {
    const GuestAddr last = tb.insns.back().pc;
    tb.scope_cache = (scope_(tb.pc) || scope_(last)) ? 1 : 2;
  }
  return tb.scope_cache == 1;
}

bool NDroid::block_gate(arm::TranslationBlock& tb) {
  // SVC sink checks read only the memory taint map; with no tainted bytes
  // the check is a guaranteed no-op.
  const bool mem_taint = engine_.map().tainted_bytes() != 0;
  if (config_.sink_checks && tb.has_svc && mem_taint) return true;
  if (!config_.instruction_tracer) return false;
  if (!block_in_scope(tb)) return false;  // the tracer no-ops out of scope
  // Disassembly tracing must observe every in-scope instruction.
  if (config_.trace_disassembly) return true;
  const bool reg_taint = engine_.tainted_regs() != 0;
  // Nothing tainted anywhere: every Table V rule degenerates to writing
  // clear over clear. Skip the block.
  if (!reg_taint && !mem_taint) return false;
  // Clean registers and no memory operations: a pure ALU block can neither
  // pick up taint from memory nor needs to clear any.
  if (!reg_taint && !tb.has_loads && !tb.has_stores) return false;
  // Summary-gated fast path: taint is live, but the static summary of the
  // function this block belongs to proves the block cannot touch it. The
  // block executes a subset of the function's instructions (lookup verifies
  // pc is an instruction boundary of a same-mode lifted function), so the
  // function-level facts bound the block's behaviour:
  //   * no tainted register is in the function's Table V footprint, and
  //   * its memory accesses cannot reach a tainted byte (no accesses at
  //     all / constant windows on provably clean pages / stack slots while
  //     the taint map is empty).
  // Every Table V rule in the block then writes clear over clear. The memo
  // epoch is the engine's mutation epoch (tainted-register-mask changes and
  // shadow-page liveness crossings), which covers every input read here.
  if (summary_gate_ != nullptr) {
    const auto* s = summary_gate_->lookup(tb.pc, tb.thumb);
    if (s != nullptr && !s->opaque() &&
        (engine_.tainted_reg_mask() & s->touched_regs) == 0) {
      using static_analysis::MemKind;
      bool mem_clear = false;
      switch (s->mem_kind) {
        case MemKind::kNone:
          mem_clear = true;
          break;
        case MemKind::kStatic:
          mem_clear = !mem_taint;
          if (!mem_clear) {
            mem_clear = true;
            for (const auto& w : s->windows) {
              if (engine_.map().any_tainted_in(w.lo, w.hi)) {
                mem_clear = false;
                break;
              }
            }
          }
          break;
        case MemKind::kStack:
          // SP-relative windows cannot be checked against the taint map
          // without the runtime SP, and SP changes do not bump the memo
          // epoch — only the map-is-empty fact is epoch-stable.
          mem_clear = !mem_taint;
          break;
        case MemKind::kOpaque:
          break;
      }
      if (mem_clear) {
        ++summary_gate_skips;
        return false;
      }
    }
  }
  return true;
}

NDroid::NDroid(android::Device& device, NDroidConfig config)
    : device_(device), config_(config), scope_(scope_predicate()) {
  log_.echo = config_.echo_log;

  tracer_ = std::make_unique<InstructionTracer>(
      engine_, scope_, config_.handler_cache,
      config_.trace_disassembly ? &log_ : nullptr);
  syslib_ = std::make_unique<SysLibHookEngine>(
      device_.libc, device_.kernel, engine_, log_, config_.syslib_models,
      /*skip_clean_models=*/config_.taint_liveness_fastpath);
  // T1 of the multilevel chain asks whether the branch source is in the
  // third-party native library under examination.
  auto third_party = [](GuestAddr pc) {
    using android::Layout;
    return pc >= Layout::kAppLibBase && pc < Layout::kHeapBase;
  };
  dvm_hooks_ = std::make_unique<DvmHookEngine>(
      device_, engine_, log_, third_party, config_.multilevel_hooking);
  if (config_.taint_protection) {
    // The guard checks every store on the CPU's store hook, independently
    // of taint liveness: blocks with stores stay on the clean stream.
    guard_ = std::make_unique<TaintGuard>(
        device_, android::Layout::kAppLibBase, android::Layout::kHeapBase);
    device_.cpu.set_store_hook(guard_->store_hook());
  }
  device_.dvm.irt().set_release_observer(
      [this](dvm::IndirectRef iref) { engine_.drop_object_shadow(iref); });
  // Native calls a GuestFault unwound never reach their bridge-exit events.
  // The CPU state is already back to what it was when the unwinding
  // Dvm::call began, so its SP bounds the native frames that died.
  device_.dvm.set_unwind_observer([this](GuestAddr sp) {
    dvm_hooks_->drop_calls_below(sp);
    syslib_->drop_exits_below(device_.cpu.state().sp());
    // The drops change what wants_branch() answers.
    engine_.bump_branch_epoch();
  });

  // Each engine's wants_branch() is a guaranteed-no-op prefilter, so hot
  // loop back-edges (the overwhelming majority of branch events) skip the
  // dispatch bodies entirely.
  branch_hook_id_ = device_.cpu.add_branch_hook(
      [this](arm::Cpu& cpu, GuestAddr from, GuestAddr to) {
        bool ran = false;
        if (config_.dvm_hooks && dvm_hooks_->wants_branch(to)) {
          dvm_hooks_->on_branch(cpu, from, to);
          ran = true;
        }
        if ((config_.syslib_models || config_.sink_checks) &&
            syslib_->wants_branch(to)) {
          syslib_->on_branch(cpu, from, to);
          ran = true;
        }
        // Apart from the unwind drops above and taint-liveness flips (which
        // the engine's branch epoch counts itself), every mutation of
        // wants_branch()-relevant state happens inside the dispatch bodies
        // (the engines' hook tables are immutable process-wide data), so
        // bumping only when one ran keeps the per-block branch memos sound:
        // they stay valid exactly while no hook body has run and liveness
        // stands still.
        if (ran) engine_.bump_branch_epoch();
      },
      /*gated=*/true);
  // The branch gate mirrors the hook's own prefilters exactly: gate false
  // implies the hook body above is a guaranteed no-op, which also licenses
  // the executor's quiet self-loop chaining and the per-block edge memo
  // (validated against the engine's branch epoch).
  device_.cpu.set_branch_gate(
      [this](arm::Cpu&, GuestAddr /*from*/, GuestAddr to) {
        return (config_.dvm_hooks && dvm_hooks_->wants_branch(to)) ||
               ((config_.syslib_models || config_.sink_checks) &&
                syslib_->wants_branch(to));
      },
      engine_.branch_epoch());
  // The hook consents to block-level gating: when the CPU runs translation
  // blocks, block_gate() may skip it for whole blocks that cannot move
  // taint (the liveness fast path).
  insn_hook_id_ = device_.cpu.add_insn_hook(
      [this](arm::Cpu& cpu, const arm::Insn& insn, GuestAddr pc) {
        if (config_.instruction_tracer) tracer_->on_insn(cpu, insn, pc);
        if (config_.sink_checks) syslib_->on_insn(cpu, insn, pc);
      },
      /*gated=*/true);
  if (config_.taint_liveness_fastpath) {
    // The gate's only runtime-variable inputs are the two taint-liveness
    // booleans, so the engine's liveness epoch (bumped on zero-crossings of
    // register or memory taint) lets the executor memoise the answer
    // per block until taint actually appears or vanishes.
    device_.cpu.set_block_gate(
        [this](arm::Cpu&, arm::TranslationBlock& tb) { return block_gate(tb); },
        engine_.liveness_epoch());
  }
  // Trace emitter for the threaded tier: pre-resolves the insn hook body
  // above into per-instruction fused thunks. The fallbacks mirror that body
  // exactly — an instruction syslib's SVC sinks could act on keeps generic
  // hook dispatch; for the rest, the hook reduces to the tracer alone,
  // which prepare() resolves to a thunk or a provable no-op.
  device_.cpu.set_trace_emitter(
      [this](const arm::TranslationBlock&,
             const arm::TbInsn& ti) -> std::optional<arm::TraceOp> {
        if (config_.sink_checks && ti.insn.op == arm::Op::kSvc) {
          return std::nullopt;
        }
        if (!config_.instruction_tracer) return arm::TraceOp{};
        return tracer_->prepare(ti);
      });
}

const SummaryGate* NDroid::attach_static_analysis() {
  if (!config_.static_summaries) return nullptr;
  using android::Layout;
  namespace sa = static_analysis;

  // (1) Code regions: the app process's third-party library mappings,
  // discovered the way the §V-F layer does — by walking the guest kernel's
  // task list through VMI, not by asking host-side bookkeeping.
  os::ViewReconstructor vmi(device_.memory, os::Kernel::kTaskRoot);
  const auto views = vmi.reconstruct();
  std::vector<sa::CodeRegion> regions;
  for (const auto& proc : views) {
    if (proc.pid != device_.app_pid()) continue;
    for (const auto& r : proc.regions) {
      if (r.start >= Layout::kAppLibBase && r.start < Layout::kHeapBase) {
        regions.push_back({r.start, r.end, r.name});
      }
    }
  }

  // (2) Roots: every registered native method living in third-party code —
  // the JNI entry points the bridge can actually reach, grouped under the
  // library that contains them.
  std::vector<const dvm::Method*> roots;
  for (const dvm::Method* m : device_.dvm.native_methods()) {
    const GuestAddr stripped = m->native_addr & ~1u;
    if (stripped >= Layout::kAppLibBase && stripped < Layout::kHeapBase) {
      roots.push_back(m);
    }
  }

  // (3) One immutable artifact per library: lifted through the shared
  // process-wide cache when one is configured (first meeting of a content
  // hash lifts, everyone else reuses), privately otherwise. Either way the
  // artifact is bound to this process's load base — a zero-copy share when
  // the bases coincide, a conservative relocation when they don't. The key
  // needs only the entry addresses; the entries' labels are built when a
  // lift runs.
  std::vector<std::shared_ptr<const sa::LibrarySummary>> libs;
  for (const auto& region : regions) {
    std::vector<sa::FunctionEntry> lib_entries;
    std::vector<const dvm::Method*> lib_roots;
    for (const dvm::Method* m : roots) {
      const GuestAddr stripped = m->native_addr & ~1u;
      if (stripped >= region.start && stripped < region.end) {
        lib_entries.push_back({m->native_addr, {}});
        lib_roots.push_back(m);
      }
    }
    auto lift = [this, &region, &lib_entries, &lib_roots] {
      std::vector<sa::FunctionEntry> labelled = lib_entries;
      for (std::size_t i = 0; i < labelled.size(); ++i) {
        labelled[i].name =
            lib_roots[i]->clazz->descriptor() + "." + lib_roots[i]->name;
      }
      return sa::analyze_library(device_.memory, region, labelled);
    };
    if (config_.summary_cache != nullptr) {
      const u64 key = sa::library_key(device_.memory, region, lib_entries);
      libs.push_back(
          config_.summary_cache->acquire(key, region.start, lift));
    } else if (config_.summary_store != nullptr) {
      // Cache-less persistent path (isolated worker processes): a
      // hash-verified store entry replaces the lift; corruption or absence
      // falls back to lifting fresh and rewriting the entry.
      const u64 key = sa::library_key(device_.memory, region, lib_entries);
      std::shared_ptr<const sa::LibrarySummary> lib =
          config_.summary_store->load(key);
      if (lib == nullptr) {
        lib = std::make_shared<const sa::LibrarySummary>(lift());
        config_.summary_store->save(*lib);
      }
      libs.push_back(sa::bind_library(std::move(lib), region.start));
    } else {
      libs.push_back(sa::bind_library(
          std::make_shared<const sa::LibrarySummary>(lift()), region.start));
    }
  }
  summary_gate_ = std::make_unique<SummaryGate>(std::move(libs));

  // (4) Feedback into the dynamic layer: the block gate re-arms on the finer
  // taint-mutation epoch so the summary answers in block_gate stay
  // memo-sound (set_block_gate flushes every existing per-block memo).
  if (config_.taint_liveness_fastpath) {
    device_.cpu.set_block_gate(
        [this](arm::Cpu&, arm::TranslationBlock& tb) { return block_gate(tb); },
        engine_.mutation_epoch());
  }
  return summary_gate_.get();
}

NDroid::~NDroid() {
  device_.dvm.irt().set_release_observer(nullptr);
  device_.dvm.set_unwind_observer({});
  if (guard_ != nullptr) device_.cpu.set_store_hook({});
  device_.cpu.set_trace_emitter(nullptr);
  device_.cpu.remove_branch_hook(branch_hook_id_);
  device_.cpu.remove_insn_hook(insn_hook_id_);
  device_.cpu.set_block_gate(nullptr);
  device_.cpu.set_branch_gate(nullptr);
}

}  // namespace ndroid::core
