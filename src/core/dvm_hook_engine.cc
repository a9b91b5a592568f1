#include "core/dvm_hook_engine.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace ndroid::core {

namespace {
std::string hex(u32 v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%x", v);
  return buf;
}
}  // namespace

bool DvmHookEngine::GuestMethodInfo::is_static() const {
  return (access_flags & dvm::kAccStatic) != 0;
}

DvmHookEngine::DvmHookEngine(android::Device& device, TaintEngine& engine,
                             TraceLog& log,
                             std::function<bool(GuestAddr)> third_party,
                             bool multilevel)
    : device_(device),
      engine_(engine),
      log_(log),
      third_party_(std::move(third_party)),
      multilevel_(multilevel),
      tables_(hook_tables()) {}

const DvmHookEngine::HookTables& DvmHookEngine::hook_tables() {
  static const HookTables tables = build_tables();
  return tables;
}

DvmHookEngine::HookTables DvmHookEngine::build_tables() {
  const jni::JniImage& img = jni::JniEnv::image();
  const auto& dvm_syms = img.libdvm.symbols;
  const auto& jni_syms = img.symbols;
  HookTables t;
  t.call_jni = dvm_syms.at("dvmCallJNIMethod");
  t.call_method_v = dvm_syms.at("dvmCallMethodV");
  t.call_method_a = dvm_syms.at("dvmCallMethodA");
  t.interpret = dvm_syms.at("dvmInterpret");

  for (const auto& [name, addr] : jni_syms) {
    if (name.rfind("Call", 0) == 0 && name.find("Method") != std::string::npos) {
      t.call_stubs.push_back(addr);
    }
  }

  // Table III NOF -> MAF pairs.
  auto nof = [&](const char* name, const char* maf, int kind) {
    t.nofs.push_back(Nof{jni_syms.at(name), name, dvm_syms.at(maf), kind});
  };
  nof("NewStringUTF", "dvmCreateStringFromCstr", 1);
  nof("NewString", "dvmCreateStringFromUnicode", 2);
  nof("NewObject", "dvmAllocObject", 0);
  nof("NewObjectV", "dvmAllocObject", 0);
  nof("NewObjectA", "dvmAllocObject", 0);
  nof("NewObjectArray", "dvmAllocArrayByClass", 0);
  nof("NewIntArray", "dvmAllocPrimitiveArray", 0);
  nof("NewByteArray", "dvmAllocPrimitiveArray", 0);
  nof("NewCharArray", "dvmAllocPrimitiveArray", 0);
  nof("NewBooleanArray", "dvmAllocPrimitiveArray", 0);

  auto hook = [&](const char* name, void (*fn)(DvmHookEngine&, arm::Cpu&)) {
    t.simple_hooks.push_back(SimpleHook{jni_syms.at(name), name, fn});
  };
  // Table IV field accessors.
  hook("SetObjectField", &field_set<'L', false>);
  hook("SetIntField", &field_set<'I', false>);
  hook("SetBooleanField", &field_set<'Z', false>);
  hook("SetByteField", &field_set<'B', false>);
  hook("SetCharField", &field_set<'C', false>);
  hook("SetShortField", &field_set<'S', false>);
  hook("SetFloatField", &field_set<'F', false>);
  hook("SetStaticObjectField", &field_set<'L', true>);
  hook("SetStaticIntField", &field_set<'I', true>);
  hook("GetObjectField", &field_get<'L', false>);
  hook("GetIntField", &field_get<'I', false>);
  hook("GetBooleanField", &field_get<'Z', false>);
  hook("GetByteField", &field_get<'B', false>);
  hook("GetCharField", &field_get<'C', false>);
  hook("GetShortField", &field_get<'S', false>);
  hook("GetFloatField", &field_get<'F', false>);
  hook("GetStaticObjectField", &field_get<'L', true>);
  hook("GetStaticIntField", &field_get<'I', true>);

  // TrustCall handlers.
  const auto utf_chars = [](DvmHookEngine& e, arm::Cpu& c) {
    e.hook_get_string_utf_chars(c);
  };
  const auto get_elements = [](DvmHookEngine& e, arm::Cpu& c) {
    e.hook_get_array_elements(c);
  };
  const auto release_elements = [](DvmHookEngine& e, arm::Cpu& c) {
    e.hook_release_array_elements(c);
  };
  const auto get_region = [](DvmHookEngine& e, arm::Cpu& c) {
    e.hook_array_region(c, false);
  };
  const auto set_region = [](DvmHookEngine& e, arm::Cpu& c) {
    e.hook_array_region(c, true);
  };
  hook("GetStringUTFChars", utf_chars);
  hook("GetIntArrayElements", get_elements);
  hook("GetByteArrayElements", get_elements);
  hook("ReleaseIntArrayElements", release_elements);
  hook("ReleaseByteArrayElements", release_elements);
  hook("GetIntArrayRegion", get_region);
  hook("GetByteArrayRegion", get_region);
  hook("SetIntArrayRegion", set_region);
  hook("SetByteArrayRegion", set_region);

  // Exception group.
  hook("ThrowNew", [](DvmHookEngine& e, arm::Cpu& c) { e.hook_throw_new(c); });

  const auto by_addr = [](const auto& a, const auto& b) {
    return a.addr < b.addr;
  };
  std::sort(t.call_stubs.begin(), t.call_stubs.end());
  std::sort(t.nofs.begin(), t.nofs.end(), by_addr);
  std::sort(t.simple_hooks.begin(), t.simple_hooks.end(), by_addr);

  // Every static address on_branch can act on feeds the branch prefilter;
  // dynamic targets (pending exits, active NOFs, the running JNI method's
  // first instruction) are checked explicitly in wants_branch().
  t.static_targets.add(t.call_jni);
  t.static_targets.add(t.call_method_v);
  t.static_targets.add(t.call_method_a);
  t.static_targets.add(t.interpret);
  t.static_targets.add(arm::kHostReturnAddr);
  for (GuestAddr stub : t.call_stubs) t.static_targets.add(stub);
  for (const Nof& n : t.nofs) t.static_targets.add(n.addr);
  for (const SimpleHook& h : t.simple_hooks) t.static_targets.add(h.addr);
  return t;
}

u32 DvmHookEngine::guest_strlen(arm::Cpu& cpu, GuestAddr s) {
  // Word-at-a-time scan (the helper is hot inside Table VI models).
  u32 n = 0;
  while (n < (1u << 20)) {
    const u32 w = cpu.memory().read32(s + n);
    if ((w & 0xFF) == 0) return n;
    if ((w & 0xFF00) == 0) return n + 1;
    if ((w & 0xFF0000) == 0) return n + 2;
    if ((w & 0xFF000000) == 0) return n + 3;
    n += 4;
  }
  return n;
}

Taint DvmHookEngine::object_taint_by_iref(u32 iref) {
  Taint t = engine_.object_shadow(iref);
  auto& irt = device_.dvm.irt();
  if (irt.is_valid(iref)) {
    t |= device_.dvm.heap().object_taint(*irt.decode(iref));
  }
  return t;
}

void DvmHookEngine::push_exit(arm::Cpu& cpu,
                              std::function<void(arm::Cpu&)> fn) {
  exits_.push_back(PendingExit{cpu.state().lr() & ~1u, std::move(fn)});
}

DvmHookEngine::GuestMethodInfo DvmHookEngine::read_method(
    arm::Cpu& cpu, GuestAddr method_struct) {
  using L = dvm::GuestMethodLayout;
  auto& mem = cpu.memory();
  GuestMethodInfo info;
  info.insns = mem.read32(method_struct + L::kInsns);
  info.shorty = mem.read_cstr(mem.read32(method_struct + L::kShorty));
  info.name = mem.read_cstr(mem.read32(method_struct + L::kName));
  info.class_desc = mem.read_cstr(mem.read32(method_struct + L::kClassDesc));
  info.access_flags = mem.read32(method_struct + L::kAccessFlags);
  info.registers_size = mem.read32(method_struct + L::kRegistersSize);
  info.ins_size = mem.read32(method_struct + L::kInsSize);
  return info;
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void DvmHookEngine::on_branch(arm::Cpu& cpu, GuestAddr from, GuestAddr to) {
  // Pending function-exit actions.
  if (!exits_.empty() && exits_.back().ret_to == to) {
    auto fn = std::move(exits_.back().fn);
    exits_.pop_back();
    fn(cpu);
  }

  // --- (3) Object creation finalisation -----------------------------------
  if (!nof_stack_.empty() && to == nof_stack_.back().ret_to) {
    ActiveNof nof = std::move(nof_stack_.back());
    nof_stack_.pop_back();
    const u32 iref = cpu.state().regs[0];
    if (nof.real_addr != 0) {
      log_.line("realStringAddr:0x" + hex(nof.real_addr));
      if (nof.taint != kTaintClear) {
        if (dvm::Object* obj = device_.dvm.heap().object_at(nof.real_addr)) {
          device_.dvm.heap().add_object_taint(*obj, nof.taint);
          ++objects_tainted;
        }
        log_.line("add taint " + std::to_string(nof.taint) +
                  " to new string object@0x" + hex(nof.real_addr));
        log_.line("t(" + hex(nof.real_addr) + ") := 0x" + hex(nof.taint));
      }
    }
    engine_.add_object_shadow(iref, nof.taint);
    engine_.set_reg(0, nof.taint);
    log_.line(std::string(nof.name) + " return 0x" + hex(iref));
    log_.line(std::string(nof.name) + " End");
  }

  // --- (1) JNI entry --------------------------------------------------------
  const HookTables& t = tables_;
  if (to == t.call_jni) {
    hook_jni_entry(cpu);
    return;
  }
  hook_native_return_events(cpu, to);

  // --- (2) JNI exit: multilevel chain T1..T6 --------------------------------
  auto in_stub = [](GuestAddr addr, GuestAddr stub) {
    return addr >= stub && addr < stub + kStubRange;
  };
  auto from_call_stub = [&]() {
    for (GuestAddr s : t.call_stubs) {
      if (in_stub(from, s)) return true;
    }
    return false;
  };

  if (std::binary_search(t.call_stubs.begin(), t.call_stubs.end(), to) &&
      third_party_(from)) {
    chain_.push_back(1);
    ++chain_events[0];
  } else if (to == t.call_method_v || to == t.call_method_a) {
    const bool chain_ok =
        !chain_.empty() && chain_.back() == 1 && from_call_stub();
    if (chain_ok) {
      chain_.back() = 2;
      ++chain_events[1];
    }
    if (chain_ok || !multilevel_) {
      hook_call_method_entry(cpu, to == t.call_method_a ? 'A' : 'V');
    }
  } else if (to == t.interpret) {
    const bool chain_ok = !chain_.empty() && chain_.back() == 2 &&
                          (in_stub(from, t.call_method_v) ||
                           in_stub(from, t.call_method_a));
    if (chain_ok) {
      chain_.back() = 3;
      ++chain_events[2];
    }
    if (chain_ok || !multilevel_) {
      hook_interpret_entry(cpu);
    }
  } else if (!chain_.empty()) {
    // Unwinding transitions T4..T6.
    if (chain_.back() == 3 && in_stub(from, t.interpret) &&
        (in_stub(to, t.call_method_v) || in_stub(to, t.call_method_a))) {
      chain_.back() = 4;
      ++chain_events[3];
    } else if (chain_.back() == 4 &&
               (in_stub(from, t.call_method_v) ||
                in_stub(from, t.call_method_a))) {
      bool to_call_stub = false;
      for (GuestAddr s : t.call_stubs) {
        if (in_stub(to, s)) {
          to_call_stub = true;
          break;
        }
      }
      if (to_call_stub) {
        chain_.back() = 5;
        ++chain_events[4];
      }
    } else if (chain_.back() == 5 && from_call_stub() && third_party_(to)) {
      chain_.pop_back();
      ++chain_events[5];
    }
  }

  // --- (3) Object creation entries ------------------------------------------
  hook_nof_entry(cpu, to);

  // --- (4)(5) + TrustCall handlers ------------------------------------------
  if (const SimpleHook* hook = find_by_addr(t.simple_hooks, to)) {
    hook->fn(*this, cpu);
  }
}

// ---------------------------------------------------------------------------
// (1) JNI entry
// ---------------------------------------------------------------------------

void DvmHookEngine::hook_jni_entry(arm::Cpu& cpu) {
  const auto& regs = cpu.state().regs;
  const GuestAddr args_area = regs[0];
  const GuestMethodInfo info = read_method(cpu, regs[2]);
  const u32 n = static_cast<u32>(info.shorty.size()) - 1 +
                (info.is_static() ? 0 : 1);

  log_.line("name: " + info.name);
  log_.line("shorty: " + info.shorty);
  log_.line("class: " + info.class_desc);
  log_.line("insnAddr: " + hex(info.insns));

  SourcePolicy policy;
  // Branch events report halfword-aligned targets; mask the Thumb bit so
  // Thumb-mode native methods match (§V-C handles both instruction sets).
  policy.method_address = info.insns & ~1u;
  policy.method_shorty = info.shorty;
  policy.access_flag = info.access_flags;
  bool any_taint = false;

  std::array<Taint, 4> reg_taints{};
  for (u32 slot = 0; slot < n; ++slot) {
    const u32 value = cpu.memory().read32(args_area + 8 * slot);
    const Taint taint = cpu.memory().read32(args_area + 8 * slot + 4);
    // JNI ABI position: env=0, receiver/class=1, params follow.
    const u32 pos = slot + (info.is_static() ? 2 : 1);
    if (taint != kTaintClear) {
      any_taint = true;
      const u32 shorty_idx = info.is_static() ? slot + 1 : slot;
      const char type =
          (!info.is_static() && slot == 0) ? 'L' : info.shorty[shorty_idx];
      log_.line("args[" + std::to_string(slot) + "]@0x" + hex(value) + " " +
                std::string(1, type) +
                (type == 'L' ? " Ljava/lang/String;" : "") +
                "  taint: 0x" + hex(taint));
    }
    if (pos < 4) {
      reg_taints[pos] = taint;
    } else {
      if (policy.stack_args_taints.size() < pos - 3) {
        policy.stack_args_taints.resize(pos - 3, kTaintClear);
      }
      policy.stack_args_taints[pos - 4] = taint;
    }
  }
  policy.tR0 = reg_taints[0];
  policy.tR1 = reg_taints[1];
  policy.tR2 = reg_taints[2];
  policy.tR3 = reg_taints[3];
  policy.stack_args_num = static_cast<u32>(policy.stack_args_taints.size());

  JniCall call;
  call.args_area = args_area;
  call.result_addr = regs[1];
  call.arg_count = n;
  call.method_address = info.insns & ~1u;
  call.return_type = info.shorty.empty() ? 'V' : info.shorty[0];

  // A guest fault inside a native method unwinds past the bridge without
  // the usual return events; cap the stack so stale entries from faulted
  // calls cannot accumulate without bound.
  if (jni_stack_.size() > 64) jni_stack_.clear();

  if (any_taint && transparent_methods_.contains(call.method_address)) {
    // Pre-analysis proved this method taint-transparent: its instructions
    // touch no memory, make no calls, and its return value is argument
    // independent. Seeding registers/shadows here could only be read back
    // by the method itself, so the whole policy is dead weight.
    log_.line("transparent method, SourcePolicy skipped");
    ++source_policies_skipped;
  } else if (any_taint) {
    policy.handler = [this](SourcePolicy& p, arm::CPUState& state) {
      engine_.set_reg(0, p.tR0);
      engine_.set_reg(1, p.tR1);
      engine_.set_reg(2, p.tR2);
      engine_.set_reg(3, p.tR3);
      for (u32 i = 0; i < p.stack_args_num; ++i) {
        engine_.map().add_range(state.sp() + 4 * i, 4,
                                p.stack_args_taints[i]);
      }
      // Key object taints by indirect reference for L-type parameters (the
      // irefs are the values currently in the argument registers / stack
      // slots). Parameter p (1-based in the shorty) sits at JNI position
      // p+1 regardless of staticness; the receiver of an instance method is
      // an object at position 1.
      const Taint reg_taints[4] = {p.tR0, p.tR1, p.tR2, p.tR3};
      auto shadow_pos = [&](u32 pos, Taint taint) {
        if (taint == kTaintClear) return;
        const u32 value =
            pos < 4 ? state.regs[pos]
                    : device_.memory.read32(state.sp() + 4 * (pos - 4));
        engine_.add_object_shadow(value, taint);
        log_.line("t(" + hex(value) + ") := " + std::to_string(taint));
      };
      if ((p.access_flag & dvm::kAccStatic) == 0) {
        shadow_pos(1, p.tR1);
      }
      for (u32 param = 1; param < p.method_shorty.size(); ++param) {
        if (p.method_shorty[param] != 'L') continue;
        const u32 pos = param + 1;
        const Taint taint =
            pos < 4 ? reg_taints[pos]
                    : (pos - 4 < p.stack_args_num
                           ? p.stack_args_taints[pos - 4]
                           : kTaintClear);
        shadow_pos(pos, taint);
      }
    };
    policies_.put(policy);
    ++source_policies_created;
  }
  jni_stack_.push_back(call);
}

void DvmHookEngine::hook_native_return_events(arm::Cpu& cpu, GuestAddr to) {
  if (jni_stack_.empty()) return;
  JniCall& top = jni_stack_.back();

  if (to == top.method_address && top.phase == 0) {
    top.phase = 1;
    if (SourcePolicy* policy = policies_.find(top.method_address)) {
      log_.line("Find a source function @0x" + hex(top.method_address));
      log_.line("SourceHandler");
      policy->handler(*policy, cpu.state());
      ++source_policies_applied;
    }
    return;
  }

  if (to == arm::kHostReturnAddr) {
    if (top.phase == 1) {
      // The native method just returned: its return-value taint is the
      // shadow of R0 at this moment.
      top.native_ret_taint = engine_.reg(0);
      if (top.return_type == 'L') {
        top.native_ret_taint |= object_taint_by_iref(cpu.state().regs[0]);
      }
      top.phase = 2;
    } else if (top.phase == 2) {
      // The bridge stub is returning: repair the return-taint slot that the
      // TaintDroid policy filled, and taint a returned object.
      const GuestAddr rtaint_slot = top.args_area + 8 * top.arg_count;
      const Taint merged =
          cpu.memory().read32(rtaint_slot) | top.native_ret_taint;
      cpu.memory().write32(rtaint_slot, merged);
      if (top.return_type == 'L' && top.native_ret_taint != kTaintClear) {
        const u32 direct = cpu.memory().read32(top.result_addr);
        if (dvm::Object* obj = device_.dvm.heap().object_at(direct)) {
          device_.dvm.heap().add_object_taint(*obj, top.native_ret_taint);
        }
      }
      jni_stack_.pop_back();
    }
  }
}

// ---------------------------------------------------------------------------
// (2) JNI exit
// ---------------------------------------------------------------------------

void DvmHookEngine::hook_call_method_entry(arm::Cpu& cpu, char kind) {
  (void)kind;
  const auto& regs = cpu.state().regs;
  const GuestMethodInfo info = read_method(cpu, regs[0]);
  const u32 receiver_iref = regs[1];
  const GuestAddr args_ptr = regs[3];

  pending_java_taints_.clear();
  if (!info.is_static()) {
    pending_java_taints_.push_back(engine_.reg(1) |
                                   object_taint_by_iref(receiver_iref));
  }
  for (u32 p = 1; p < info.shorty.size(); ++p) {
    const GuestAddr slot = args_ptr + 4 * (p - 1);
    const u32 raw = cpu.memory().read32(slot);
    Taint t = engine_.map().get_range(slot, 4);
    if (info.shorty[p] == 'L' && raw != 0) {
      t |= object_taint_by_iref(raw);
    }
    pending_java_taints_.push_back(t);
  }
  pending_java_valid_ = true;
}

void DvmHookEngine::hook_interpret_entry(arm::Cpu& cpu) {
  const auto& regs = cpu.state().regs;
  const GuestMethodInfo info = read_method(cpu, regs[0]);
  const GuestAddr fp = regs[1];

  log_.line("dvmInterpret Begin");
  log_.line("Method Name: " + info.name);
  log_.line("Method Shorty: " + info.shorty);
  log_.line("Method insSize: " + std::to_string(info.ins_size));
  log_.line("Method registerSize: " + std::to_string(info.registers_size));
  log_.line("curFrame@0x" + hex(fp));
  log_.line("Method AccessFlag: 0x" + hex(info.access_flags));

  if (!pending_java_valid_) return;
  pending_java_valid_ = false;

  const u32 first_in = info.registers_size - info.ins_size;
  bool restored = false;
  for (u32 k = 0; k < pending_java_taints_.size() && k < info.ins_size; ++k) {
    const Taint t = pending_java_taints_[k];
    if (t == kTaintClear) continue;
    const GuestAddr slot = fp + 8 * (first_in + k) + 4;
    cpu.memory().write32(slot, cpu.memory().read32(slot) | t);
    log_.line("args[" + std::to_string(k) + "] taint: 0x" + hex(t));
    log_.line("add taint to new method frame t[" + hex(slot) +
              "] = 0x" + hex(t));
    restored = true;
  }
  if (restored) ++jni_exit_restores;
}

// ---------------------------------------------------------------------------
// (3) Object creation
// ---------------------------------------------------------------------------

void DvmHookEngine::hook_nof_entry(arm::Cpu& cpu, GuestAddr to) {
  // MAF entry while a NOF is active?
  if (!nof_stack_.empty() && to == nof_stack_.back().maf) {
    log_.line("dvm allocation Begin");
    const std::size_t index = nof_stack_.size() - 1;
    push_exit(cpu, [this, index](arm::Cpu& c) {
      if (index < nof_stack_.size()) {
        nof_stack_[index].real_addr = c.state().regs[0];
        log_.line("dvm allocation return 0x" + hex(c.state().regs[0]));
        log_.line("dvm allocation End");
      }
    });
    return;
  }

  const Nof* found = find_by_addr(tables_.nofs, to);
  if (found == nullptr) return;
  const Nof& nof = *found;
  const auto& regs = cpu.state().regs;

  Taint taint = kTaintClear;
  if (nof.kind == 1) {
    const u32 len = guest_strlen(cpu, regs[1]);
    taint = engine_.map().get_range(regs[1], len);
    log_.line(std::string(nof.name) + " Begin");
    log_.line(cpu.memory().read_cstr(regs[1], 1u << 20));
  } else if (nof.kind == 2) {
    taint = engine_.map().get_range(regs[1], 2 * regs[2]);
    log_.line(std::string(nof.name) + " Begin");
  } else {
    log_.line(std::string(nof.name) + " Begin");
  }
  nof_stack_.push_back(
      ActiveNof{nof.name, nof.maf, taint, 0, cpu.state().lr() & ~1u});
}

// ---------------------------------------------------------------------------
// (4) Field access
// ---------------------------------------------------------------------------

void DvmHookEngine::hook_field_set(arm::Cpu& cpu, char type, bool is_static) {
  const auto& regs = cpu.state().regs;
  Taint t = engine_.reg(3);
  if (type == 'L') t |= object_taint_by_iref(regs[3]);
  if (t == kTaintClear) return;

  auto& dvm = device_.dvm;
  const auto fr = dvm.decode_field_id(regs[2]);
  if (is_static) {
    fr.cls->statics().at(fr.field->index).taint |= t;
  } else if (dvm.irt().is_valid(regs[1])) {
    dvm::Object* obj = dvm.irt().decode(regs[1]);
    obj->fields().at(fr.field->index).taint |= t;
    dvm.heap().sync_payload(*obj);
  }
  log_.line("Set" + std::string(1, type) + "Field " + fr.field->name +
            " taint: 0x" + hex(t));
}

void DvmHookEngine::hook_field_get(arm::Cpu& cpu, char type, bool is_static) {
  const auto& regs = cpu.state().regs;
  auto& dvm = device_.dvm;
  const auto fr = dvm.decode_field_id(regs[2]);
  Taint t = kTaintClear;
  if (is_static) {
    t = fr.cls->statics().at(fr.field->index).taint;
  } else if (dvm.irt().is_valid(regs[1])) {
    t = dvm.irt()
            .decode(regs[1])
            ->fields()
            .at(fr.field->index)
            .taint;
    t |= engine_.object_shadow(regs[1]);
  }
  push_exit(cpu, [this, t, type](arm::Cpu& c) {
    engine_.set_reg(0, t);
    if (type == 'L' && t != kTaintClear) {
      engine_.add_object_shadow(c.state().regs[0], t);
    }
  });
}

// ---------------------------------------------------------------------------
// TrustCall handlers
// ---------------------------------------------------------------------------

void DvmHookEngine::hook_get_string_utf_chars(arm::Cpu& cpu) {
  const u32 iref = cpu.state().regs[1];
  const Taint t = object_taint_by_iref(iref);
  log_.line("TrustCallHandler[GetStringUTFChars] begin");
  log_.line("jstring taint:" + std::to_string(t));
  log_.line("TrustCallHandler[GetStringUTFChars] end");
  push_exit(cpu, [this, t](arm::Cpu& c) {
    const GuestAddr buf = c.state().regs[0];
    if (buf == 0 || t == kTaintClear) return;
    const u32 len = guest_strlen(c, buf);
    engine_.map().add_range(buf, len + 1, t);
    engine_.set_reg(0, t);
    log_.line("t(" + hex(buf) + ") := " + std::to_string(t));
  });
}

void DvmHookEngine::hook_get_array_elements(arm::Cpu& cpu) {
  const u32 iref = cpu.state().regs[1];
  const Taint t = object_taint_by_iref(iref);
  u32 bytes = 0;
  auto& irt = device_.dvm.irt();
  if (irt.is_valid(iref)) {
    const dvm::Object* arr = irt.decode(iref);
    bytes = arr->length() * arr->elem_size();
  }
  push_exit(cpu, [this, t, bytes](arm::Cpu& c) {
    const GuestAddr buf = c.state().regs[0];
    if (buf == 0 || t == kTaintClear) return;
    engine_.map().add_range(buf, bytes, t);
    engine_.set_reg(0, t);
    log_.line("t(" + hex(buf) + ") := " + std::to_string(t));
  });
}

void DvmHookEngine::hook_release_array_elements(arm::Cpu& cpu) {
  const auto& regs = cpu.state().regs;
  if (regs[3] != 0) return;  // only mode 0 copies back
  auto& irt = device_.dvm.irt();
  if (!irt.is_valid(regs[1])) return;
  dvm::Object* arr = irt.decode(regs[1]);
  const Taint t =
      engine_.map().get_range(regs[2], arr->length() * arr->elem_size());
  if (t == kTaintClear) return;
  device_.dvm.heap().add_object_taint(*arr, t);
  engine_.add_object_shadow(regs[1], t);
}

void DvmHookEngine::hook_array_region(arm::Cpu& cpu, bool set) {
  const auto& regs = cpu.state().regs;
  auto& irt = device_.dvm.irt();
  if (!irt.is_valid(regs[1])) return;
  dvm::Object* arr = irt.decode(regs[1]);
  const u32 bytes = regs[3] * arr->elem_size();
  const GuestAddr buf = cpu.memory().read32(cpu.state().sp());
  if (set) {
    const Taint t = engine_.map().get_range(buf, bytes);
    if (t != kTaintClear) {
      device_.dvm.heap().add_object_taint(*arr, t);
      engine_.add_object_shadow(regs[1], t);
    }
  } else {
    const Taint t = object_taint_by_iref(regs[1]);
    if (t != kTaintClear) engine_.map().add_range(buf, bytes, t);
  }
}

// ---------------------------------------------------------------------------
// (5) Exceptions
// ---------------------------------------------------------------------------

void DvmHookEngine::hook_throw_new(arm::Cpu& cpu) {
  const GuestAddr msg = cpu.state().regs[2];
  const Taint t = engine_.map().get_range(msg, guest_strlen(cpu, msg));
  log_.line("ThrowNew Begin");
  if (t == kTaintClear) return;
  push_exit(cpu, [this, t](arm::Cpu&) {
    dvm::Object* exc = device_.dvm.pending_exception;
    if (exc == nullptr) return;
    const dvm::Field* f = exc->clazz()->find_instance_field("message");
    if (f == nullptr) return;
    const u32 msg_addr = exc->fields().at(f->index).value;
    if (dvm::Object* message = device_.dvm.heap().object_at(msg_addr)) {
      device_.dvm.heap().add_object_taint(*message, t);
      ++objects_tainted;
      log_.line("add taint " + std::to_string(t) +
                " to exception message@0x" + hex(msg_addr));
    }
  });
}

}  // namespace ndroid::core
