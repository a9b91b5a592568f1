#include "dvm/dvm.h"

#include <stdexcept>

#include "arm/assembler.h"

namespace ndroid::dvm {

namespace {
// Field-id guest layout: [class mirror][field index][type char][is_static].
constexpr u32 kFidClass = 0;
constexpr u32 kFidIndex = 4;
constexpr u32 kFidType = 8;
constexpr u32 kFidStatic = 12;
constexpr u32 kFidSize = 16;
}  // namespace

Dvm::Dvm(arm::Cpu& cpu, GuestAddr heap_base, u32 heap_size,
         GuestAddr stack_base, u32 stack_size)
    : cpu_(cpu),
      heap_(cpu.memory(), heap_base, heap_size),
      stack_(cpu.memory(), stack_base, stack_size) {
  cpu_.memmap().add("libdvm.so", kLibdvmBase, kLibdvmSize, mem::kRWX);
  cpu_.memmap().add("[dalvik-heap]", heap_base, heap_size, mem::kRW);
  cpu_.memmap().add("[dalvik-stack]", stack_base, stack_size, mem::kRW);

  const DvmImage& img = image();
  load_image(img.libdvm);
  bind_helpers();
  thread_self_addr_ = img.thread_self;
  string_class_ = img.string_class;
}

// ---------------------------------------------------------------------------
// Guest stubs. Each libdvm function is a tiny guest routine that calls a C++
// helper; internal calls between libdvm functions happen at guest level so
// multilevel hooking sees the full branch chain (paper Fig. 5).
// ---------------------------------------------------------------------------

GuestAddr LibdvmArena::stub(mem::AddressSpace& memory,
                            std::span<const u8> code) {
  const GuestAddr addr = stub_bump;
  if (addr + code.size() > stub_end) {
    throw GuestFault("libdvm stub space exhausted");
  }
  memory.write_bytes(addr, code);
  stub_bump += (static_cast<u32>(code.size()) + 3) & ~3u;
  return addr;
}

GuestAddr LibdvmArena::data(u32 size) {
  const GuestAddr addr = data_bump;
  data_bump += (size + 3) & ~3u;
  if (data_bump > data_end) throw GuestFault("libdvm data space exhausted");
  return addr;
}

GuestAddr LibdvmArena::cstr(mem::AddressSpace& memory, std::string_view s) {
  const GuestAddr addr = data(static_cast<u32>(s.size()) + 1);
  memory.write_cstr(addr, s);
  return addr;
}

GuestAddr LibdvmArena::class_mirror(mem::AddressSpace& memory,
                                    std::string_view descriptor) {
  const GuestAddr mirror = data(8);
  memory.write32(mirror, cstr(memory, descriptor));
  memory.write32(mirror + 4, 0);
  return mirror;
}

GuestAddr LibdvmArena::method(mem::AddressSpace& memory, const Method& m) {
  const GuestAddr addr = data(GuestMethodLayout::kSize);
  memory.write32(addr + GuestMethodLayout::kInsns, m.native_addr);
  memory.write32(addr + GuestMethodLayout::kShorty, cstr(memory, m.shorty));
  memory.write32(addr + GuestMethodLayout::kName, cstr(memory, m.name));
  memory.write32(addr + GuestMethodLayout::kClassDesc,
                 cstr(memory, m.clazz->descriptor()));
  memory.write32(addr + GuestMethodLayout::kAccessFlags, m.access_flags);
  memory.write32(addr + GuestMethodLayout::kRegistersSize, m.registers_size);
  memory.write32(addr + GuestMethodLayout::kInsSize, m.ins_size);
  return addr;
}

LibdvmImageBuilder::LibdvmImageBuilder(const LibdvmImage* base,
                                       GuestAddr helper_base)
    : builder_(helper_base) {
  if (base == nullptr) return;
  base->pages.stamp(builder_.memory());
  image_.extends = base;
  image_.arena = base->arena;
  image_.symbols = base->symbols;
  image_.classes = base->classes;
}

ClassObject* LibdvmImageBuilder::define_class(const std::string& descriptor) {
  if (classes_ == nullptr) {
    // This layer's table starts as a copy of the index below it.
    classes_ = std::make_shared<BootClasses>();
    if (image_.classes != nullptr) {
      const BootClasses& below = *image_.classes;
      classes_->below = image_.classes;
      classes_->by_descriptor = below.by_descriptor;
      classes_->by_mirror = below.by_mirror;
      classes_->mirror_of = below.mirror_of;
      classes_->by_method = below.by_method;
    }
  }
  if (classes_->by_descriptor.contains(descriptor)) {
    throw std::logic_error("boot class defined twice: " + descriptor);
  }
  const GuestAddr mirror = image_.arena.class_mirror(memory(), descriptor);
  ClassObject* cls =
      classes_->owned.emplace_back(std::make_unique<ClassObject>(descriptor))
          .get();
  classes_->by_descriptor.emplace(descriptor, cls);
  classes_->by_mirror.emplace(mirror, cls);
  classes_->mirror_of.emplace(cls, mirror);
  return cls;
}

Method* LibdvmImageBuilder::define_builtin(ClassObject* cls, std::string name,
                                           std::string shorty,
                                           u32 access_flags, Builtin fn) {
  if (classes_ == nullptr || !classes_->mirror_of.contains(cls)) {
    throw std::logic_error("builtin on a class this image does not define");
  }
  auto m = std::make_unique<Method>();
  m->name = std::move(name);
  m->shorty = std::move(shorty);
  m->access_flags = access_flags;
  m->clazz = cls;
  m->builtin = std::move(fn);
  m->registers_size = m->ins_size = m->arg_count();
  // Verified here, once: a shared Method is never written after this.
  Dvm::verify(*m);
  m->guest_addr = image_.arena.method(memory(), *m);
  Method* raw = m.get();
  classes_->by_method.emplace(raw->guest_addr, raw);
  cls->add_method(std::move(m));
  return raw;
}

LibdvmImage LibdvmImageBuilder::finish() {
  image_.pages = builder_.capture(kLibdvmBase, kLibdvmSize);
  image_.delta = image_.pages.changed_from(
      image_.extends == nullptr ? arm::ImagePages{} : image_.extends->pages);
  if (classes_ != nullptr) image_.classes = std::move(classes_);
  return std::move(image_);
}

const DvmImage& Dvm::image() {
  static const DvmImage image = emit_image();
  return image;
}

void Dvm::load_image(const LibdvmImage& image) {
  if (image.extends != image_) {
    throw std::logic_error("libdvm.so image does not extend the loaded one");
  }
  if (image_ != nullptr && arena_ != image_->arena) {
    throw std::logic_error("libdvm.so was extended since its image loaded");
  }
  image.pages.stamp(cpu_.memory(), image.delta);
  arena_ = image.arena;
  image_ = &image;
  boot_ = image.classes.get();
}

// Registers the helper closures in the order emit_image() reserved them.
void Dvm::bind_helpers() {
  const arm::HelperTable& t = image().helpers;
  auto bind = [&](std::string_view name, arm::Helper h) {
    arm::bind_helper(cpu_, t, name, std::move(h));
  };
  bind("dvmCallJNIMethod",
       [this](arm::Cpu& c) { helper_call_jni_method(c); });
  bind("dvmCallMethodV.prepare",
       [this](arm::Cpu& c) { helper_call_method_prepare(c, 'V'); });
  bind("dvmCallMethodA.prepare",
       [this](arm::Cpu& c) { helper_call_method_prepare(c, 'A'); });
  bind("dvmInterpret", [this](arm::Cpu& c) { helper_interpret(c); });
  bind("dvmCallMethod.finish",
       [this](arm::Cpu& c) { helper_call_method_finish(c); });

  // Memory allocation functions (MAF, Table III).
  bind("dvmAllocObject", [this](arm::Cpu& c) {
    ClassObject* cls = class_at(c.state().regs[0]);
    Object* obj = heap_.new_instance(cls);
    c.state().regs[0] = obj->addr();
  });
  bind("dvmCreateStringFromCstr", [this](arm::Cpu& c) {
    const std::string s = c.memory().read_cstr(c.state().regs[0]);
    Object* obj = heap_.new_string(string_class_, s);
    c.state().regs[0] = obj->addr();
  });
  bind("dvmCreateStringFromUnicode", [this](arm::Cpu& c) {
    const GuestAddr chars = c.state().regs[0];
    const u32 len = c.state().regs[1];
    std::string s;
    s.reserve(len);
    for (u32 i = 0; i < len; ++i) {
      s.push_back(static_cast<char>(c.memory().read16(chars + 2 * i)));
    }
    Object* obj = heap_.new_string(string_class_, std::move(s));
    c.state().regs[0] = obj->addr();
  });
  bind("dvmAllocArrayByClass", [this](arm::Cpu& c) {
    ClassObject* cls = class_at(c.state().regs[0]);
    Object* obj = heap_.new_array(cls, c.state().regs[1], 4, true);
    c.state().regs[0] = obj->addr();
  });
  bind("dvmAllocPrimitiveArray", [this](arm::Cpu& c) {
    const u32 elem_size = c.state().regs[0];
    const u32 len = c.state().regs[1];
    Object* obj = heap_.new_array(nullptr, len, elem_size, false);
    c.state().regs[0] = obj->addr();
  });
  bind("dvmDecodeIndirectRef", [this](arm::Cpu& c) {
    const u32 ref = c.state().regs[0];
    c.state().regs[0] = ref == 0 ? 0 : irt_.decode(ref)->addr();
  });
}

DvmImage Dvm::emit_image() {
  LibdvmImageBuilder b;
  mem::AddressSpace& memory = b.memory();
  DvmImage img;
  LibdvmArena& arena = b.arena();
  auto helper = [&](const char* name) {
    return b.reserve_helper(img.helpers, name);
  };
  auto stub_alloc = [&](const std::string& name, std::span<const u8> code) {
    const GuestAddr addr = arena.stub(memory, code);
    b.symbols()[name] = addr;
    return addr;
  };

  const GuestAddr h_jni = helper("dvmCallJNIMethod");
  const GuestAddr h_prep_v = helper("dvmCallMethodV.prepare");
  const GuestAddr h_prep_a = helper("dvmCallMethodA.prepare");
  const GuestAddr h_interp = helper("dvmInterpret");
  const GuestAddr h_finish = helper("dvmCallMethod.finish");

  auto simple_stub = [&](const std::string& name, GuestAddr target) {
    arm::Assembler a(0);
    a.push({arm::LR});
    a.call(target);
    a.pop({arm::PC});
    const auto code = a.finish();
    return stub_alloc(name, code);
  };

  simple_stub("dvmCallJNIMethod", h_jni);

  // dvmInterpret must exist before dvmCallMethod* so their stubs can call it.
  const GuestAddr interp_addr = simple_stub("dvmInterpret", h_interp);

  auto call_method_stub_body = [&](const std::string& name, GuestAddr prep) {
    arm::Assembler a(0);
    a.push({arm::R(4), arm::LR});
    a.mov(arm::R(4), arm::R(0));  // save Method*
    a.call(prep);                 // returns frame in r0
    a.mov(arm::R(1), arm::R(0));  // r1 = frame
    a.mov(arm::R(0), arm::R(4));  // r0 = Method*
    a.call(interp_addr);
    a.call(h_finish);
    a.pop({arm::R(4), arm::PC});
    const auto code = a.finish();
    return stub_alloc(name, code);
  };
  call_method_stub_body("dvmCallMethodV", h_prep_v);
  call_method_stub_body("dvmCallMethodA", h_prep_a);

  // Memory allocation functions (MAF, Table III).
  for (const char* maf :
       {"dvmAllocObject", "dvmCreateStringFromCstr",
        "dvmCreateStringFromUnicode", "dvmAllocArrayByClass",
        "dvmAllocPrimitiveArray", "dvmDecodeIndirectRef"}) {
    simple_stub(maf, helper(maf));
  }

  // The main thread and java.lang.String exist from the start.
  img.thread_self = arena.data(32);
  img.string_class = b.define_class("Ljava/lang/String;");
  img.helper_end = b.next_helper();
  img.libdvm = b.finish();
  return img;
}

GuestAddr Dvm::stub_alloc(const std::string& name,
                          std::span<const u8> code) {
  const GuestAddr addr = arena_.stub(cpu_.memory(), code);
  local_symbols_[name] = addr;
  return addr;
}

GuestAddr Dvm::data_alloc(u32 size) { return arena_.data(size); }

GuestAddr Dvm::data_cstr(std::string_view s) {
  return arena_.cstr(cpu_.memory(), s);
}

GuestAddr Dvm::sym(const std::string& name) const {
  if (auto it = image_->symbols.find(name); it != image_->symbols.end()) {
    return it->second;
  }
  auto it = local_symbols_.find(name);
  if (it == local_symbols_.end()) throw GuestFault("no libdvm symbol: " + name);
  return it->second;
}

GuestAddr Dvm::call_method_stub(char kind) const {
  return sym(kind == 'A' ? "dvmCallMethodA" : "dvmCallMethodV");
}

// ---------------------------------------------------------------------------
// Classes, methods, fields
// ---------------------------------------------------------------------------

ClassObject* Dvm::define_class(const std::string& descriptor) {
  if (auto it = classes_.find(descriptor); it != classes_.end()) {
    return it->second.get();
  }
  if (auto it = boot_->by_descriptor.find(descriptor);
      it != boot_->by_descriptor.end()) {
    return own_class(it->second);
  }
  const GuestAddr mirror = arena_.class_mirror(cpu_.memory(), descriptor);
  ClassObject* cls =
      classes_.emplace(descriptor, std::make_unique<ClassObject>(descriptor))
          .first->second.get();
  class_by_mirror_[mirror] = cls;
  mirror_by_class_[cls] = mirror;
  return cls;
}

ClassObject* Dvm::own_class(ClassObject* cls) {
  if (mirror_by_class_.contains(cls)) return cls;
  if (auto it = classes_.find(cls->descriptor()); it != classes_.end()) {
    return it->second.get();  // copied before
  }
  const auto shared = boot_->mirror_of.find(cls);
  if (shared == boot_->mirror_of.end()) throw GuestFault("unregistered class");
  const GuestAddr mirror = shared->second;
  ClassObject* copy = classes_.emplace(cls->descriptor(), cls->clone())
                          .first->second.get();
  class_by_mirror_[mirror] = copy;
  mirror_by_class_[copy] = mirror;
  for (const auto& m : copy->methods()) method_by_guest_[m->guest_addr] = m.get();
  if (cls == string_class_) string_class_ = copy;
  return copy;
}

ClassObject* Dvm::find_class(std::string_view descriptor) const {
  if (auto it = classes_.find(descriptor); it != classes_.end()) {
    return it->second.get();
  }
  auto it = boot_->by_descriptor.find(descriptor);
  return it == boot_->by_descriptor.end() ? nullptr : it->second;
}

ClassObject* Dvm::class_at(GuestAddr mirror) const {
  if (auto it = class_by_mirror_.find(mirror); it != class_by_mirror_.end()) {
    return it->second;
  }
  auto it = boot_->by_mirror.find(mirror);
  if (it == boot_->by_mirror.end()) {
    throw GuestFault("bad jclass handle 0x" + std::to_string(mirror));
  }
  return it->second;
}

GuestAddr Dvm::class_mirror(const ClassObject* cls) const {
  if (auto it = mirror_by_class_.find(cls); it != mirror_by_class_.end()) {
    return it->second;
  }
  auto it = boot_->mirror_of.find(cls);
  if (it == boot_->mirror_of.end()) throw GuestFault("unregistered class");
  return it->second;
}

void Dvm::register_method(ClassObject* cls, std::unique_ptr<Method> m) {
  cls = own_class(cls);
  m->clazz = cls;
  m->guest_addr = arena_.method(cpu_.memory(), *m);
  method_by_guest_[m->guest_addr] = m.get();
  cls->add_method(std::move(m));
}

Method* Dvm::define_method(ClassObject* cls, std::string name,
                           std::string shorty, u32 access_flags,
                           u16 registers_size, std::vector<DInsn> code) {
  auto m = std::make_unique<Method>();
  m->name = std::move(name);
  m->shorty = std::move(shorty);
  m->access_flags = access_flags;
  m->clazz = cls;
  m->registers_size = registers_size;
  m->ins_size = m->arg_count();
  m->code = std::move(code);
  Method* raw = m.get();
  register_method(cls, std::move(m));
  return raw;
}

Method* Dvm::define_native(ClassObject* cls, std::string name,
                           std::string shorty, u32 access_flags,
                           GuestAddr native_addr) {
  auto m = std::make_unique<Method>();
  m->name = std::move(name);
  m->shorty = std::move(shorty);
  m->access_flags = access_flags | kAccNative;
  m->clazz = cls;
  m->native_addr = native_addr;
  m->registers_size = m->ins_size = m->arg_count();
  Method* raw = m.get();
  register_method(cls, std::move(m));
  return raw;
}

Method* Dvm::define_builtin(ClassObject* cls, std::string name,
                            std::string shorty, u32 access_flags, Builtin fn) {
  auto m = std::make_unique<Method>();
  m->name = std::move(name);
  m->shorty = std::move(shorty);
  m->access_flags = access_flags;
  m->clazz = cls;
  m->builtin = std::move(fn);
  m->registers_size = m->ins_size = m->arg_count();
  Method* raw = m.get();
  register_method(cls, std::move(m));
  return raw;
}

Method* Dvm::method_at(GuestAddr guest_method) const {
  if (auto it = method_by_guest_.find(guest_method);
      it != method_by_guest_.end()) {
    return it->second;
  }
  auto it = boot_->by_method.find(guest_method);
  if (it == boot_->by_method.end()) {
    throw GuestFault("bad jmethodID 0x" + std::to_string(guest_method));
  }
  return it->second;
}

std::vector<const Method*> Dvm::native_methods() const {
  std::vector<const Method*> out;
  for (const auto& [guest, m] : method_by_guest_) {
    if (m->is_native() && m->native_addr != 0) out.push_back(m);
  }
  return out;
}

GuestAddr Dvm::field_id(ClassObject* cls, std::string_view name,
                        bool is_static) {
  const std::string key =
      cls->descriptor() + "/" + std::string(name) + (is_static ? "#s" : "#i");
  if (auto it = field_id_cache_.find(key); it != field_id_cache_.end()) {
    return it->second;
  }
  const Field* f = is_static ? cls->find_static_field(name)
                             : cls->find_instance_field(name);
  if (f == nullptr) {
    throw GuestFault("no such field: " + key);
  }
  const GuestAddr fid = data_alloc(kFidSize);
  auto& mem = cpu_.memory();
  mem.write32(fid + kFidClass, class_mirror(cls));
  mem.write32(fid + kFidIndex, f->index);
  mem.write32(fid + kFidType, static_cast<u32>(f->type));
  mem.write32(fid + kFidStatic, is_static ? 1 : 0);
  field_ids_[fid] = FieldRef{cls, f, is_static};
  field_id_cache_[key] = fid;
  return fid;
}

Dvm::FieldRef Dvm::decode_field_id(GuestAddr fid) const {
  auto it = field_ids_.find(fid);
  if (it == field_ids_.end()) {
    throw GuestFault("bad jfieldID 0x" + std::to_string(fid));
  }
  return it->second;
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

Slot Dvm::call(const Method& method, std::vector<Slot> args) {
  if (args.size() != method.arg_count()) {
    throw GuestFault("arity mismatch calling " + method.name);
  }
  // The frames, native outs areas and pending dvmCallMethod calls that a
  // GuestFault unwinds through die with the call, as its local references
  // do (NativeCallFrame). On a return the pops have already restored this.
  struct Unwind {
    Dvm& dvm;
    DvmStack::Mark mark;
    std::size_t pending;
    ~Unwind() {
      dvm.stack_.unwind_to(mark);
      dvm.pending_calls_.erase(
          dvm.pending_calls_.begin() + static_cast<std::ptrdiff_t>(pending),
          dvm.pending_calls_.end());
      if (dvm.unwind_observer_) dvm.unwind_observer_(mark.sp);
    }
  } const unwind{*this, stack_.mark(), pending_calls_.size()};
  if (method.is_builtin()) {
    Slot ret = method.builtin(*this, args);
    if (!policy_.propagate_java) ret.taint = kTaintClear;
    retval_ = ret;
    return ret;
  }
  if (method.is_native()) {
    retval_ = invoke_native(method, args);
    return retval_;
  }
  verify(method);
  const GuestAddr fp = stack_.push_frame(method);
  const u16 first_in = method.registers_size - method.ins_size;
  for (u32 i = 0; i < args.size(); ++i) {
    stack_.set_reg(fp, static_cast<u16>(first_in + i), args[i].value,
                   policy_.propagate_java ? args[i].taint : kTaintClear);
  }
  interpret(method, fp);
  stack_.pop_frame();
  return retval_;
}

Slot Dvm::invoke_native(const Method& method, const std::vector<Slot>& args) {
  const u32 n = method.arg_count();
  const GuestAddr outs = stack_.push_outs(n);
  for (u32 i = 0; i < n; ++i) {
    cpu_.memory().write32(outs + 8 * i, args[i].value);
    cpu_.memory().write32(outs + 8 * i + 4,
                          policy_.propagate_java ? args[i].taint
                                                 : kTaintClear);
  }
  // JValue scratch, allocated once and reused: the guest stub only writes
  // the result right before returning and the caller reads it immediately
  // after, so strictly-nested (LIFO, single-threaded) native calls can
  // share one slot — a per-call data_alloc would leak the arena dry on
  // long benchmark runs.
  if (jvalue_scratch_ == 0) jvalue_scratch_ = data_alloc(8);
  const GuestAddr result_addr = jvalue_scratch_;
  cpu_.call_function(
      sym("dvmCallJNIMethod"),
      {outs, result_addr, method.guest_addr, thread_self_addr_});
  Slot ret;
  ret.value = cpu_.memory().read32(result_addr);
  ret.taint = cpu_.memory().read32(outs + 8 * n);
  stack_.pop_outs(n);
  return ret;
}

// dvmCallJNIMethod(const u4* args, JValue* pResult, const Method* method,
//                  Thread* self) — paper Listing 2.
void Dvm::helper_call_jni_method(arm::Cpu& cpu) {
  auto& regs = cpu.state().regs;
  const GuestAddr args_area = regs[0];
  const GuestAddr result_addr = regs[1];
  const Method* method = method_at(regs[2]);

  const u32 n = method->arg_count();
  std::vector<Slot> slots(n);
  Taint arg_union = kTaintClear;
  for (u32 i = 0; i < n; ++i) {
    slots[i].value = cpu.memory().read32(args_area + 8 * i);
    slots[i].taint = cpu.memory().read32(args_area + 8 * i + 4);
    arg_union |= slots[i].taint;
  }

  // The call's local references, the marshalled receiver and arguments
  // included, die when it returns or a GuestFault unwinds through it.
  const IndirectRefTable::NativeCallFrame locals(irt_);

  // Marshal to the JNI native ABI: (JNIEnv*, jobject|jclass, params...).
  // Object parameters become indirect references (Android >= 4.0, §II-A).
  std::vector<u32> jni_args;
  jni_args.push_back(jnienv_addr_);
  u32 slot_idx = 0;
  if (method->is_static()) {
    jni_args.push_back(class_mirror(method->clazz));
  } else {
    Object* receiver = heap_.object_at(slots[0].value);
    jni_args.push_back(receiver ? irt_.add(receiver) : 0);
    slot_idx = 1;
  }
  for (u32 p = 1; p < method->shorty.size(); ++p, ++slot_idx) {
    const u32 raw = slots[slot_idx].value;
    if (method->shorty[p] == 'L' && raw != 0) {
      Object* obj = heap_.object_at(raw);
      jni_args.push_back(obj ? irt_.add(obj) : 0);
    } else {
      jni_args.push_back(raw);
    }
  }

  const u32 native_ret = cpu.call_function(method->native_addr, jni_args);

  // Write JValue: object returns arrive as indirect references and are
  // stored as direct pointers on the Java side.
  u32 result = native_ret;
  if (method->return_type() == 'L' && native_ret != 0) {
    result = irt_.decode(native_ret)->addr();
  }
  cpu.memory().write32(result_addr, result);

  // TaintDroid's JNI return policy (§IV): taint the return value iff any
  // parameter was tainted. NDroid's bridge-exit hook may OR in the taint it
  // tracked through the native code.
  const Taint rtaint =
      policy_.jni_ret_union && policy_.propagate_java ? arg_union
                                                      : kTaintClear;
  cpu.memory().write32(args_area + 8 * n, rtaint);
  cpu.state().regs[0] = result;
}

// dvmCallMethodV/A prologue: decode indirect refs, allocate + populate the
// DVM frame (taint slots cleared — the under-tainting NDroid repairs), and
// record the pending call for dvmInterpret.
void Dvm::helper_call_method_prepare(arm::Cpu& cpu, char kind) {
  (void)kind;  // V and A share a layout in this ABI (array of u4 jvalues)
  auto& regs = cpu.state().regs;
  const Method* method = method_at(regs[0]);
  const u32 receiver_iref = regs[1];
  const GuestAddr result_addr = regs[2];
  const GuestAddr args_ptr = regs[3];

  if (method->is_native()) {
    throw GuestFault("dvmCallMethod* on a native method is unsupported");
  }

  verify(*method);
  const GuestAddr fp = stack_.push_frame(*method);
  const u16 first_in = method->registers_size - method->ins_size;
  u16 reg = first_in;
  if (!method->is_static()) {
    Object* receiver =
        receiver_iref == 0 ? nullptr : irt_.decode(receiver_iref);
    stack_.set_reg_value(fp, reg++, receiver ? receiver->addr() : 0);
  }
  for (u32 p = 1; p < method->shorty.size(); ++p) {
    const u32 raw = cpu.memory().read32(args_ptr + 4 * (p - 1));
    u32 value = raw;
    if (method->shorty[p] == 'L' && raw != 0) {
      value = irt_.decode(raw)->addr();  // dvmDecodeIndirectRef
    }
    stack_.set_reg_value(fp, reg++, value);
    // Taint slots were cleared by push_frame — exactly the information loss
    // the paper describes; NDroid's dvmInterpret hook restores them.
  }

  pending_calls_.push_back(PendingJavaCall{method, fp, result_addr});
  cpu.state().regs[0] = fp;
}

void Dvm::helper_interpret(arm::Cpu& cpu) {
  const Method* method = method_at(cpu.state().regs[0]);
  const GuestAddr fp = cpu.state().regs[1];
  if (method->is_builtin()) {
    std::vector<Slot> args(method->arg_count());
    const u16 first_in = method->registers_size - method->ins_size;
    for (u32 i = 0; i < args.size(); ++i) {
      args[i].value = stack_.reg_value(fp, static_cast<u16>(first_in + i));
      args[i].taint = stack_.reg_taint(fp, static_cast<u16>(first_in + i));
    }
    Slot ret = method->builtin(*this, args);
    if (!policy_.propagate_java) ret.taint = kTaintClear;
    retval_ = ret;
    return;
  }
  interpret(*method, fp);
}

void Dvm::helper_call_method_finish(arm::Cpu& cpu) {
  if (pending_calls_.empty()) {
    throw GuestFault("dvmCallMethod finish with no pending call");
  }
  const PendingJavaCall pending = pending_calls_.back();
  pending_calls_.pop_back();
  stack_.pop_frame();
  if (pending.result_addr != 0) {
    cpu.memory().write32(pending.result_addr, retval_.value);
  }
  cpu.state().regs[0] = retval_.value;
}

}  // namespace ndroid::dvm
