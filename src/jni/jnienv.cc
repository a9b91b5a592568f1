#include "jni/jnienv.h"

#include <stdexcept>
#include <tuple>

#include "arm/assembler.h"

namespace ndroid::jni {

using arm::Assembler;
using arm::LR;
using arm::PC;
using arm::R;
using dvm::Object;

namespace {

/// A helper-backed JNI function. Most get a one-instruction guest landing
/// pad inside libdvm.so so their addresses look like library code; the pad
/// tail-calls the helper. `direct` ones publish the helper address itself:
/// the 5-argument region functions, whose helper must see the caller's SP
/// unmodified to read the stacked argument.
struct HelperFn {
  const char* name;
  JniFn index;
  bool direct = false;
};

/// In helper-registration order (emit_image reserves, bind_helpers binds).
constexpr HelperFn kHelperFns[] = {
    // Class / method / field resolution.
    {"FindClass", JniFn::kFindClass},
    {"GetMethodID", JniFn::kGetMethodID},
    {"GetStaticMethodID", JniFn::kGetStaticMethodID},
    {"GetFieldID", JniFn::kGetFieldID},
    {"GetStaticFieldID", JniFn::kGetStaticFieldID},
    // Strings and arrays.
    {"GetStringLength", JniFn::kGetStringLength},
    {"GetStringUTFLength", JniFn::kGetStringUTFLength},
    {"GetStringUTFChars", JniFn::kGetStringUTFChars},
    {"ReleaseStringUTFChars", JniFn::kReleaseStringUTFChars},
    {"GetArrayLength", JniFn::kGetArrayLength},
    {"GetIntArrayElements", JniFn::kGetIntArrayElements},
    {"GetByteArrayElements", JniFn::kGetByteArrayElements},
    {"ReleaseIntArrayElements", JniFn::kReleaseIntArrayElements},
    {"ReleaseByteArrayElements", JniFn::kReleaseByteArrayElements},
    {"GetIntArrayRegion", JniFn::kGetIntArrayRegion, true},
    {"SetIntArrayRegion", JniFn::kSetIntArrayRegion, true},
    {"GetByteArrayRegion", JniFn::kGetByteArrayRegion, true},
    {"SetByteArrayRegion", JniFn::kSetByteArrayRegion, true},
    {"GetObjectArrayElement", JniFn::kGetObjectArrayElement},
    {"SetObjectArrayElement", JniFn::kSetObjectArrayElement},
    // Field access (Table IV).
    {"GetObjectField", JniFn::kGetObjectField},
    {"GetIntField", JniFn::kGetIntField},
    {"GetBooleanField", JniFn::kGetBooleanField},
    {"GetByteField", JniFn::kGetByteField},
    {"GetCharField", JniFn::kGetCharField},
    {"GetShortField", JniFn::kGetShortField},
    {"GetFloatField", JniFn::kGetFloatField},
    {"SetObjectField", JniFn::kSetObjectField},
    {"SetIntField", JniFn::kSetIntField},
    {"SetBooleanField", JniFn::kSetBooleanField},
    {"SetByteField", JniFn::kSetByteField},
    {"SetCharField", JniFn::kSetCharField},
    {"SetShortField", JniFn::kSetShortField},
    {"SetFloatField", JniFn::kSetFloatField},
    {"GetStaticObjectField", JniFn::kGetStaticObjectField},
    {"GetStaticIntField", JniFn::kGetStaticIntField},
    {"SetStaticObjectField", JniFn::kSetStaticObjectField},
    {"SetStaticIntField", JniFn::kSetStaticIntField},
    // References / exceptions.
    {"ExceptionOccurred", JniFn::kExceptionOccurred},
    {"ExceptionClear", JniFn::kExceptionClear},
    {"DeleteLocalRef", JniFn::kDeleteLocalRef},
    {"NewGlobalRef", JniFn::kNewGlobalRef},
    {"DeleteGlobalRef", JniFn::kDeleteGlobalRef},
    {"GetObjectClass", JniFn::kGetObjectClass},
    {"PushLocalFrame", JniFn::kPushLocalFrame},
    {"PopLocalFrame", JniFn::kPopLocalFrame},
    {"IsSameObject", JniFn::kIsSameObject},
};

// Helpers the guest stubs call internally, registered after kHelperFns in
// this order. The object-creation and Call*Method stubs each have their own
// local-ref helper.
constexpr const char* kNewObjectToRef = "NewObject:to_local_ref";
constexpr const char* kCallMethodToRef = "CallMethod:to_local_ref";
constexpr const char* kInitException = "initException:build";

Object* decode_or_null(dvm::Dvm& dvm, u32 iref) {
  return iref == 0 ? nullptr : dvm.irt().decode(iref);
}

u32 to_local_ref(dvm::Dvm& dvm, u32 real_addr) {
  if (real_addr == 0) return 0;
  Object* obj = dvm.heap().object_at(real_addr);
  if (obj == nullptr) throw GuestFault("to_local_ref: not an object address");
  return dvm.irt().add(obj);
}

}  // namespace

JniEnv::JniEnv(dvm::Dvm& dvm, os::Kernel& kernel)
    : dvm_(dvm), kernel_(kernel) {
  const JniImage& img = image();
  dvm_.load_image(img.libdvm);
  bind_helpers();
  dvm_.set_jnienv_addr(img.env_addr);
}

const JniImage& JniEnv::image() {
  static const JniImage image = emit_image();
  return image;
}

GuestAddr JniEnv::fn(const std::string& name) const {
  const auto& symbols = image().symbols;
  auto it = symbols.find(name);
  if (it == symbols.end()) throw GuestFault("no JNI function: " + name);
  return it->second;
}

GuestAddr JniEnv::fn(JniFn index) const {
  return dvm_.memory().read32(image().table_addr +
                              4 * static_cast<u32>(index));
}

// ---------------------------------------------------------------------------
// Helper bodies (per JniEnv)
// ---------------------------------------------------------------------------

void JniEnv::bind_helpers() {
  const arm::HelperTable& t = image().helpers;
  arm::Cpu& cpu = dvm_.cpu();
  for (const HelperFn& f : kHelperFns) {
    arm::bind_helper(cpu, t, f.name, helper_for(f.index));
  }
  auto& dvm = dvm_;
  auto to_ref = [&dvm](arm::Cpu& c) {
    c.state().regs[0] = to_local_ref(dvm, c.state().regs[0]);
  };
  arm::bind_helper(cpu, t, kNewObjectToRef, to_ref);
  arm::bind_helper(cpu, t, kCallMethodToRef, to_ref);

  // initException(jclass, msg_string_real_addr): builds the exception object
  // around the already-created message string and sets it pending.
  arm::bind_helper(cpu, t, kInitException, [&dvm](arm::Cpu& c) {
    dvm::ClassObject* cls = dvm.class_at(c.state().regs[0]);
    Object* msg = dvm.heap().object_at(c.state().regs[1]);
    if (cls->find_instance_field("message") == nullptr) {
      cls->add_instance_field("message", 'L');
    }
    Object* exc = dvm.heap().new_instance(cls);
    const dvm::Field* f = cls->find_instance_field("message");
    exc->fields().at(f->index).value = msg ? msg->addr() : 0;
    dvm.heap().sync_payload(*exc);
    dvm.pending_exception = exc;
    c.state().regs[0] = exc->addr();
  });
}

arm::Helper JniEnv::helper_for(JniFn index) {
  auto& dvm = dvm_;
  switch (index) {
    // --- Class / method / field resolution -------------------------------
    case JniFn::kFindClass:
      return [&dvm](arm::Cpu& c) {
        const std::string desc = c.memory().read_cstr(c.state().regs[1]);
        // JNI accepts both "java/lang/String" and "Ljava/lang/String;".
        std::string norm = desc;
        if (!norm.empty() && norm.front() != 'L' && norm.front() != '[') {
          norm = "L" + norm + ";";
        }
        dvm::ClassObject* cls = dvm.find_class(norm);
        c.state().regs[0] = cls ? dvm.class_mirror(cls) : 0;
      };
    case JniFn::kGetMethodID:
    case JniFn::kGetStaticMethodID:
      return [&dvm](arm::Cpu& c) {
        dvm::ClassObject* cls = dvm.class_at(c.state().regs[1]);
        const std::string name = c.memory().read_cstr(c.state().regs[2]);
        dvm::Method* m = cls->find_method(name);
        c.state().regs[0] = m ? m->guest_addr : 0;
      };
    case JniFn::kGetFieldID:
    case JniFn::kGetStaticFieldID: {
      const bool is_static = index == JniFn::kGetStaticFieldID;
      return [&dvm, is_static](arm::Cpu& c) {
        dvm::ClassObject* cls = dvm.class_at(c.state().regs[1]);
        const std::string name = c.memory().read_cstr(c.state().regs[2]);
        c.state().regs[0] = dvm.field_id(cls, name, is_static);
      };
    }

    // --- Strings and arrays (helper-backed accessors) --------------------
    case JniFn::kGetStringLength:
    case JniFn::kGetStringUTFLength:  // bytes; strings are stored as UTF-8
      return [&dvm](arm::Cpu& c) {
        Object* s = decode_or_null(dvm, c.state().regs[1]);
        c.state().regs[0] =
            s ? static_cast<u32>(dvm.heap().read_string(*s).size()) : 0;
      };
    case JniFn::kGetStringUTFChars:
      return [&dvm, this](arm::Cpu& c) {
        Object* s = decode_or_null(dvm, c.state().regs[1]);
        if (s == nullptr) {
          c.state().regs[0] = 0;
          return;
        }
        const std::string utf = dvm.heap().read_string(*s);
        const GuestAddr buf =
            kernel_.heap().alloc(static_cast<u32>(utf.size()) + 1);
        c.memory().write_cstr(buf, utf);
        if (const u32 is_copy = c.state().regs[2]; is_copy != 0) {
          c.memory().write8(is_copy, 1);
        }
        c.state().regs[0] = buf;
        // Taint of the string object is NOT propagated to the buffer here —
        // TaintDroid's gap; NDroid's hook on this function repairs it.
      };
    case JniFn::kReleaseStringUTFChars:
      return [this](arm::Cpu& c) {
        kernel_.heap().free(c.state().regs[2]);
        c.state().regs[0] = 0;
      };
    case JniFn::kGetArrayLength:
      return [&dvm](arm::Cpu& c) {
        Object* a = decode_or_null(dvm, c.state().regs[1]);
        c.state().regs[0] = a ? a->length() : 0;
      };
    case JniFn::kGetIntArrayElements:
    case JniFn::kGetByteArrayElements:
      return [&dvm, this](arm::Cpu& c) {
        Object* a = decode_or_null(dvm, c.state().regs[1]);
        if (a == nullptr) {
          c.state().regs[0] = 0;
          return;
        }
        const u32 bytes = a->length() * a->elem_size();
        const GuestAddr buf = kernel_.heap().alloc(bytes);
        c.memory().copy(buf, dvm.heap().array_data_addr(*a), bytes);
        if (const u32 is_copy = c.state().regs[2]; is_copy != 0) {
          c.memory().write8(is_copy, 1);
        }
        c.state().regs[0] = buf;
      };
    case JniFn::kReleaseIntArrayElements:
    case JniFn::kReleaseByteArrayElements:
      return [&dvm, this](arm::Cpu& c) {
        Object* a = decode_or_null(dvm, c.state().regs[1]);
        const GuestAddr buf = c.state().regs[2];
        const u32 mode = c.state().regs[3];
        if (a != nullptr && buf != 0 && mode != kJniAbort) {
          c.memory().copy(dvm.heap().array_data_addr(*a), buf,
                          a->length() * a->elem_size());
        }
        if (mode != kJniCommit) kernel_.heap().free(buf);
        c.state().regs[0] = 0;
      };
    case JniFn::kGetIntArrayRegion:
    case JniFn::kSetIntArrayRegion:
    case JniFn::kGetByteArrayRegion:
    case JniFn::kSetByteArrayRegion: {
      // 5 args; the 5th (the buffer) is on the native stack.
      const bool set = index == JniFn::kSetIntArrayRegion ||
                       index == JniFn::kSetByteArrayRegion;
      return [&dvm, set](arm::Cpu& c) {
        Object* a = decode_or_null(dvm, c.state().regs[1]);
        if (a == nullptr) return;
        const u32 start = c.state().regs[2];
        const u32 len = c.state().regs[3];
        const GuestAddr buf = c.memory().read32(c.state().sp());
        if (start + len > a->length()) {
          throw GuestFault("ArrayIndexOutOfBounds in array region");
        }
        const GuestAddr data =
            dvm.heap().array_data_addr(*a) + start * a->elem_size();
        const u32 bytes = len * a->elem_size();
        if (set) {
          c.memory().copy(data, buf, bytes);
        } else {
          c.memory().copy(buf, data, bytes);
        }
        c.state().regs[0] = 0;
      };
    }
    case JniFn::kGetObjectArrayElement:
      return [&dvm](arm::Cpu& c) {
        Object* a = decode_or_null(dvm, c.state().regs[1]);
        if (a == nullptr) {
          c.state().regs[0] = 0;
          return;
        }
        const u32 direct = dvm.heap().array_get(*a, c.state().regs[2]);
        c.state().regs[0] = to_local_ref(dvm, direct);
      };
    case JniFn::kSetObjectArrayElement:
      return [&dvm](arm::Cpu& c) {
        Object* a = decode_or_null(dvm, c.state().regs[1]);
        Object* v = decode_or_null(dvm, c.state().regs[3]);
        if (a != nullptr) {
          dvm.heap().array_set(*a, c.state().regs[2], v ? v->addr() : 0);
        }
        c.state().regs[0] = 0;
      };

    // --- Field access (Table IV) -----------------------------------------
    case JniFn::kGetObjectField:
    case JniFn::kGetIntField:
    case JniFn::kGetBooleanField:
    case JniFn::kGetByteField:
    case JniFn::kGetCharField:
    case JniFn::kGetShortField:
    case JniFn::kGetFloatField: {
      const bool to_ref = index == JniFn::kGetObjectField;
      return [&dvm, to_ref](arm::Cpu& c) {
        Object* obj = decode_or_null(dvm, c.state().regs[1]);
        const auto fr = dvm.decode_field_id(c.state().regs[2]);
        if (obj == nullptr) throw GuestFault("Get*Field on null object");
        const dvm::Slot& slot = obj->fields().at(fr.field->index);
        c.state().regs[0] =
            to_ref ? to_local_ref(dvm, slot.value) : slot.value;
      };
    }
    case JniFn::kSetObjectField:
    case JniFn::kSetIntField:
    case JniFn::kSetBooleanField:
    case JniFn::kSetByteField:
    case JniFn::kSetCharField:
    case JniFn::kSetShortField:
    case JniFn::kSetFloatField: {
      const bool from_ref = index == JniFn::kSetObjectField;
      return [&dvm, from_ref](arm::Cpu& c) {
        Object* obj = decode_or_null(dvm, c.state().regs[1]);
        const auto fr = dvm.decode_field_id(c.state().regs[2]);
        if (obj == nullptr) throw GuestFault("Set*Field on null object");
        dvm::Slot& slot = obj->fields().at(fr.field->index);
        const u32 raw = c.state().regs[3];
        slot.value =
            from_ref && raw != 0 ? dvm.irt().decode(raw)->addr() : raw;
        // Taint slot untouched: native-side taints are invisible to the DVM
        // (the case 1'/3 gap). NDroid hooks Set*Field to write the taint.
        dvm.heap().sync_payload(*obj);
        c.state().regs[0] = 0;
      };
    }
    case JniFn::kGetStaticObjectField:
      return [&dvm](arm::Cpu& c) {
        const auto fr = dvm.decode_field_id(c.state().regs[2]);
        const dvm::Slot& slot = fr.cls->statics().at(fr.field->index);
        c.state().regs[0] = to_local_ref(dvm, slot.value);
      };
    case JniFn::kGetStaticIntField:
      return [&dvm](arm::Cpu& c) {
        const auto fr = dvm.decode_field_id(c.state().regs[2]);
        c.state().regs[0] = fr.cls->statics().at(fr.field->index).value;
      };
    case JniFn::kSetStaticObjectField:
      return [&dvm](arm::Cpu& c) {
        const auto fr = dvm.decode_field_id(c.state().regs[2]);
        const u32 raw = c.state().regs[3];
        fr.cls->statics().at(fr.field->index).value =
            raw == 0 ? 0 : dvm.irt().decode(raw)->addr();
        c.state().regs[0] = 0;
      };
    case JniFn::kSetStaticIntField:
      return [&dvm](arm::Cpu& c) {
        const auto fr = dvm.decode_field_id(c.state().regs[2]);
        fr.cls->statics().at(fr.field->index).value = c.state().regs[3];
        c.state().regs[0] = 0;
      };

    // --- References / exceptions -----------------------------------------
    case JniFn::kExceptionOccurred:
      return [&dvm](arm::Cpu& c) {
        Object* exc = dvm.pending_exception;
        c.state().regs[0] = exc ? dvm.irt().add(exc) : 0;
      };
    case JniFn::kExceptionClear:
      return [&dvm](arm::Cpu& c) {
        dvm.pending_exception = nullptr;
        c.state().regs[0] = 0;
      };
    case JniFn::kDeleteLocalRef:
    case JniFn::kDeleteGlobalRef: {
      // Each deletes only its own kind, as Dalvik's per-kind tables do.
      const dvm::RefKind kind = index == JniFn::kDeleteLocalRef
                                    ? dvm::RefKind::kLocal
                                    : dvm::RefKind::kGlobal;
      return [&dvm, kind](arm::Cpu& c) {
        const u32 ref = c.state().regs[1];
        if (dvm::IndirectRefTable::kind_of(ref) == kind) dvm.irt().remove(ref);
        c.state().regs[0] = 0;
      };
    }
    case JniFn::kNewGlobalRef:
      return [&dvm](arm::Cpu& c) {
        Object* obj = decode_or_null(dvm, c.state().regs[1]);
        c.state().regs[0] =
            obj ? dvm.irt().add(obj, dvm::RefKind::kGlobal) : 0;
      };
    case JniFn::kGetObjectClass:
      return [&dvm](arm::Cpu& c) {
        Object* obj = decode_or_null(dvm, c.state().regs[1]);
        c.state().regs[0] =
            obj && obj->clazz() ? dvm.class_mirror(obj->clazz()) : 0;
      };
    case JniFn::kPushLocalFrame:
      return [&dvm](arm::Cpu& c) {
        dvm.irt().push_frame();
        c.state().regs[0] = 0;  // JNI_OK
      };
    case JniFn::kPopLocalFrame:
      return [&dvm](arm::Cpu& c) {
        c.state().regs[0] = dvm.irt().pop_frame(c.state().regs[1]);
      };
    case JniFn::kIsSameObject:
      return [&dvm](arm::Cpu& c) {
        Object* a = decode_or_null(dvm, c.state().regs[1]);
        Object* b = decode_or_null(dvm, c.state().regs[2]);
        c.state().regs[0] = a == b ? 1 : 0;
      };
    default:
      throw std::logic_error("JNI function is not helper-backed");
  }
}

// ---------------------------------------------------------------------------
// Guest code (emitted once per process)
// ---------------------------------------------------------------------------

JniImage JniEnv::emit_image() {
  const dvm::DvmImage& base = dvm::Dvm::image();
  arm::ImageBuilder b(base.helper_end);
  mem::AddressSpace& memory = b.memory();
  base.libdvm.pages.stamp(memory);
  JniImage img;
  img.libdvm.arena = base.libdvm.arena;
  img.libdvm.symbols = base.libdvm.symbols;
  dvm::LibdvmArena& arena = img.libdvm.arena;
  const auto dvm_sym = [&](const char* name) {
    return img.libdvm.symbols.at(name);
  };
  auto helper = [&](const char* name) {
    return b.reserve_helper(img.helpers, name);
  };
  auto stub_alloc = [&](const std::string& name, Assembler& a) {
    const GuestAddr addr = arena.stub(memory, a.finish());
    img.libdvm.symbols[name] = addr;
    return addr;
  };
  auto publish = [&](const std::string& name, JniFn index, GuestAddr addr) {
    img.symbols[name] = addr;
    memory.write32(img.table_addr + 4 * static_cast<u32>(index), addr);
  };

  // JNIEnv* -> table pointer -> function pointers.
  img.table_addr = arena.data(4 * static_cast<u32>(JniFn::kCount));
  img.env_addr = arena.data(4);
  memory.write32(img.env_addr, img.table_addr);

  for (const HelperFn& f : kHelperFns) {
    const GuestAddr h = helper(f.name);
    if (f.direct) {
      publish(f.name, f.index, h);
      continue;
    }
    Assembler a(0);
    a.push({LR});
    a.call(h);
    a.pop({PC});
    publish(f.name, f.index, stub_alloc(f.name, a));
  }

  // --- Object creation: NOF stubs wrapping MAF guest calls (Table III) ----
  GuestAddr h_to_ref = helper(kNewObjectToRef);

  // NewStringUTF(env, cstr) -> dvmCreateStringFromCstr(cstr) -> iref.
  {
    Assembler a(0);
    a.push({LR});
    a.mov(R(0), R(1));
    a.call(dvm_sym("dvmCreateStringFromCstr"));
    a.call(h_to_ref);
    a.pop({PC});
    publish("NewStringUTF", JniFn::kNewStringUTF,
            stub_alloc("NewStringUTF", a));
  }

  // NewString(env, jchar*, len) -> dvmCreateStringFromUnicode.
  {
    Assembler a(0);
    a.push({LR});
    a.mov(R(0), R(1));
    a.mov(R(1), R(2));
    a.call(dvm_sym("dvmCreateStringFromUnicode"));
    a.call(h_to_ref);
    a.pop({PC});
    publish("NewString", JniFn::kNewString, stub_alloc("NewString", a));
  }

  // NewObject{,V,A}(env, jclass, ctor, args...) -> dvmAllocObject.
  // Constructor invocation is elided (scenario classes use default init).
  for (auto [name, idx] :
       std::initializer_list<std::pair<const char*, JniFn>>{
           {"NewObject", JniFn::kNewObject},
           {"NewObjectV", JniFn::kNewObjectV},
           {"NewObjectA", JniFn::kNewObjectA}}) {
    Assembler a(0);
    a.push({LR});
    a.mov(R(0), R(1));
    a.call(dvm_sym("dvmAllocObject"));
    a.call(h_to_ref);
    a.pop({PC});
    publish(name, idx, stub_alloc(name, a));
  }

  // NewObjectArray(env, len, jclass, init) -> dvmAllocArrayByClass(cls, len).
  {
    Assembler a(0);
    a.push({LR});
    a.mov(R(0), R(2));  // class
    // r1 already = len
    a.call(dvm_sym("dvmAllocArrayByClass"));
    a.call(h_to_ref);
    a.pop({PC});
    publish("NewObjectArray", JniFn::kNewObjectArray,
            stub_alloc("NewObjectArray", a));
  }

  // New<Prim>Array(env, len) -> dvmAllocPrimitiveArray(elem_size, len).
  for (auto [name, idx, elem_size] :
       std::initializer_list<std::tuple<const char*, JniFn, u32>>{
           {"NewIntArray", JniFn::kNewIntArray, 4},
           {"NewByteArray", JniFn::kNewByteArray, 1},
           {"NewCharArray", JniFn::kNewCharArray, 2},
           {"NewBooleanArray", JniFn::kNewBooleanArray, 1}}) {
    Assembler a(0);
    a.push({LR});
    a.mov_imm(R(0), elem_size);
    // r1 already = len
    a.call(dvm_sym("dvmAllocPrimitiveArray"));
    a.call(h_to_ref);
    a.pop({PC});
    publish(name, idx, stub_alloc(name, a));
  }

  // --- Call*Method family (Table II) --------------------------------------
  h_to_ref = helper(kCallMethodToRef);

  // Call<Kind><Type>Method<Form>(env, obj|cls, methodID, args_ptr):
  // marshals to dvmCallMethod{V,A}(method, receiver_iref, &jvalue, args).
  // Per Table II, the plain and V forms route to dvmCallMethodV and the A
  // form to dvmCallMethodA.
  for (const char* kind : {"", "Nonvirtual", "Static"}) {
    for (const char* type : {"Void", "Int", "Object"}) {
      for (const char* form : {"", "V", "A"}) {
        const std::string name =
            std::string("Call") + kind + type + "Method" + form;
        const bool is_static = kind[0] == 'S';
        const bool ref_result = type[0] == 'O';

        Assembler a(0);
        a.push({R(4), LR});
        a.sub_imm(arm::SP, arm::SP, 8);  // JValue result slot
        a.mov(R(4), R(1));               // receiver iref (or jclass)
        a.mov(R(0), R(2));               // methodID
        if (is_static) {
          a.mov_imm(R(1), 0);            // statics ignore the receiver
        } else {
          a.mov(R(1), R(4));
        }
        a.mov(R(2), arm::SP);            // result ptr
        // r3 already = args_ptr
        a.call(dvm_sym(form[0] == 'A' ? "dvmCallMethodA" : "dvmCallMethodV"));
        a.ldr(R(0), arm::SP, 0);
        a.add_imm(arm::SP, arm::SP, 8);
        if (ref_result) a.call(h_to_ref);
        a.pop({R(4), PC});

        const u32 base_idx = static_cast<u32>(JniFn::kCallVoidMethod);
        const u32 kind_off = kind[0] == 'N' ? 9 : (kind[0] == 'S' ? 18 : 0);
        const u32 type_off = type[0] == 'I' ? 3 : (type[0] == 'O' ? 6 : 0);
        const u32 form_off = form[0] == 'V' ? 1 : (form[0] == 'A' ? 2 : 0);
        publish(name,
                static_cast<JniFn>(base_idx + kind_off + type_off + form_off),
                stub_alloc(name, a));
      }
    }
  }

  // --- ThrowNew -> initException -> dvmCreateStringFromCstr ----------------
  const GuestAddr h_init_exc = helper(kInitException);

  // initException stub: (jclass r0, msg_cstr r1)
  GuestAddr init_exception_addr;
  {
    Assembler a(0);
    a.push({R(4), LR});
    a.mov(R(4), R(0));  // save class
    a.mov(R(0), R(1));  // cstr
    a.call(dvm_sym("dvmCreateStringFromCstr"));
    a.mov(R(1), R(0));  // msg string real addr
    a.mov(R(0), R(4));  // class
    a.call(h_init_exc);
    a.pop({R(4), PC});
    init_exception_addr = stub_alloc("initException", a);
    img.symbols["initException"] = init_exception_addr;
  }

  // ThrowNew(env, jclass, msg_cstr) -> initException(jclass, msg).
  {
    Assembler a(0);
    a.push({LR});
    a.mov(R(0), R(1));
    a.mov(R(1), R(2));
    a.call(init_exception_addr);
    a.mov_imm(R(0), 0);  // JNI_OK
    a.pop({PC});
    publish("ThrowNew", JniFn::kThrowNew, stub_alloc("ThrowNew", a));
  }

  img.libdvm.pages = b.capture(dvm::kLibdvmBase, dvm::kLibdvmSize);
  return img;
}

}  // namespace ndroid::jni
