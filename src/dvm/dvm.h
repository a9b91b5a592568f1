// The mini Dalvik VM ("libdvm.so").
//
// Owns the class/method registry, the object heap, the indirect reference
// table, the TaintDroid-style interpreted stack, the bytecode interpreter
// with TaintDroid's propagation rules, and — critically for this paper —
// the JNI call bridge machinery:
//
//  * dvmCallJNIMethod (JNI entry, paper Listing 2): Java -> native. A guest
//    stub at a stable libdvm address marshals interleaved (value, taint)
//    args from the DVM stack into AAPCS registers and invokes the native
//    method; NDroid hooks the stub to build SourcePolicy records (§V-B).
//  * dvmCallMethodV/A + dvmInterpret (JNI exit, Table II): native -> Java.
//    Guest stubs whose *guest-level* call chain
//    Call*Method{,V,A} -> dvmCallMethod{V,A} -> dvmInterpret produces the
//    branch events the multilevel hooking conditions T1..T6 match (Fig. 5).
//  * MAF allocation functions (Table III): dvmAllocObject,
//    dvmCreateStringFromCstr/Unicode, dvmAllocArrayByClass,
//    dvmAllocPrimitiveArray — guest stubs returning real object addresses.
//
// Method structs are materialised in guest memory so hook engines can read
// name/shorty/class/flags the way NDroid reads them out of a real libdvm.
//
// The guest stubs are the same bytes in every Device, so they are emitted
// once per process (Dvm::image(), arm/guest_image.h); each Dvm copies the
// image's pages and registers its helper closures.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "arm/cpu.h"
#include "arm/guest_image.h"
#include "dvm/heap.h"
#include "dvm/method.h"
#include "dvm/stack.h"

namespace ndroid::dvm {

/// libdvm.so's place in the guest layout.
inline constexpr GuestAddr kLibdvmBase = 0x40000000;
inline constexpr u32 kLibdvmSize = 0x00040000;

/// Bump cursors over libdvm.so: guest stubs in the first 32 KiB, the data
/// area (strings, class mirrors, Method structs, the JNI table) after it.
struct LibdvmArena {
  GuestAddr stub_bump = kLibdvmBase;
  GuestAddr stub_end = kLibdvmBase + 0x8000;
  GuestAddr data_bump = kLibdvmBase + 0x8000;
  GuestAddr data_end = kLibdvmBase + kLibdvmSize;

  bool operator==(const LibdvmArena&) const = default;

  /// Writes `code` at the next (word-aligned) stub slot; returns its address.
  GuestAddr stub(mem::AddressSpace& memory, std::span<const u8> code);
  GuestAddr data(u32 size);
  GuestAddr cstr(mem::AddressSpace& memory, std::string_view s);
  /// Allocates a class mirror {char* descriptor, 0} plus its string.
  GuestAddr class_mirror(mem::AddressSpace& memory,
                         std::string_view descriptor);
};

/// A state of the libdvm.so region emitted once per process: its resident
/// pages, the arena cursors after the emitted stubs and data, and the
/// symbols it exports.
struct LibdvmImage {
  arm::ImagePages pages;
  LibdvmArena arena;
  std::map<std::string, GuestAddr> symbols;
};

/// The Dvm's own part of libdvm.so (Dvm::image()).
struct DvmImage {
  LibdvmImage libdvm;
  arm::HelperTable helpers;
  GuestAddr helper_end = 0;  // first helper address after these
  GuestAddr thread_self = 0;
  GuestAddr string_mirror = 0;
};

/// TaintDroid behaviour toggles (all on = TaintDroid as shipped; all off =
/// vanilla Android, the overhead baseline for Fig. 10).
struct TaintPolicy {
  /// Propagate taints through DVM bytecode (TaintDroid's core).
  bool propagate_java = true;
  /// "For native methods, Taintdroid taints the returned value of a JNI
  /// function if at least one parameter is tainted" (§IV).
  bool jni_ret_union = true;
};

/// A native->Java call prepared by dvmCallMethod* and consumed by
/// dvmInterpret (its frame is already allocated so hooks can taint it).
struct PendingJavaCall {
  const Method* method = nullptr;
  GuestAddr frame = 0;
  GuestAddr result_addr = 0;  // guest JValue out-slot (0 = discard)
};

/// Guest layout of a materialised Method struct (offsets hook engines use).
struct GuestMethodLayout {
  static constexpr u32 kInsns = 0;         // native entry point
  static constexpr u32 kShorty = 4;        // char* shorty
  static constexpr u32 kName = 8;          // char* name
  static constexpr u32 kClassDesc = 12;    // char* class descriptor
  static constexpr u32 kAccessFlags = 16;
  static constexpr u32 kRegistersSize = 20;
  static constexpr u32 kInsSize = 24;
  static constexpr u32 kSize = 28;
};

class Dvm {
 public:
  /// Loads libdvm.so from image() and registers its helpers; `cpu` must not
  /// have registered any helper yet.
  Dvm(arm::Cpu& cpu, GuestAddr heap_base, u32 heap_size, GuestAddr stack_base,
      u32 stack_size);

  Dvm(const Dvm&) = delete;
  Dvm& operator=(const Dvm&) = delete;

  /// libdvm.so's guest stubs, emitted once per process (thread-safe).
  static const DvmImage& image();

  /// Copies `image` into libdvm.so and adopts its arena and symbols. The
  /// image must extend the one loaded last (JniEnv layers the JNI functions
  /// on top of image() this way); throws std::logic_error if anything was
  /// allocated in libdvm.so since that load.
  void load_image(const LibdvmImage& image);

  // --- Class and method definition (our "dex loading") -------------------
  ClassObject* define_class(const std::string& descriptor);
  [[nodiscard]] ClassObject* find_class(std::string_view descriptor) const;
  /// jclass handle <-> ClassObject (classes are non-moving guest mirrors).
  [[nodiscard]] ClassObject* class_at(GuestAddr mirror) const;
  [[nodiscard]] GuestAddr class_mirror(const ClassObject* cls) const;

  Method* define_method(ClassObject* cls, std::string name, std::string shorty,
                        u32 access_flags, u16 registers_size,
                        std::vector<DInsn> code);
  Method* define_native(ClassObject* cls, std::string name, std::string shorty,
                        u32 access_flags, GuestAddr native_addr);
  Method* define_builtin(ClassObject* cls, std::string name,
                         std::string shorty, u32 access_flags,
                         std::function<Slot(Dvm&, std::vector<Slot>&)> fn);
  /// jmethodID (guest Method struct address) -> host Method.
  [[nodiscard]] Method* method_at(GuestAddr guest_method) const;

  /// Every registered native method, in definition order. The static
  /// pre-analysis layer lifts CFGs from exactly these JNI entry points —
  /// the same registration source dvmCallJNIMethod dispatches through.
  [[nodiscard]] std::vector<const Method*> native_methods() const;

  /// jfieldID: materialises a guest field-id struct on first use.
  GuestAddr field_id(ClassObject* cls, std::string_view name, bool is_static);
  struct FieldRef {
    ClassObject* cls = nullptr;
    const Field* field = nullptr;
    bool is_static = false;
  };
  [[nodiscard]] FieldRef decode_field_id(GuestAddr fid) const;

  // --- Components ---------------------------------------------------------
  Heap& heap() { return heap_; }
  IndirectRefTable& irt() { return irt_; }
  DvmStack& stack() { return stack_; }
  arm::Cpu& cpu() { return cpu_; }
  mem::AddressSpace& memory() { return cpu_.memory(); }
  TaintPolicy& policy() { return policy_; }

  Object* new_string(std::string utf) {
    return heap_.new_string(string_class_, std::move(utf));
  }
  [[nodiscard]] ClassObject* string_class() const { return string_class_; }

  // --- Execution -----------------------------------------------------------
  /// Calls a method from the host (app entry points, tests). Interpreted and
  /// builtin methods run directly; native methods go through the guest
  /// dvmCallJNIMethod stub so all hook surfaces fire.
  Slot call(const Method& method, std::vector<Slot> args);

  /// InterpSaveState: return value + taint of the last completed method.
  Slot& retval() { return retval_; }

  /// Pending exception (set by ThrowNew, cleared by kMoveException).
  Object* pending_exception = nullptr;

  // --- JNI-exit path (used by the JNIEnv stubs in src/jni) ----------------
  /// Address of the dvmCallMethodV or dvmCallMethodA stub.
  [[nodiscard]] GuestAddr call_method_stub(char kind) const;

  // --- Symbols (libdvm exports, for hook engines) --------------------------
  /// Looks up the image's exports, then stubs added with stub_alloc.
  [[nodiscard]] GuestAddr sym(const std::string& name) const;
  /// The loaded image's exports: one table shared by every Device.
  [[nodiscard]] const std::map<std::string, GuestAddr>& symbols() const {
    return image_->symbols;
  }

  // --- Guest data area (strings, scratch, JValues) -------------------------
  GuestAddr data_alloc(u32 size);
  GuestAddr data_cstr(std::string_view s);

  /// Code space inside the libdvm.so region for guest stubs added at run
  /// time. Registers `name` as a symbol of this Dvm only.
  GuestAddr stub_alloc(const std::string& name, std::span<const u8> code);

  /// Guest address the JNI functions pass as JNIEnv* (set by jni module).
  void set_jnienv_addr(GuestAddr addr) { jnienv_addr_ = addr; }
  [[nodiscard]] GuestAddr jnienv_addr() const { return jnienv_addr_; }

  // --- Instrumentation / stats ---------------------------------------------
  /// Per-bytecode observer (used to model DroidScope's DVM-reconstruction
  /// cost and for tracing).
  void set_dvm_insn_observer(std::function<void(const Method&, const DInsn&)> fn) {
    insn_observer_ = std::move(fn);
  }
  [[nodiscard]] u64 bytecodes_executed() const { return bytecodes_executed_; }

  /// Called whenever Dvm::call returns or a GuestFault unwinds it, with the
  /// DVM stack pointer it restored: every frame and native outs area below
  /// that address is gone. One observer; pass {} to clear.
  void set_unwind_observer(std::function<void(GuestAddr sp)> fn) {
    unwind_observer_ = std::move(fn);
  }

  /// Runs the semi-space copying GC (every object moves; IRT handles stay
  /// valid, stale direct pointers do not).
  u32 run_gc() { return heap_.gc(); }

 private:
  friend class Interpreter;

  static DvmImage emit_image();
  void bind_helpers();
  /// Host side of a class whose guest mirror already exists.
  ClassObject* add_class(const std::string& descriptor, GuestAddr mirror);
  GuestAddr materialise_method(Method& m);
  void register_method(ClassObject* cls, std::unique_ptr<Method> m);

  /// Interprets `method` whose frame is already set up at `fp`.
  void interpret(const Method& method, GuestAddr fp);
  /// The bytecode loop, with TaintDroid's propagation compiled in or out.
  template <bool kTaint>
  void run_method(const Method& method, GuestAddr fp);
  /// Dalvik's verifier, once per method before it first runs (or gets a
  /// frame): every register operand below registers_size and ins_size no
  /// larger than registers_size, so the interpreter never indexes outside
  /// its frame. Throws GuestFault naming the method.
  static void verify(const Method& method) {
    if (!method.verified) [[unlikely]] verify_slow(method);
  }
  static void verify_slow(const Method& method);

  /// Java -> native through the guest bridge stub.
  Slot invoke_native(const Method& method, const std::vector<Slot>& args);

  // Helper bodies (C++ behind guest stub addresses).
  void helper_call_jni_method(arm::Cpu& cpu);
  void helper_call_method_prepare(arm::Cpu& cpu, char kind);
  void helper_interpret(arm::Cpu& cpu);
  void helper_call_method_finish(arm::Cpu& cpu);

  arm::Cpu& cpu_;
  Heap heap_;
  IndirectRefTable irt_;
  DvmStack stack_;
  TaintPolicy policy_;
  /// Host recursion depth of interpret(): the guest DvmStack guard alone
  /// fires too late for small frames, since each nested interpreted invoke
  /// is also a host stack frame.
  u32 interp_depth_ = 0;

  std::map<std::string, std::unique_ptr<ClassObject>> classes_;
  std::map<GuestAddr, ClassObject*> class_by_mirror_;
  std::map<const ClassObject*, GuestAddr> mirror_by_class_;
  std::map<GuestAddr, Method*> method_by_guest_;
  std::map<GuestAddr, FieldRef> field_ids_;
  std::map<std::string, GuestAddr> field_id_cache_;

  const LibdvmImage* image_ = nullptr;  // loaded last (load_image)
  std::map<std::string, GuestAddr> local_symbols_;  // stub_alloc'd
  LibdvmArena arena_;
  GuestAddr jnienv_addr_ = 0;
  GuestAddr thread_self_addr_ = 0;
  GuestAddr jvalue_scratch_ = 0;

  ClassObject* string_class_ = nullptr;

  Slot retval_{};
  std::vector<PendingJavaCall> pending_calls_;

  std::function<void(const Method&, const DInsn&)> insn_observer_;
  std::function<void(GuestAddr)> unwind_observer_;
  u64 bytecodes_executed_ = 0;
};

}  // namespace ndroid::dvm
