// Dalvik object model with TaintDroid taint storage.
//
// Taint storage rules (paper §II-B "Taint Storage"):
//  * ArrayObject and StringObject (an array of chars) carry one taint label
//    *in the object*;
//  * class static fields and instance fields store taint labels interleaved
//    with the variables in the Class/Object instance data area;
//  * other objects are tracked through the taint of their references.
//
// Every object also has a *guest address* (its "real object address" / direct
// pointer) with payload bytes materialised in the dalvik-heap guest region —
// NDroid's logs identify objects by these addresses (paper Fig. 6:
// "dvmCreateStringFromCstr return 0x412a3320"), and the moving GC changes
// them (which is why JNI hands out indirect references, §II-A).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"

namespace ndroid::dvm {

class ClassObject;
struct Method;

enum class ObjKind : u8 { kString, kArray, kInstance };

/// One register-sized value plus its TaintDroid taint label (the interleaved
/// pair of paper Fig. 1).
struct Slot {
  u32 value = 0;
  Taint taint = kTaintClear;
};

class Object {
 public:
  Object(ObjKind kind, ClassObject* clazz) : kind_(kind), clazz_(clazz) {}

  [[nodiscard]] ObjKind kind() const { return kind_; }
  [[nodiscard]] ClassObject* clazz() const { return clazz_; }

  /// Direct pointer (guest address of the payload); changes under GC.
  [[nodiscard]] GuestAddr addr() const { return addr_; }
  void set_addr(GuestAddr addr) { addr_ = addr; }

  /// Object-level taint label (arrays/strings per TaintDroid).
  [[nodiscard]] Taint taint() const { return taint_; }
  void set_taint(Taint t) { taint_ = t; }
  void add_taint(Taint t) { taint_ |= t; }

  // --- String ------------------------------------------------------------
  [[nodiscard]] const std::string& utf() const { return utf_; }
  void set_utf(std::string s) { utf_ = std::move(s); }

  // --- Array -------------------------------------------------------------
  [[nodiscard]] u32 length() const { return length_; }
  [[nodiscard]] u32 elem_size() const { return elem_size_; }
  [[nodiscard]] bool elems_are_refs() const { return elems_are_refs_; }
  void init_array(u32 length, u32 elem_size, bool refs) {
    length_ = length;
    elem_size_ = elem_size;
    elems_are_refs_ = refs;
  }

  // --- Instance fields (interleaved value/taint slots) --------------------
  std::vector<Slot>& fields() { return fields_; }
  [[nodiscard]] const std::vector<Slot>& fields() const { return fields_; }

  /// Payload byte size in the guest heap.
  [[nodiscard]] u32 payload_size() const;

 private:
  ObjKind kind_;
  ClassObject* clazz_;
  GuestAddr addr_ = 0;
  Taint taint_ = kTaintClear;
  std::string utf_;
  u32 length_ = 0;
  u32 elem_size_ = 0;
  bool elems_are_refs_ = false;
  std::vector<Slot> fields_;
};

struct Field {
  std::string name;
  char type = 'I';  // shorty char: I Z B S C F L
  u32 index = 0;    // slot index within instance data / static area
};

class ClassObject {
 public:
  explicit ClassObject(std::string descriptor)
      : descriptor_(std::move(descriptor)) {}

  [[nodiscard]] const std::string& descriptor() const { return descriptor_; }

  Field& add_instance_field(std::string name, char type);
  Field& add_static_field(std::string name, char type);
  [[nodiscard]] const Field* find_instance_field(std::string_view name) const;
  [[nodiscard]] const Field* find_static_field(std::string_view name) const;

  [[nodiscard]] u32 instance_field_count() const {
    return static_cast<u32>(ifields_.size());
  }

  /// Static field storage (interleaved value/taint, like instance data).
  std::vector<Slot>& statics() { return statics_; }

  /// A copy with its own copy of every method (same guest Method structs,
  /// `clazz` pointing at the copy): how a Dvm changes a shared boot class.
  [[nodiscard]] std::unique_ptr<ClassObject> clone() const;

  void add_method(std::unique_ptr<Method> m);
  [[nodiscard]] Method* find_method(std::string_view name) const;
  [[nodiscard]] const std::vector<std::unique_ptr<Method>>& methods() const {
    return methods_;
  }

 private:
  std::string descriptor_;
  std::vector<Field> ifields_;
  std::vector<Field> sfields_;
  std::vector<Slot> statics_;
  std::vector<std::unique_ptr<Method>> methods_;
};

}  // namespace ndroid::dvm
