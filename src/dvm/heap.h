// Dalvik heap: guest-backed object storage with a semi-space copying
// (moving) GC.
//
// Objects have host-side descriptors (dvm::Object) and guest payloads in the
// dalvik-heap region, which is split into two semi-spaces; every collection
// evacuates all objects into the other half, so EVERY live object's direct
// pointer changes on every GC — the behaviour that makes JNI hand out
// indirect references (paper §II-A) and forces NDroid to key Java-object
// shadow taints by indirect reference rather than by address (§V-B).
//
// Payload layouts:
//   string:   [u32 taint][u32 length][utf8 bytes][NUL]
//   array:    [u32 taint][u32 length][elements...]  (refs as direct ptrs)
//   instance: [(u32 value, u32 taint) x nfields]    (TaintDroid interleaving)
//
// The leading taint word IS TaintDroid's "taint label in the array object"
// (§II-B) stored in guest memory — so when NDroid logs "add taint 514 to new
// string object@0x412a3320" (Fig. 6) it is genuinely writing the label the
// Java-context propagation rules will read back.
#pragma once

#include <deque>
#include <functional>
#include <unordered_map>

#include "dvm/indirect_ref_table.h"
#include "dvm/object.h"
#include "mem/address_space.h"

namespace ndroid::dvm {

class Heap {
 public:
  Heap(mem::AddressSpace& memory, GuestAddr base, u32 size);

  Object* new_string(ClassObject* string_cls, std::string utf);
  Object* new_array(ClassObject* array_cls, u32 length, u32 elem_size,
                    bool refs);
  Object* new_instance(ClassObject* cls);

  /// Object whose payload currently starts at `addr`, or nullptr. The last
  /// hit is memoised (the interpreter resolves the same array on every
  /// aget/aput); gc() clears the memo.
  [[nodiscard]] Object* object_at(GuestAddr addr) const {
    if (memo_obj_ != nullptr && memo_addr_ == addr) return memo_obj_;
    return object_at_slow(addr);
  }

  /// Rewrites an object's guest payload from its host-side state.
  void sync_payload(Object& obj);

  // Array element access through guest memory (values) + object taint.
  [[nodiscard]] u32 array_get(const Object& arr, u32 index) const;
  void array_set(Object& arr, u32 index, u32 value);
  [[nodiscard]] GuestAddr array_data_addr(const Object& arr) const {
    return arr.addr() + 8;
  }
  [[nodiscard]] GuestAddr string_data_addr(const Object& str) const {
    return str.addr() + 8;
  }

  /// TaintDroid object-level taint label, stored at payload offset 0 for
  /// strings/arrays. Instances carry taint on references/fields instead and
  /// always report clear here.
  [[nodiscard]] Taint object_taint(const Object& obj) const;
  void set_object_taint(Object& obj, Taint taint);
  void add_object_taint(Object& obj, Taint taint);

  /// Re-reads a string's characters from guest memory (native code may have
  /// been handed the buffer via GetStringCritical-style access).
  [[nodiscard]] std::string read_string(const Object& str) const;

  /// Copying collection: evacuates every object into the other semi-space,
  /// updating direct pointers (including refs held in ref-arrays and
  /// instance L-type fields) — and updating nothing else: stale direct
  /// pointers held elsewhere (native code!) become invalid, as on real
  /// Android. Returns the number of objects moved.
  u32 gc();

  /// Observer invoked per relocation: (object, old_addr, new_addr).
  void add_move_observer(
      std::function<void(const Object&, GuestAddr, GuestAddr)> fn) {
    move_observers_.push_back(std::move(fn));
  }

  [[nodiscard]] u64 objects_allocated() const { return objects_.size(); }
  [[nodiscard]] u32 bytes_in_use() const { return bump_ - space_base(); }
  [[nodiscard]] bool in_active_space(GuestAddr addr) const {
    return addr >= space_base() && addr < space_base() + half_size_;
  }

 private:
  [[nodiscard]] Object* object_at_slow(GuestAddr addr) const;
  GuestAddr alloc_payload(u32 size);
  void write_payload(Object& obj);
  [[nodiscard]] GuestAddr space_base() const {
    return region_start_ + (active_half_ ? half_size_ : 0);
  }

  mem::AddressSpace& memory_;
  GuestAddr region_start_;
  u32 half_size_;
  bool active_half_ = false;
  GuestAddr bump_;

  std::deque<Object> objects_;  // stable host addresses
  std::unordered_map<GuestAddr, Object*> by_addr_;
  mutable GuestAddr memo_addr_ = 0;
  mutable Object* memo_obj_ = nullptr;
  std::vector<std::function<void(const Object&, GuestAddr, GuestAddr)>>
      move_observers_;
};

}  // namespace ndroid::dvm
