#include "dvm/indirect_ref_table.h"

namespace ndroid::dvm {

IndirectRef IndirectRefTable::pop_frame(IndirectRef survivor) {
  if (frames_.empty() || frames_.back().native_call) {
    throw GuestFault("PopLocalFrame without a matching PushLocalFrame");
  }
  Object* surviving_obj = nullptr;
  if (survivor != 0 && is_valid(survivor)) {
    surviving_obj = entries_[index_of(survivor)].obj;
  }
  release_top_frame();
  if (surviving_obj != nullptr) {
    return add(surviving_obj, RefKind::kLocal);
  }
  return 0;
}

void IndirectRefTable::release_top_frame() {
  const u32 first = frames_.back().first_record;
  // Newest first, so the free list hands the slots out again in the order
  // this frame took them.
  for (u32 i = record_count(); i-- > first;) {
    if (holds_local(records_[i])) release(records_[i].index);
  }
  records_.resize(first);
  frames_.pop_back();
}

IndirectRef IndirectRefTable::add(Object* obj, RefKind kind) {
  const bool local = kind == RefKind::kLocal;
  if (local ? live_locals_ == kMaxLocals : live_globals_ == kMaxGlobals) {
    throw GuestFault(local ? "JNI local reference table overflow (max=512)"
                           : "JNI global reference table overflow "
                             "(max=51200)");
  }
  u32 index;
  if (free_.empty()) {
    index = static_cast<u32>(entries_.size());
    entries_.emplace_back();
  } else {
    index = free_.back();
    free_.pop_back();
  }
  // Bump the slot's serial so stale handles to its old occupant stop
  // validating.
  Entry& e = entries_[index];
  e.obj = obj;
  e.serial = (e.serial + 1) & 0xFFF;
  e.live = true;
  e.kind = kind;
  ++(local ? live_locals_ : live_globals_);
  if (local && !frames_.empty()) {
    records_.push_back(Record{index, e.serial});
  }
  return handle(index);
}

void IndirectRefTable::release(u32 index) {
  Entry& e = entries_[index];
  if (release_observer_) release_observer_(handle(index));
  e.live = false;
  --(e.kind == RefKind::kLocal ? live_locals_ : live_globals_);
  free_.push_back(index);
}

Object* IndirectRefTable::decode(IndirectRef ref) const {
  if (!is_valid(ref)) {
    throw GuestFault("dvmDecodeIndirectRef: stale or bogus reference 0x" +
                     std::to_string(ref));
  }
  return entries_[index_of(ref)].obj;
}

bool IndirectRefTable::is_valid(IndirectRef ref) const {
  if ((ref & 0x80000000u) == 0) return false;
  const u32 index = index_of(ref);
  if (index >= entries_.size()) return false;
  const Entry& e = entries_[index];
  return e.live && e.serial == serial_of(ref) && e.kind == kind_of(ref);
}

void IndirectRefTable::remove(IndirectRef ref) {
  if (is_valid(ref)) release(index_of(ref));
}

}  // namespace ndroid::dvm
