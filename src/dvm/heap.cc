#include "dvm/heap.h"

#include "dvm/method.h"

namespace ndroid::dvm {

u32 Object::payload_size() const {
  switch (kind_) {
    case ObjKind::kString:
      return 8 + static_cast<u32>(utf_.size()) + 1;
    case ObjKind::kArray:
      return 8 + length_ * elem_size_;
    case ObjKind::kInstance:
      return static_cast<u32>(fields_.size()) * 8;
  }
  return 0;
}

Field& ClassObject::add_instance_field(std::string name, char type) {
  ifields_.push_back(Field{std::move(name), type,
                           static_cast<u32>(ifields_.size())});
  return ifields_.back();
}

Field& ClassObject::add_static_field(std::string name, char type) {
  sfields_.push_back(Field{std::move(name), type,
                           static_cast<u32>(sfields_.size())});
  statics_.push_back(Slot{});
  return sfields_.back();
}

const Field* ClassObject::find_instance_field(std::string_view name) const {
  for (const Field& f : ifields_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

const Field* ClassObject::find_static_field(std::string_view name) const {
  for (const Field& f : sfields_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

void ClassObject::add_method(std::unique_ptr<Method> m) {
  methods_.push_back(std::move(m));
}

Method* ClassObject::find_method(std::string_view name) const {
  for (const auto& m : methods_) {
    if (m->name == name) return m.get();
  }
  return nullptr;
}

Heap::Heap(mem::AddressSpace& memory, GuestAddr base, u32 size)
    : memory_(memory),
      region_start_(base),
      half_size_(size / 2),
      bump_(base) {}

GuestAddr Heap::alloc_payload(u32 size) {
  const GuestAddr addr = bump_;
  bump_ += (size + 7) & ~7u;
  if (bump_ > space_base() + half_size_) {
    throw GuestFault("dalvik heap exhausted");
  }
  return addr;
}

void Heap::write_payload(Object& obj) {
  const GuestAddr a = obj.addr();
  switch (obj.kind()) {
    case ObjKind::kString: {
      memory_.write32(a, obj.taint());
      memory_.write32(a + 4, static_cast<u32>(obj.utf().size()));
      memory_.write_cstr(a + 8, obj.utf());
      break;
    }
    case ObjKind::kArray:
      memory_.write32(a, obj.taint());
      memory_.write32(a + 4, obj.length());
      break;
    case ObjKind::kInstance: {
      u32 off = 0;
      for (const Slot& s : obj.fields()) {
        memory_.write32(a + off, s.value);
        memory_.write32(a + off + 4, s.taint);
        off += 8;
      }
      break;
    }
  }
}

void Heap::sync_payload(Object& obj) { write_payload(obj); }

Object* Heap::new_string(ClassObject* string_cls, std::string utf) {
  objects_.emplace_back(ObjKind::kString, string_cls);
  Object& obj = objects_.back();
  obj.set_utf(std::move(utf));
  obj.set_addr(alloc_payload(obj.payload_size()));
  write_payload(obj);
  by_addr_[obj.addr()] = &obj;
  return &obj;
}

Object* Heap::new_array(ClassObject* array_cls, u32 length, u32 elem_size,
                        bool refs) {
  objects_.emplace_back(ObjKind::kArray, array_cls);
  Object& obj = objects_.back();
  obj.init_array(length, elem_size, refs);
  obj.set_addr(alloc_payload(obj.payload_size()));
  write_payload(obj);
  by_addr_[obj.addr()] = &obj;
  return &obj;
}

Object* Heap::new_instance(ClassObject* cls) {
  objects_.emplace_back(ObjKind::kInstance, cls);
  Object& obj = objects_.back();
  obj.fields().resize(cls->instance_field_count());
  obj.set_addr(alloc_payload(std::max<u32>(obj.payload_size(), 8)));
  write_payload(obj);
  by_addr_[obj.addr()] = &obj;
  return &obj;
}

Object* Heap::object_at_slow(GuestAddr addr) const {
  auto it = by_addr_.find(addr);
  if (it == by_addr_.end()) return nullptr;
  memo_addr_ = addr;
  memo_obj_ = it->second;
  return it->second;
}

Taint Heap::object_taint(const Object& obj) const {
  if (obj.kind() == ObjKind::kInstance) return kTaintClear;
  return memory_.read32(obj.addr());
}

void Heap::set_object_taint(Object& obj, Taint taint) {
  if (obj.kind() == ObjKind::kInstance) return;
  obj.set_taint(taint);  // host mirror, survives payload rewrites
  memory_.write32(obj.addr(), taint);
}

void Heap::add_object_taint(Object& obj, Taint taint) {
  set_object_taint(obj, object_taint(obj) | taint);
}

std::string Heap::read_string(const Object& str) const {
  const u32 len = memory_.read32(str.addr() + 4);
  std::string out;
  out.reserve(len);
  for (u32 i = 0; i < len; ++i) {
    out.push_back(static_cast<char>(memory_.read8(str.addr() + 8 + i)));
  }
  return out;
}

u32 Heap::array_get(const Object& arr, u32 index) const {
  if (index >= arr.length()) throw GuestFault("array index out of bounds");
  const GuestAddr elem = array_data_addr(arr) + index * arr.elem_size();
  switch (arr.elem_size()) {
    case 1: return memory_.read8(elem);
    case 2: return memory_.read16(elem);
    default: return memory_.read32(elem);
  }
}

void Heap::array_set(Object& arr, u32 index, u32 value) {
  if (index >= arr.length()) throw GuestFault("array index out of bounds");
  const GuestAddr elem = array_data_addr(arr) + index * arr.elem_size();
  switch (arr.elem_size()) {
    case 1: memory_.write8(elem, static_cast<u8>(value)); break;
    case 2: memory_.write16(elem, static_cast<u16>(value)); break;
    default: memory_.write32(elem, value); break;
  }
}

u32 Heap::gc() {
  // Semi-space evacuation: every object is considered live (scenario apps
  // keep all allocations reachable; the interesting effect is relocation)
  // and is copied into the other half, so every direct pointer changes.
  std::unordered_map<GuestAddr, GuestAddr> moved;
  memo_obj_ = nullptr;

  active_half_ = !active_half_;
  GuestAddr new_bump = space_base();
  u32 moved_count = 0;
  for (Object& obj : objects_) {
    const u32 size = std::max<u32>(obj.payload_size(), 8);
    const GuestAddr target = new_bump;
    new_bump += (size + 7) & ~7u;
    if (new_bump > space_base() + half_size_) {
      throw GuestFault("dalvik heap exhausted during GC");
    }
    memory_.copy(target, obj.addr(), size);
    moved[obj.addr()] = target;
    obj.set_addr(target);
    ++moved_count;
  }
  bump_ = new_bump;

  by_addr_.clear();
  for (Object& obj : objects_) by_addr_[obj.addr()] = &obj;

  // Fix internal references: ref-array elements and instance L-fields hold
  // direct pointers.
  for (Object& obj : objects_) {
    if (obj.kind() == ObjKind::kArray && obj.elems_are_refs()) {
      for (u32 i = 0; i < obj.length(); ++i) {
        const u32 v = array_get(obj, i);
        if (auto it = moved.find(v); it != moved.end()) {
          array_set(obj, i, it->second);
        }
      }
    } else if (obj.kind() == ObjKind::kInstance) {
      bool dirty = false;
      for (Slot& s : obj.fields()) {
        if (auto it = moved.find(s.value); it != moved.end()) {
          s.value = it->second;
          dirty = true;
        }
      }
      if (dirty) write_payload(obj);
    }
  }

  for (auto& [old_addr, new_addr] : moved) {
    if (old_addr == new_addr) continue;
    if (Object* obj = object_at(new_addr)) {
      for (auto& fn : move_observers_) fn(*obj, old_addr, new_addr);
    }
  }
  return moved_count;
}

}  // namespace ndroid::dvm
