// Indirect reference table (IRT).
//
// "Since version 4.0, Android uses indirect references in native code rather
// than direct pointers to reference objects. By doing so, when the garbage
// collector moves an object, it updates the indirect reference table with
// the object's new location" (paper §II-A). NDroid keys its Java-object
// shadow taints by indirect reference for exactly this reason (§V-B).
//
// Encoding follows Dalvik's IndirectRef: low 2 bits are the kind, the rest
// index+serial — producing opaque-looking handles like the 0xa8900025 /
// 0x5f80001d values in the paper's logs.
//
// Local references live in frames. Every native method call runs inside its
// own frame (Dvm opens a NativeCallFrame around it), so a method's locals
// die when it returns, as in Dalvik. Dead slots go on a free list, so add()
// and release are O(1), and the table is bounded: 512 live locals and
// 51,200 live globals (Dalvik 4.x), past which add() throws GuestFault.
#pragma once

#include <functional>
#include <vector>

#include "common/types.h"

namespace ndroid::dvm {

class Object;

using IndirectRef = u32;

enum class RefKind : u32 { kLocal = 1, kGlobal = 2 };

class IndirectRefTable {
 public:
  /// Dalvik 4.x capacities.
  static constexpr u32 kMaxLocals = 512;
  static constexpr u32 kMaxGlobals = 51200;

  /// New handle for `obj`. Throws GuestFault when the kind's table is full.
  IndirectRef add(Object* obj, RefKind kind = RefKind::kLocal);

  /// Dalvik's dvmDecodeIndirectRef: handle -> direct object pointer.
  /// Unknown/stale handles throw.
  [[nodiscard]] Object* decode(IndirectRef ref) const;

  /// True if the handle is live in this table.
  [[nodiscard]] bool is_valid(IndirectRef ref) const;

  /// Kind bits of a handle (says nothing about whether it is live).
  [[nodiscard]] static RefKind kind_of(IndirectRef ref) {
    return static_cast<RefKind>(ref & 3);
  }

  /// Releases a live handle; stale or bogus handles are ignored.
  void remove(IndirectRef ref);

  [[nodiscard]] u32 live_count() const { return live_locals_ + live_globals_; }

  /// Called with every handle as it dies (remove, frame pop), before its
  /// slot can be reused. One observer; nullptr clears it.
  void set_release_observer(std::function<void(IndirectRef)> fn) {
    release_observer_ = std::move(fn);
  }

  // --- Local reference frames (JNI PushLocalFrame/PopLocalFrame) ----------
  /// Marks a frame boundary: local refs created after this call are
  /// released when the frame is popped.
  void push_frame() { frames_.push_back(Frame{record_count(), false}); }
  /// Releases local refs created since the matching push_frame. If
  /// `survivor` is live, it is re-created in the enclosing frame and the
  /// new handle returned (0 otherwise). Throws GuestFault if no frame
  /// pushed by push_frame is open inside the current native call.
  IndirectRef pop_frame(IndirectRef survivor = 0);
  [[nodiscard]] u32 frame_depth() const {
    return static_cast<u32>(frames_.size());
  }

  /// The frame of one native method call. Opened on construction; closed on
  /// destruction, by return or by unwinding, together with any frame the
  /// native code pushed and did not pop.
  class NativeCallFrame {
   public:
    explicit NativeCallFrame(IndirectRefTable& table)
        : table_(table), depth_(table.frame_depth()) {
      table.frames_.push_back(Frame{table.record_count(), true});
    }
    ~NativeCallFrame() {
      while (table_.frame_depth() > depth_) table_.release_top_frame();
    }
    NativeCallFrame(const NativeCallFrame&) = delete;
    NativeCallFrame& operator=(const NativeCallFrame&) = delete;

   private:
    IndirectRefTable& table_;
    u32 depth_;
  };

 private:
  struct Entry {
    Object* obj = nullptr;
    u32 serial = 0;
    bool live = false;
    RefKind kind = RefKind::kLocal;
  };
  /// A local created inside a frame. The slot may die and be reused before
  /// the frame pops; the serial tells whether it still holds this ref.
  struct Record {
    u32 index;
    u32 serial;
  };
  struct Frame {
    u32 first_record;
    bool native_call;  // opened by NativeCallFrame, not by push_frame
  };

  // Both tables together must fit the handle's 16-bit index field.
  static_assert(kMaxLocals + kMaxGlobals <= 0x10000);

  static u32 index_of(IndirectRef ref) { return (ref >> 2) & 0xFFFF; }
  static u32 serial_of(IndirectRef ref) { return (ref >> 18) & 0xFFF; }
  [[nodiscard]] IndirectRef handle(u32 index) const {
    const Entry& e = entries_[index];
    return 0x80000000u | (e.serial << 18) | (index << 2) |
           static_cast<u32>(e.kind);
  }
  [[nodiscard]] u32 record_count() const {
    return static_cast<u32>(records_.size());
  }
  [[nodiscard]] bool holds_local(const Record& r) const {
    const Entry& e = entries_[r.index];
    return e.live && e.serial == r.serial && e.kind == RefKind::kLocal;
  }
  void release(u32 index);
  void release_top_frame();

  std::vector<Entry> entries_;
  std::vector<u32> free_;        // dead slots, reused last-in first-out
  std::vector<Record> records_;  // locals created per open frame, in order
  std::vector<Frame> frames_;
  u32 live_locals_ = 0;
  u32 live_globals_ = 0;
  std::function<void(IndirectRef)> release_observer_;
};

}  // namespace ndroid::dvm
