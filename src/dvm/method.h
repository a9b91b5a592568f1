// Dalvik method descriptor.
//
// Mirrors the fields NDroid reads out of the guest Method struct when it
// hooks dvmCallJNIMethod (paper §V-B): "we identify the method_address,
// access_flag, and method_shorty through the third parameter of
// dvmCallJNIMethod, which points to the structure Method."
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "dvm/bytecode.h"
#include "dvm/object.h"

namespace ndroid::dvm {

class ClassObject;
class Dvm;
struct Frame;

inline constexpr u32 kAccPublic = 0x0001;
inline constexpr u32 kAccStatic = 0x0008;
inline constexpr u32 kAccNative = 0x0100;

struct Method {
  std::string name;
  /// Dalvik shorty: return type first, then parameter types
  /// (e.g. makeLoginRequestPackageMd5 has shorty "IILLLLLLLLII", Fig. 6).
  std::string shorty;
  ClassObject* clazz = nullptr;
  u32 access_flags = kAccPublic;

  /// Interpreted methods: bytecode plus register file geometry. Registers
  /// [registers_size - ins_size, registers_size) hold the incoming args.
  std::vector<DInsn> code;
  u16 registers_size = 0;
  u16 ins_size = 0;
  /// Set by the Dvm's verifier before the first interpretation; the code
  /// and register geometry must not change after that.
  mutable bool verified = false;

  /// Native methods: guest entry point (bit 0 selects Thumb).
  GuestAddr native_addr = 0;

  /// Framework methods implemented in the host (sources/sinks/utilities);
  /// receives the argument slots and writes the return slot.
  std::function<Slot(Dvm&, std::vector<Slot>&)> builtin;

  /// Guest address of this method's materialised Method struct (assigned by
  /// the Dvm when the class is registered).
  GuestAddr guest_addr = 0;

  [[nodiscard]] bool is_native() const {
    return (access_flags & kAccNative) != 0;
  }
  [[nodiscard]] bool is_static() const {
    return (access_flags & kAccStatic) != 0;
  }
  [[nodiscard]] bool is_builtin() const { return static_cast<bool>(builtin); }

  /// Number of argument registers: params plus `this` for non-static.
  [[nodiscard]] u16 arg_count() const {
    return static_cast<u16>(shorty.size() - 1 + (is_static() ? 0 : 1));
  }
  [[nodiscard]] char return_type() const { return shorty.empty() ? 'V' : shorty[0]; }
};

}  // namespace ndroid::dvm
