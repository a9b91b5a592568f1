// The JNIEnv function table, materialised in guest memory.
//
// JNIEnv* is a pointer to a pointer to a table of function pointers, exactly
// as in the JNI spec: native code may resolve functions through the table
// (`ldr ip, [env]; ldr ip, [ip, #4*index]; blx ip`) or call the published
// symbol addresses directly.
//
// Two implementation styles, chosen per function:
//  * *stub-chained* — a guest stub whose internal calls to other libdvm
//    functions are real guest branches. Used where the paper's analysis
//    depends on the chain: the Call*Method family -> dvmCallMethod{V,A} ->
//    dvmInterpret (Table II / Fig. 5 multilevel hooking), the object-creation
//    NOF -> MAF pairs (Table III / Fig. 6), and ThrowNew -> initException ->
//    dvmCreateStringFromCstr -> dvmCallMethodV (§V-B "Exception").
//  * *helper-backed* — the function address dispatches straight into C++.
//    Entry/exit are still guest branch events, which is all NDroid needs to
//    hook the field accessors (Table IV) and GetStringUTFChars-style
//    functions (Figs. 7, 8).
//
// None of these functions propagates taint: that is precisely TaintDroid's
// JNI blind spot (paper §IV); NDroid's hook engines add the propagation.
//
// The stubs, landing pads and table are emitted once per process on top of
// Dvm::image() (JniEnv::image()); each JniEnv loads that image into its Dvm
// and registers its helper closures.
#pragma once

#include <map>
#include <string>

#include "dvm/dvm.h"
#include "os/kernel.h"

namespace ndroid::jni {

/// Table indices (subset of the JNI spec's layout, same ordering idea).
enum class JniFn : u32 {
  kFindClass = 0,
  kGetMethodID,
  kGetStaticMethodID,
  kGetFieldID,
  kGetStaticFieldID,
  kNewObject,
  kNewObjectV,
  kNewObjectA,
  kNewString,
  kNewStringUTF,
  kNewObjectArray,
  kNewIntArray,
  kNewByteArray,
  kNewCharArray,
  kNewBooleanArray,
  kGetStringLength,
  kGetStringUTFChars,
  kReleaseStringUTFChars,
  kGetArrayLength,
  kGetIntArrayElements,
  kGetByteArrayElements,
  kReleaseIntArrayElements,
  kReleaseByteArrayElements,
  kGetIntArrayRegion,
  kSetIntArrayRegion,
  kGetByteArrayRegion,
  kSetByteArrayRegion,
  kGetObjectArrayElement,
  kSetObjectArrayElement,
  kCallVoidMethod,
  kCallVoidMethodV,
  kCallVoidMethodA,
  kCallIntMethod,
  kCallIntMethodV,
  kCallIntMethodA,
  kCallObjectMethod,
  kCallObjectMethodV,
  kCallObjectMethodA,
  kCallNonvirtualVoidMethod,
  kCallNonvirtualVoidMethodV,
  kCallNonvirtualVoidMethodA,
  kCallNonvirtualIntMethod,
  kCallNonvirtualIntMethodV,
  kCallNonvirtualIntMethodA,
  kCallNonvirtualObjectMethod,
  kCallNonvirtualObjectMethodV,
  kCallNonvirtualObjectMethodA,
  kCallStaticVoidMethod,
  kCallStaticVoidMethodV,
  kCallStaticVoidMethodA,
  kCallStaticIntMethod,
  kCallStaticIntMethodV,
  kCallStaticIntMethodA,
  kCallStaticObjectMethod,
  kCallStaticObjectMethodV,
  kCallStaticObjectMethodA,
  kGetObjectField,
  kGetIntField,
  kGetBooleanField,
  kGetByteField,
  kGetCharField,
  kGetShortField,
  kGetFloatField,
  kSetObjectField,
  kSetIntField,
  kSetBooleanField,
  kSetByteField,
  kSetCharField,
  kSetShortField,
  kSetFloatField,
  kGetStaticObjectField,
  kGetStaticIntField,
  kSetStaticObjectField,
  kSetStaticIntField,
  kThrowNew,
  kExceptionOccurred,
  kExceptionClear,
  kDeleteLocalRef,
  kNewGlobalRef,
  kGetObjectClass,
  kPushLocalFrame,
  kPopLocalFrame,
  kIsSameObject,
  kDeleteGlobalRef,
  kGetStringUTFLength,
  kCount,
};

/// Release<Type>ArrayElements modes besides 0 (copy back and free).
inline constexpr u32 kJniCommit = 1;  // copy back, keep the buffer
inline constexpr u32 kJniAbort = 2;   // free without copying back

/// The JNI functions' part of libdvm.so (JniEnv::image()).
struct JniImage {
  dvm::LibdvmImage libdvm;  // Dvm::image()'s libdvm.so plus the JNI code
  arm::HelperTable helpers;
  GuestAddr env_addr = 0;
  GuestAddr table_addr = 0;
  std::map<std::string, GuestAddr> symbols;
};

class JniEnv {
 public:
  /// Loads image() into `dvm`, which must have allocated nothing in
  /// libdvm.so since its construction, and registers the helpers.
  JniEnv(dvm::Dvm& dvm, os::Kernel& kernel);

  JniEnv(const JniEnv&) = delete;
  JniEnv& operator=(const JniEnv&) = delete;

  /// The JNI functions' guest code and table, emitted once per process
  /// (thread-safe).
  static const JniImage& image();

  /// The JNIEnv* value native methods receive in R0.
  [[nodiscard]] GuestAddr env_addr() const { return image().env_addr; }

  /// Guest address of a JNI function by name (e.g. "NewStringUTF").
  [[nodiscard]] GuestAddr fn(const std::string& name) const;
  [[nodiscard]] GuestAddr fn(JniFn index) const;

  /// All published function symbols (hook engines iterate these the way
  /// NDroid derived offsets by disassembling libdvm.so, §V-G): one table
  /// shared by every JniEnv.
  [[nodiscard]] const std::map<std::string, GuestAddr>& symbols() const {
    return image().symbols;
  }

 private:
  static JniImage emit_image();
  void bind_helpers();
  /// The C++ body of the helper-backed function `index`.
  arm::Helper helper_for(JniFn index);

  dvm::Dvm& dvm_;
  os::Kernel& kernel_;
};

}  // namespace ndroid::jni
