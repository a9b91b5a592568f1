// The guest system libraries (libdvm stubs, JNI table, libc/libm) are
// emitted once per process and copied into every Device. These tests build
// Devices on several threads at once, so the first use of each image races,
// and check that every Device gets the same bytes, shares one symbol table
// per library, and still analyses a Table I case correctly.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "apps/leak_cases.h"
#include "core/ndroid.h"

namespace ndroid {
namespace {

using android::Device;
using android::Layout;

struct DeviceSnapshot {
  std::vector<u8> libdvm, libc, libm;
  const std::map<std::string, GuestAddr>* dvm_symbols = nullptr;
  const std::map<std::string, GuestAddr>* jni_symbols = nullptr;
  const std::map<std::string, GuestAddr>* libc_symbols = nullptr;
  std::size_t native_leaks = 0;
};

std::vector<u8> read_region(const Device& device, GuestAddr base, u32 size) {
  std::vector<u8> out(size);
  device.memory.read_bytes(base, out);
  return out;
}

// Snapshots a freshly built Device, then runs Table I case 4 on it: native
// code calls back into Java for the IMEI and sends it through libc's send(),
// a leak TaintDroid alone misses.
DeviceSnapshot build_and_analyse() {
  DeviceSnapshot s;
  Device device("com.image.race");
  s.libdvm = read_region(device, Layout::kLibdvm, Layout::kLibdvmSize);
  s.libc = read_region(device, Layout::kLibc, Layout::kLibcSize);
  s.libm = read_region(device, Layout::kLibm, Layout::kLibmSize);
  s.dvm_symbols = &device.dvm.symbols();
  s.jni_symbols = &device.jni.symbols();
  s.libc_symbols = &device.libc.symbols();

  core::NDroid nd(device);
  const apps::LeakScenario scenario = apps::build_case4(device);
  device.dvm.call(*scenario.entry, {});
  s.native_leaks = nd.leaks().size();
  return s;
}

// Must stay the first test in this binary: it is the one that races the
// images' first use.
TEST(SystemImage, ConcurrentFirstUseGivesEveryDeviceTheSameLibraries) {
  constexpr int kThreads = 4;
  std::vector<DeviceSnapshot> snaps(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&snaps, i] { snaps[i] = build_and_analyse(); });
  }
  for (std::thread& t : threads) t.join();

  for (const DeviceSnapshot& s : snaps) {
    EXPECT_EQ(s.libdvm, snaps[0].libdvm);
    EXPECT_EQ(s.libc, snaps[0].libc);
    EXPECT_EQ(s.libm, snaps[0].libm);
    // One shared table per library, not a copy per Device.
    EXPECT_EQ(s.dvm_symbols, snaps[0].dvm_symbols);
    EXPECT_EQ(s.jni_symbols, snaps[0].jni_symbols);
    EXPECT_EQ(s.libc_symbols, snaps[0].libc_symbols);
    EXPECT_GT(s.native_leaks, 0u);
  }
  // The images hold real code, and a Device built later matches them.
  const DeviceSnapshot later = build_and_analyse();
  EXPECT_EQ(later.libdvm, snaps[0].libdvm);
  EXPECT_EQ(later.libc, snaps[0].libc);
  EXPECT_FALSE(snaps[0].jni_symbols->empty());
  EXPECT_GT(snaps[0].libc_symbols->count("memcpy"), 0u);
}

TEST(SystemImage, FreshDeviceHoldsOnlyTheImagePages) {
  // Before an app loads, a Device materialises only the libraries' image
  // pages (libdvm stubs, libdvm data, libc code) and the kernel's task page:
  // what it costs to build is host-side state, not guest memory.
  Device device;
  EXPECT_EQ(jni::JniEnv::image().libdvm.pages.addrs.size(), 2u);
  EXPECT_EQ(device.memory.resident_pages(), 4u);
}

TEST(SystemImage, HelpersRegisteredOutOfOrderAreRejected) {
  // A Cpu whose helper window is already in use cannot host libdvm: its
  // stubs were emitted against the first helper addresses.
  mem::AddressSpace memory;
  mem::MemoryMap memmap;
  arm::Cpu cpu(memory, memmap);
  cpu.register_helper_auto([](arm::Cpu&) {});
  EXPECT_THROW(std::make_unique<dvm::Dvm>(
                   cpu, Layout::kDalvikHeap, Layout::kDalvikHeapSize,
                   Layout::kDalvikStack, Layout::kDalvikStackSize),
               std::logic_error);
}

}  // namespace
}  // namespace ndroid
