// The guest system libraries (libdvm stubs, JNI table, libc/libm) are
// emitted once per process and copied into every Device, and NDroid's hook
// tables keyed on their addresses are built once per process too. These
// tests build Devices with NDroid attached on several threads at once, so
// the first use of each image and each hook table races, and check that
// every Device gets the same bytes, shares one symbol table per library and
// one hook table per engine, and still analyses a Table I case correctly.
// The scenario apps' libraries are emitted once per process too
// (apps::load_app_lib); their tests race that memo the same way.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "../bench/e2e/calibration.h"
#include "apps/cfbench.h"
#include "apps/leak_cases.h"
#include "apps/native_lib_builder.h"
#include "apps/real_apps.h"
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
  const core::SysLibHookEngine::HookTable* syslib_table = nullptr;
  const core::DvmHookEngine::HookTables* dvm_tables = nullptr;
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
  s.syslib_table = &nd.syslib().table();
  s.dvm_tables = &nd.dvm_hooks().tables();
  const apps::LeakScenario scenario = apps::build_case4(device);
  device.dvm.call(*scenario.entry, {});
  s.native_leaks = nd.leaks().size();
  return s;
}

// Must stay the first test in this binary: it is the one that races the
// first use of the images and the hook tables.
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
    // One hook table per engine kind, not one per NDroid.
    EXPECT_EQ(s.syslib_table, snaps[0].syslib_table);
    EXPECT_EQ(s.dvm_tables, snaps[0].dvm_tables);
    EXPECT_GT(s.native_leaks, 0u);
  }
  // The images hold real code, and a Device built later matches them.
  const DeviceSnapshot later = build_and_analyse();
  EXPECT_EQ(later.libdvm, snaps[0].libdvm);
  EXPECT_EQ(later.libc, snaps[0].libc);
  EXPECT_FALSE(snaps[0].jni_symbols->empty());
  EXPECT_GT(snaps[0].libc_symbols->count("memcpy"), 0u);
  EXPECT_EQ(later.syslib_table, snaps[0].syslib_table);
  EXPECT_EQ(later.dvm_tables, snaps[0].dvm_tables);
}

// The names a table holds, each checked against the address `resolve`
// gives for it — the lookup every engine used to do at construction.
template <typename Entry, typename Resolve>
std::set<std::string> names_checked(const std::vector<Entry>& entries,
                                    Resolve resolve) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    EXPECT_EQ(e.addr, resolve(e.name)) << e.name;
    if (i > 0) {
      EXPECT_LT(entries[i - 1].addr, e.addr) << e.name;
    }
    names.insert(e.name);
  }
  return names;
}

TEST(SystemImage, HookTablesHoldTheImageAddresses) {
  Device device;
  core::NDroid nd(device);
  const auto libc_fn = [&](const std::string& n) { return device.libc.fn(n); };
  const auto jni_fn = [&](const std::string& n) { return device.jni.fn(n); };

  // Table VI models and the Table VII FILE* sinks (+ TrustCall logging).
  const std::set<std::string> sinks = {"fprintf", "fwrite", "fputs",
                                       "fputc",   "fopen",  "fclose"};
  std::set<std::string> syslib = {
      "memcpy",  "memmove", "memset",  "strcpy",  "strncpy",    "strcat",
      "strdup",  "strlen",  "atoi",    "atol",    "strtoul",    "strtol",
      "strtod",  "strcmp",  "strcasecmp", "strncmp", "memcmp",  "strchr",
      "strrchr", "memchr",  "strstr",  "malloc",  "calloc",     "realloc",
      "free",    "sprintf", "snprintf", "sscanf", "sin",        "sinf",
      "cos",     "cosf",    "sqrt",    "sqrtf",   "exp",        "expf",
      "log",     "logf",    "log10",   "floor",   "ceil",       "tan",
      "atan",    "asin",    "acos",    "sinh",    "cosh",       "pow",
      "powf",    "atan2",   "atan2f",  "fmod",    "ldexp"};
  syslib.insert(sinks.begin(), sinks.end());
  const auto& table = nd.syslib().table();
  EXPECT_EQ(names_checked(table.hooks, libc_fn), syslib);
  for (const auto& h : table.hooks) EXPECT_TRUE(table.targets.maybe(h.addr));

  // Without the models only the sinks stay, in a table of their own.
  core::NDroidConfig no_models;
  no_models.syslib_models = false;
  core::NDroid sinks_only(device, no_models);
  EXPECT_NE(&sinks_only.syslib().table(), &table);
  EXPECT_EQ(names_checked(sinks_only.syslib().table().hooks, libc_fn), sinks);

  const core::DvmHookEngine::HookTables& dvm = nd.dvm_hooks().tables();
  EXPECT_EQ(dvm.call_jni, device.dvm.sym("dvmCallJNIMethod"));
  EXPECT_EQ(dvm.call_method_v, device.dvm.sym("dvmCallMethodV"));
  EXPECT_EQ(dvm.call_method_a, device.dvm.sym("dvmCallMethodA"));
  EXPECT_EQ(dvm.interpret, device.dvm.sym("dvmInterpret"));

  std::vector<GuestAddr> stubs;
  for (const auto& [name, addr] : device.jni.symbols()) {
    if (name.rfind("Call", 0) == 0 &&
        name.find("Method") != std::string::npos) {
      stubs.push_back(addr);
    }
  }
  std::sort(stubs.begin(), stubs.end());
  EXPECT_EQ(dvm.call_stubs, stubs);
  EXPECT_EQ(stubs.size(), 27u);

  // Table III: NOF -> MAF.
  const std::map<std::string, std::string> nofs = {
      {"NewStringUTF", "dvmCreateStringFromCstr"},
      {"NewString", "dvmCreateStringFromUnicode"},
      {"NewObject", "dvmAllocObject"},
      {"NewObjectV", "dvmAllocObject"},
      {"NewObjectA", "dvmAllocObject"},
      {"NewObjectArray", "dvmAllocArrayByClass"},
      {"NewIntArray", "dvmAllocPrimitiveArray"},
      {"NewByteArray", "dvmAllocPrimitiveArray"},
      {"NewCharArray", "dvmAllocPrimitiveArray"},
      {"NewBooleanArray", "dvmAllocPrimitiveArray"}};
  std::set<std::string> nof_names;
  for (const auto& [nof, maf] : nofs) nof_names.insert(nof);
  EXPECT_EQ(names_checked(dvm.nofs, jni_fn), nof_names);
  for (const auto& n : dvm.nofs) {
    EXPECT_EQ(n.maf, device.dvm.sym(nofs.at(n.name))) << n.name;
  }

  // Table IV accessors, the TrustCall handlers, ThrowNew and PopLocalFrame
  // (which carries a survivor's shadow taint to its new handle).
  const std::set<std::string> simple = {
      "SetObjectField",       "SetIntField",          "SetBooleanField",
      "SetByteField",         "SetCharField",         "SetShortField",
      "SetFloatField",        "SetStaticObjectField", "SetStaticIntField",
      "GetObjectField",       "GetIntField",          "GetBooleanField",
      "GetByteField",         "GetCharField",         "GetShortField",
      "GetFloatField",        "GetStaticObjectField", "GetStaticIntField",
      "GetStringUTFChars",    "GetIntArrayElements",  "GetByteArrayElements",
      "ReleaseIntArrayElements", "ReleaseByteArrayElements",
      "GetIntArrayRegion",    "GetByteArrayRegion",   "SetIntArrayRegion",
      "SetByteArrayRegion",   "ThrowNew",             "PopLocalFrame"};
  EXPECT_EQ(names_checked(dvm.simple_hooks, jni_fn), simple);

  for (GuestAddr a : {dvm.call_jni, dvm.call_method_v, dvm.call_method_a,
                      dvm.interpret, arm::kHostReturnAddr}) {
    EXPECT_TRUE(dvm.static_targets.maybe(a));
  }
  for (GuestAddr a : dvm.call_stubs) EXPECT_TRUE(dvm.static_targets.maybe(a));
  for (const auto& n : dvm.nofs) EXPECT_TRUE(dvm.static_targets.maybe(n.addr));
  for (const auto& h : dvm.simple_hooks) {
    EXPECT_TRUE(dvm.static_targets.maybe(h.addr));
  }
}

TEST(SystemImage, FreshDeviceHoldsOnlyTheImagePages) {
  // Before an app loads, a Device materialises only the libraries' image
  // pages (libdvm stubs, libdvm data, libc code) and the kernel's task page:
  // what it costs to build is host-side state, not guest memory.
  Device device;
  EXPECT_EQ(jni::JniEnv::image().libdvm.pages.addrs.size(), 2u);
  EXPECT_EQ(device.memory.resident_pages(), 4u);
}

// One scenario library: the name it loads as, its emitter, and how an app
// build loads it into a Device.
struct ScenarioLib {
  const char* name;
  apps::LibEmitter emit;
  void (*build)(Device&);
};

const ScenarioLib kScenarioLibs[] = {
    {"libcfbench.so", &apps::emit_cfbench,
     [](Device& d) { apps::CfBenchApp app(d); }},
    {"libcase1.so", &apps::emit_case1,
     [](Device& d) { apps::build_case1(d); }},
    {"libcase1p.so", &apps::emit_case1_prime,
     [](Device& d) { apps::build_case1_prime(d); }},
    {"libcase2.so", &apps::emit_case2,
     [](Device& d) { apps::build_case2(d); }},
    {"libcase3.so", &apps::emit_case3,
     [](Device& d) { apps::build_case3(d); }},
    {"libcase4.so", &apps::emit_case4,
     [](Device& d) { apps::build_case4(d); }},
    {"libtccsync.so", &apps::emit_tccsync,
     [](Device& d) { apps::build_qq_phonebook(d); }},
    {"libephone.so", &apps::emit_ephone,
     [](Device& d) { apps::build_ephone(d); }},
};

/// The library as its emitter assembles it at `device`'s next load base,
/// outside the memo.
std::vector<u8> fresh_assembly(Device& device, const ScenarioLib& lib) {
  apps::NativeLibBuilder builder(device, lib.name);
  lib.emit(builder, device);
  return builder.a().finish();
}

/// The bytes a Device holds for its loaded library `name`: as many as
/// `size`, from the region's start, which must be `base`.
std::vector<u8> loaded_bytes(const Device& device, const char* name,
                             GuestAddr base, std::size_t size) {
  const mem::Region* region = device.memmap.find_by_name(name);
  if (region == nullptr) throw std::runtime_error("not loaded");
  EXPECT_EQ(region->start, base) << name;
  return read_region(device, region->start, static_cast<u32>(size));
}

TEST(AppImage, ConcurrentScenarioBuildsLoadFreshlyAssembledLibraries) {
  std::vector<std::vector<u8>> want;
  for (const ScenarioLib& lib : kScenarioLibs) {
    Device device;
    want.push_back(fresh_assembly(device, lib));
  }

  // Each thread builds every scenario twice, starting at a different one,
  // so first uses of the memo race and later uses copy from it.
  constexpr int kThreads = 4;
  constexpr std::size_t kLibs = std::size(kScenarioLibs);
  std::vector<std::vector<std::vector<u8>>> got(
      kThreads, std::vector<std::vector<u8>>(2 * kLibs));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&got, &want, t] {
      for (std::size_t k = 0; k < 2 * kLibs; ++k) {
        const std::size_t i = (k + static_cast<std::size_t>(t) * 3) % kLibs;
        Device device("com.app.image" + std::to_string(t));
        kScenarioLibs[i].build(device);
        got[t][k] = loaded_bytes(device, kScenarioLibs[i].name,
                                 Layout::kAppLibBase, want[i].size());
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t k = 0; k < 2 * kLibs; ++k) {
      const std::size_t i = (k + static_cast<std::size_t>(t) * 3) % kLibs;
      EXPECT_EQ(got[t][k], want[i]) << kScenarioLibs[i].name;
    }
  }
}

TEST(AppImage, LibraryAtAnotherBaseIsAssembledThere) {
  // A library already loaded moves libcfbench.so up; its absolute buffer
  // and path addresses must follow, so the Native rows still compute the
  // known answers.
  Device device;
  const std::vector<u8> other(0x1800, 0);
  device.load_native_lib("libother.so", other);
  const GuestAddr base = device.next_lib_base();
  ASSERT_NE(base, Layout::kAppLibBase);
  const std::vector<u8> want = fresh_assembly(device, kScenarioLibs[0]);

  apps::CfBenchApp app(device);
  EXPECT_EQ(loaded_bytes(device, "libcfbench.so", base, want.size()), want);

  Device plain;
  apps::CfBenchApp plain_app(plain);
  EXPECT_NE(loaded_bytes(plain, "libcfbench.so", Layout::kAppLibBase,
                         want.size()),
            want);

  int native_rows = 0;
  for (const auto& answer : e2e::calibration::kCfOracle) {
    const std::string name = answer.name;
    if (name.rfind("Native", 0) != 0 ||
        answer.iterations != e2e::calibration::kMixCfIterations) {
      continue;
    }
    const apps::CfWorkload* w = app.find(name);
    ASSERT_NE(w, nullptr) << name;
    EXPECT_EQ(app.run(*w, answer.iterations), answer.checksum) << name;
    ++native_rows;
  }
  EXPECT_EQ(native_rows, 8);
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
