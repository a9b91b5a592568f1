// End-to-end tests of NDroid against the Table I leak scenarios: the
// paper's central claim is that TaintDroid alone detects only case 1, while
// NDroid (working with TaintDroid) detects all five.
#include <gtest/gtest.h>

#include "apps/leak_cases.h"
#include "apps/native_lib_builder.h"
#include "apps/real_apps.h"
#include "core/ndroid.h"

namespace ndroid::core {
namespace {

using android::Device;
using apps::LeakScenario;

struct Detection {
  bool taintdroid = false;  // flagged at a Java-context sink
  bool ndroid_native = false;  // flagged at a native-context sink by NDroid
  bool evidence = false;       // the secret genuinely left the device
};

Detection run_scenario(LeakScenario (*builder)(Device&), bool with_ndroid,
                       const std::string& secret_substring) {
  Device device("com.scenario.app");
  std::unique_ptr<NDroid> nd;
  if (with_ndroid) nd = std::make_unique<NDroid>(device);
  const LeakScenario scenario = builder(device);
  device.dvm.call(*scenario.entry, {});

  Detection det;
  det.taintdroid = !device.framework.leaks().empty();
  det.ndroid_native = with_ndroid && !nd->leaks().empty();

  std::string sent;
  for (const auto& p : device.kernel.network().packets()) {
    sent += p.payload_str();
  }
  for (const auto& f : device.kernel.vfs().list()) {
    sent += device.kernel.vfs().content_str(f);
  }
  det.evidence = sent.find(secret_substring) != std::string::npos;
  return det;
}

// --- The Table I detection matrix -----------------------------------------

TEST(TableOne, Case1DetectedByBoth) {
  const auto without = run_scenario(apps::build_case1, false, "354958031234567");
  EXPECT_TRUE(without.evidence);
  EXPECT_TRUE(without.taintdroid);  // JNI return-value policy suffices

  const auto with = run_scenario(apps::build_case1, true, "354958031234567");
  EXPECT_TRUE(with.taintdroid);
}

TEST(TableOne, Case1PrimeMissedByTaintDroidCaughtByNDroid) {
  const auto without =
      run_scenario(apps::build_case1_prime, false, "Vincent");
  EXPECT_TRUE(without.evidence);      // the contacts really leaked
  EXPECT_FALSE(without.taintdroid);   // ...but TaintDroid saw nothing

  const auto with = run_scenario(apps::build_case1_prime, true, "Vincent");
  EXPECT_TRUE(with.evidence);
  EXPECT_TRUE(with.taintdroid);  // NDroid re-tainted the returned String
}

TEST(TableOne, Case2MissedByTaintDroidCaughtByNDroid) {
  const auto without = run_scenario(apps::build_case2, false, "cx@gg.com");
  EXPECT_TRUE(without.evidence);
  EXPECT_FALSE(without.taintdroid);

  const auto with = run_scenario(apps::build_case2, true, "cx@gg.com");
  EXPECT_TRUE(with.evidence);
  EXPECT_TRUE(with.ndroid_native);  // fprintf sink fired
}

TEST(TableOne, Case3MissedByTaintDroidCaughtByNDroid) {
  const auto without =
      run_scenario(apps::build_case3, false, "354958031234567");
  EXPECT_TRUE(without.evidence);
  EXPECT_FALSE(without.taintdroid);

  const auto with = run_scenario(apps::build_case3, true, "354958031234567");
  EXPECT_TRUE(with.evidence);
  EXPECT_TRUE(with.taintdroid);  // frame taints restored at dvmInterpret
}

TEST(TableOne, Case4MissedByTaintDroidCaughtByNDroid) {
  const auto without =
      run_scenario(apps::build_case4, false, "354958031234567");
  EXPECT_TRUE(without.evidence);
  EXPECT_FALSE(without.taintdroid);

  const auto with = run_scenario(apps::build_case4, true, "354958031234567");
  EXPECT_TRUE(with.evidence);
  EXPECT_TRUE(with.ndroid_native);  // send() sink fired
}

// --- Real-app case studies --------------------------------------------------

TEST(RealApps, QQPhoneBookFig6) {
  Device device("com.tencent.qqphonebook");
  NDroid nd(device);
  const LeakScenario app = apps::build_qq_phonebook(device);
  device.dvm.call(*app.entry, {});

  // The login URL containing SMS+contacts data reached sync.3g.qq.com.
  const std::string sent =
      device.kernel.network().bytes_sent_to("sync.3g.qq.com");
  EXPECT_NE(sent.find("http://sync.3g.qq.com/xpimlogin?sid="),
            std::string::npos);
  EXPECT_NE(sent.find("Vincent"), std::string::npos);

  // Detected via the Java sink after NDroid tainted the new String object.
  ASSERT_FALSE(device.framework.leaks().empty());
  EXPECT_EQ(device.framework.leaks()[0].taint, kTaintSms | kTaintContacts);

  // The trace log reproduces the Fig. 6 structure.
  EXPECT_TRUE(nd.log().contains("name: makeLoginRequestPackageMd5"));
  EXPECT_TRUE(nd.log().contains("shorty: IILLLLLLLLII"));
  EXPECT_TRUE(nd.log().contains("class: Lcom/tencent/tccsync/LoginUtil;"));
  EXPECT_TRUE(nd.log().contains("NewStringUTF Begin"));
  EXPECT_TRUE(nd.log().contains("http://sync.3g.qq.com/xpimlogin?sid="));
  EXPECT_TRUE(nd.log().contains("add taint 514 to new string object"));
  EXPECT_TRUE(nd.log().contains("NewStringUTF End"));
}

TEST(RealApps, QQPhoneBookMissedWithoutNDroid) {
  Device device("com.tencent.qqphonebook");
  const LeakScenario app = apps::build_qq_phonebook(device);
  device.dvm.call(*app.entry, {});
  EXPECT_FALSE(
      device.kernel.network().bytes_sent_to("sync.3g.qq.com").empty());
  EXPECT_TRUE(device.framework.leaks().empty());
}

TEST(RealApps, EPhoneFig7) {
  Device device("com.vnet.ephone");
  NDroid nd(device);
  const LeakScenario app = apps::build_ephone(device);
  device.dvm.call(*app.entry, {});

  const std::string sent =
      device.kernel.network().bytes_sent_to("softphone.comwave.net");
  EXPECT_NE(sent.find("REGISTER sip:softphone.comwave.net"),
            std::string::npos);
  EXPECT_NE(sent.find("Vincent"), std::string::npos);

  ASSERT_FALSE(nd.leaks().empty());
  EXPECT_EQ(nd.leaks()[0].sink, "sendto");
  EXPECT_EQ(nd.leaks()[0].destination, "softphone.comwave.net");
  EXPECT_EQ(nd.leaks()[0].taint, kTaintContacts);  // 0x2, as in Fig. 7

  EXPECT_TRUE(nd.log().contains("name: callregister"));
  EXPECT_TRUE(nd.log().contains("shorty: ILLLLLLLII"));
  EXPECT_TRUE(nd.log().contains("TrustCallHandler[GetStringUTFChars]"));
}

// --- Engine-level behaviours -------------------------------------------------

TEST(Engines, SourcePolicyLifecycle) {
  Device device;
  NDroid nd(device);
  const LeakScenario app = apps::build_case2(device);
  device.dvm.call(*app.entry, {});
  EXPECT_GE(nd.dvm_hooks().source_policies_created, 1u);
  EXPECT_GE(nd.dvm_hooks().source_policies_applied, 1u);
  // Fig. 8 log structure.
  EXPECT_TRUE(nd.log().contains("name: recordContact"));
  EXPECT_TRUE(nd.log().contains("shorty: ZLLL"));
  EXPECT_TRUE(nd.log().contains("Find a source function"));
  EXPECT_TRUE(nd.log().contains("SinkHandler[fprintf]"));
  EXPECT_TRUE(nd.log().contains("TrustCallHandler[fopen]"));
  EXPECT_TRUE(nd.log().contains("Open '/sdcard/CONTACTS'"));
  EXPECT_TRUE(nd.log().contains("write: Vincent"));
}

TEST(Engines, FaultedNativeCallsLeaveNoJniCallRecord) {
  // A GuestFault inside a native method skips its bridge-exit events and
  // the exits of the JNI functions it was in; the Dvm::call unwind drops
  // the call's record and that state, so the exit phase machine never runs
  // on a dead call and nothing grows.
  Device device;
  NDroid nd(device);
  // TaintDroid's argument-union return policy off: the return taint below
  // can only come from NDroid's bridge-exit repair.
  device.dvm.policy().jni_ret_union = false;
  apps::NativeLibBuilder lib(device, "libfaulty.so");
  auto& a = lib.a();
  using arm::R;
  // int nullField(env, cls): GetIntField(env, NULL, NULL) faults.
  const GuestAddr null_field = lib.fn();
  a.push({R(4), arm::LR});
  a.mov_imm(R(1), 0);
  a.mov_imm(R(2), 0);
  a.call(device.jni.fn("GetIntField"));
  a.pop({R(4), arm::PC});
  // int badRef(env, cls, fid): GetIntField(env, <bogus reference>, fid)
  // faults after NDroid's accessor hook queued its exit action.
  const GuestAddr bad_ref = lib.fn();
  a.push({R(4), arm::LR});
  a.mov_imm32(R(1), 0x12345);
  a.call(device.jni.fn("GetIntField"));
  a.pop({R(4), arm::PC});
  // int echo(env, cls, x): return x.
  const GuestAddr echo = lib.fn();
  a.mov(R(0), R(2));
  a.ret();
  lib.install();
  dvm::ClassObject* cls = device.dvm.define_class("Lfaulty;");
  constexpr u32 kStatic = dvm::kAccPublic | dvm::kAccStatic;
  cls->add_instance_field("x", 'I');
  const GuestAddr fid = device.dvm.field_id(cls, "x", false);
  dvm::Method* faulty =
      device.dvm.define_native(cls, "nullField", "I", kStatic, null_field);
  dvm::Method* bad =
      device.dvm.define_native(cls, "badRef", "II", kStatic, bad_ref);
  dvm::Method* echo_m =
      device.dvm.define_native(cls, "echo", "II", kStatic, echo);

  // An address no hook targets: wants_branch() is false for it while no
  // per-call state is pending.
  const GuestAddr quiet = echo + 0x100;
  ASSERT_FALSE(nd.dvm_hooks().wants_branch(quiet));
  u32 faults = 0;
  for (u32 i = 0; i < 1000; ++i) {
    try {
      device.dvm.call(*faulty, {});
    } catch (const GuestFault&) {
      ++faults;
    }
    try {
      device.dvm.call(*bad, {dvm::Slot{fid, 0}});
    } catch (const GuestFault&) {
      ++faults;
    }
  }
  EXPECT_EQ(faults, 2000u);
  EXPECT_EQ(nd.dvm_hooks().jni_calls_in_flight(), 0u);
  EXPECT_FALSE(nd.dvm_hooks().wants_branch(quiet));

  const dvm::Slot r = device.dvm.call(*echo_m, {dvm::Slot{7, kTaintImei}});
  EXPECT_EQ(r.value, 7u);
  EXPECT_EQ(r.taint, kTaintImei);
  EXPECT_EQ(nd.dvm_hooks().jni_calls_in_flight(), 0u);
}

TEST(Engines, FaultedModelCallLeavesNoPendingExit) {
  // malloc's model queues an exit action at entry; a size past the guest
  // heap faults inside malloc, so that exit never fires. The Dvm::call
  // unwind drops it: wants_branch() goes quiet again, and a later model
  // call's exit fires and retires. The size arguments are tainted: with no
  // live taint the liveness fast path skips the model altogether.
  Device device;
  NDroid nd(device);
  apps::NativeLibBuilder lib(device, "liballoc.so");
  auto& a = lib.a();
  using arm::R;
  // int alloc(env, cls, size): return malloc(size).
  const GuestAddr alloc = lib.fn();
  a.push({R(4), arm::LR});
  a.mov(R(0), R(2));
  a.call(device.libc.fn("malloc"));
  a.pop({R(4), arm::PC});
  lib.install();
  dvm::ClassObject* cls = device.dvm.define_class("Lalloc;");
  dvm::Method* alloc_m = device.dvm.define_native(
      cls, "alloc", "II", dvm::kAccPublic | dvm::kAccStatic, alloc);

  // An address no hook targets: wants_branch() is false for it while no
  // model exit is pending.
  const GuestAddr quiet = 0x4;
  ASSERT_FALSE(nd.syslib().wants_branch(quiet));
  EXPECT_THROW(
      device.dvm.call(*alloc_m, {dvm::Slot{0x7fff0000, kTaintImei}}),
      GuestFault);
  EXPECT_FALSE(nd.syslib().wants_branch(quiet));

  const u64 models = nd.syslib().models_applied();
  const dvm::Slot r = device.dvm.call(*alloc_m, {dvm::Slot{16, kTaintImei}});
  EXPECT_NE(r.value, 0u);
  EXPECT_EQ(nd.syslib().models_applied(), models + 1);
  EXPECT_FALSE(nd.syslib().wants_branch(quiet));

  // A clean call applies no model.
  EXPECT_NE(device.dvm.call(*alloc_m, {dvm::Slot{16, 0}}).value, 0u);
  EXPECT_EQ(nd.syslib().models_applied(), models + 1);
}

TEST(Engines, QuietEdgeMemoVoidedWhenTaintAppears) {
  // A loop calls strlen, then makes an SVC. While nothing is tainted the
  // edge into strlen is memoised as quiet (the model is skipped) on the
  // loop-head block (the second iteration's: the first runs the function's
  // entry block). The second SVC taints the string; SVCs fire no branch
  // hook, so only the liveness flip moves the branch-gate epoch. The third
  // strlen call must ask the gate again, fire the model, and return a
  // tainted r0.
  Device device;
  NDroid nd(device);
  constexpr GuestAddr kStr = 0x30100000;
  constexpr u32 kTaintSvc = 0x77;
  device.memory.write_cstr(kStr, "12345");
  u32 svcs = 0;
  device.cpu.set_svc_handler([&](arm::Cpu&, u32 number) {
    ASSERT_EQ(number, kTaintSvc);
    if (svcs++ == 1) nd.taint_engine().map().set_range(kStr, 5, kTaintImei);
  });
  apps::NativeLibBuilder lib(device, "libstrlen.so");
  auto& a = lib.a();
  using arm::R;
  // int len3(const char* s): 3 times { strlen(s); svc }.
  const GuestAddr len3 = lib.fn();
  arm::Label loop;
  a.push({R(4), R(5), arm::LR});
  a.mov(R(4), R(0));
  a.mov_imm(R(5), 3);
  a.bind(loop);
  a.mov(R(0), R(4));
  a.call(device.libc.fn("strlen"));
  a.svc(kTaintSvc);
  a.sub_imm(R(5), R(5), 1, /*s=*/true);
  a.b(loop, arm::Cond::kNE);
  a.pop({R(4), R(5), arm::PC});
  lib.install();

  EXPECT_EQ(device.cpu.call_function(len3, {kStr}), 5u);
  EXPECT_EQ(svcs, 3u);
  EXPECT_EQ(nd.syslib().models_applied(), 1u);
  EXPECT_EQ(nd.taint_engine().reg(0), kTaintImei);
}

TEST(Engines, MultilevelChainFiresT1ToT6) {
  Device device;
  NDroid nd(device);
  const LeakScenario app = apps::build_case3(device);
  device.dvm.call(*app.entry, {});
  for (int i = 0; i < 6; ++i) {
    EXPECT_GE(nd.dvm_hooks().chain_events[i], 1u) << "T" << (i + 1);
  }
  EXPECT_GE(nd.dvm_hooks().jni_exit_restores, 1u);
  // Fig. 9 log structure.
  EXPECT_TRUE(nd.log().contains("Method Name: nativeCallback"));
  EXPECT_TRUE(nd.log().contains("Method Shorty: VL"));
  EXPECT_TRUE(nd.log().contains("add taint to new method frame"));
}

TEST(Engines, TracerCountsThirdPartyInstructionsOnly) {
  Device device;
  NDroid nd(device);
  const LeakScenario app = apps::build_case1(device);
  device.dvm.call(*app.entry, {});
  // Only the two-instruction native method is third-party code here.
  EXPECT_GE(nd.tracer().instructions_traced(), 1u);
  EXPECT_LE(nd.tracer().instructions_traced(), 16u);
}

TEST(Engines, HandlerCacheHitsOnHotLoops) {
  Device device;
  NDroid nd(device);
  const LeakScenario app = apps::build_case1_prime(device);
  device.dvm.call(*app.entry, {});
  EXPECT_GT(nd.tracer().cache_hits(), 0u);
}

TEST(Engines, ModelsVsInstructionTracingEquivalence) {
  // Property: taints propagated through libc's strcpy must be identical
  // whether the function is modeled (Table VI) or traced instruction by
  // instruction (ablation scope kThirdPartyAndLibc).
  for (const bool models : {true, false}) {
    Device device;
    NDroidConfig cfg;
    cfg.syslib_models = models;
    if (!models) cfg.scope = NDroidConfig::Scope::kThirdPartyAndLibc;
    NDroid nd(device, cfg);
    const LeakScenario app = apps::build_case1_prime(device);
    device.dvm.call(*app.entry, {});
    EXPECT_FALSE(device.framework.leaks().empty())
        << "models=" << models;
  }
}

TEST(Engines, DroidScopeModeDetectsNothingNewButTracksEverything) {
  Device device;
  NDroid nd(device, NDroidConfig::droidscope_mode());
  const LeakScenario app = apps::build_case2(device);
  device.dvm.call(*app.entry, {});
  // Whole-system tracing covers the app lib plus libdvm/libc guest stubs.
  EXPECT_GT(nd.tracer().instructions_traced(), 40u);
  // No JNI semantics, no native sink checks -> no new flows (§II-C).
  EXPECT_TRUE(nd.leaks().empty());
  EXPECT_TRUE(device.framework.leaks().empty());
}

TEST(Engines, NoFalsePositiveOnCleanApp) {
  Device device;
  NDroid nd(device);
  // An app that sends only untainted data through the same code paths.
  auto& dvm = device.dvm;
  dvm::ClassObject* app = dvm.define_class("Lclean/App;");
  dvm::Method* sink = device.framework.network->find_method("send");
  dvm::CodeBuilder cb;
  cb.const_string(0, "ads.example.com")
      .const_string(1, "nothing sensitive")
      .invoke(sink, {0, 1})
      .return_void();
  dvm::Method* entry = dvm.define_method(
      app, "main", "V", dvm::kAccPublic | dvm::kAccStatic, 2, cb.take());
  dvm.call(*entry, {});
  EXPECT_TRUE(nd.leaks().empty());
  EXPECT_TRUE(device.framework.leaks().empty());
}

TEST(Engines, DetectionSurvivesGcBetweenJniCalls) {
  // The case-1' flow with a moving (semi-space) GC between the two JNI calls: the
  // string objects move (direct pointers change) but detection must still
  // work — NDroid keys Java-object shadows by indirect reference and the
  // native-side buffer taints are unaffected (paper §II-A/§V-B rationale).
  Device device;
  NDroid nd(device);
  auto& dvm = device.dvm;

  // Rebuild case 1' piecewise so we can interleave a GC.
  const LeakScenario scenario = apps::build_case1_prime(device);
  dvm::ClassObject* app = dvm.find_class("Lcase1p/App;");
  dvm::Method* store = app->find_method("storeSecret");
  dvm::Method* get = app->find_method("getPostUrl");
  dvm::Method* src = device.framework.contacts->find_method("queryContacts");
  dvm::Method* sink = device.framework.network->find_method("send");
  (void)scenario;

  const dvm::Slot contacts = dvm.call(*src, {});
  dvm.call(*store, {contacts});

  // Force movement: allocate filler, then compact.
  for (int i = 0; i < 16; ++i) dvm.new_string("filler");
  dvm.run_gc();

  const dvm::Slot url = dvm.call(*get, {});
  dvm::Object* host = dvm.new_string("gc.collect.example.com");
  dvm.call(*sink, {dvm::Slot{host->addr(), 0}, url});

  ASSERT_FALSE(device.framework.leaks().empty());
  EXPECT_EQ(device.framework.leaks()[0].taint, kTaintContacts);
}

TEST(Engines, DirectDvmCallMethodBypassesChainGate) {
  // A direct branch to dvmCallMethodV that does NOT come through a
  // Call*Method stub never satisfies T2, so with multilevel hooking the
  // frame-restore machinery must stay quiet (no pending taints collected).
  Device device;
  NDroid nd(device);
  auto& dvm = device.dvm;
  dvm::ClassObject* cls = dvm.define_class("Ldirect/Cb;");
  dvm::CodeBuilder cb;
  cb.return_void();
  dvm::Method* m = dvm.define_method(cls, "cb", "V",
                                     dvm::kAccPublic | dvm::kAccStatic, 1,
                                     cb.take());
  const GuestAddr result = dvm.data_alloc(8);
  device.cpu.call_function(dvm.call_method_stub('V'),
                           {m->guest_addr, 0, result, 0});
  EXPECT_EQ(nd.dvm_hooks().chain_events[1], 0u);  // T2 never matched
  EXPECT_EQ(nd.dvm_hooks().jni_exit_restores, 0u);
}

TEST(Engines, GcSurvivalOfObjectShadow) {
  // Taint keyed by indirect reference must survive a GC that moves the
  // object (the reason NDroid uses irefs as keys, §V-B).
  Device device;
  NDroid nd(device);
  dvm::Object* s = device.dvm.new_string("secret-payload");
  const u32 iref = device.dvm.irt().add(s);
  nd.taint_engine().add_object_shadow(iref, kTaintImei);
  device.dvm.new_string("fill");
  device.dvm.run_gc();
  EXPECT_EQ(nd.taint_engine().object_shadow(iref), kTaintImei);
  EXPECT_EQ(device.dvm.irt().decode(iref), s);
}

}  // namespace
}  // namespace ndroid::core
