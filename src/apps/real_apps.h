// The real applications from the paper's evaluation (§VI), rebuilt from the
// information-flow structure documented in Figs. 6 and 7:
//
//  * QQPhoneBook 3.5 — Lcom/tencent/tccsync/LoginUtil;:
//    makeLoginRequestPackageMd5 (shorty IILLLLLLLLII) receives SMS+contacts
//    data in args[3] (taint 0x202); the native library keeps it; getPostUrl
//    later wraps it into a new String via NewStringUTF and Java posts it to
//    sync.3g.qq.com. A case-1' flow.
//
//  * ePhone 3.3 — Lcom/vnet/asip/general/general;: callregister (shorty
//    ILLLLLLLII) receives contact data in args[2] (taint 0x2); the native
//    code converts it with GetStringUTFChars, builds a SIP REGISTER with
//    memcpy/sprintf, and sendto()s it to softphone.comwave.net. A case-2
//    flow.
#pragma once

#include "apps/leak_cases.h"

namespace ndroid::apps {

LeakScenario build_qq_phonebook(android::Device& device);
LeakScenario build_ephone(android::Device& device);

/// libtccsync.so and libephone.so, which the builders load through
/// load_app_lib: emitted once per process.
void emit_tccsync(NativeLibBuilder& lib, const android::Device& device);
void emit_ephone(NativeLibBuilder& lib, const android::Device& device);

}  // namespace ndroid::apps
