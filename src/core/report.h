// Leak reports and the analysis trace log.
//
// The trace log reproduces the style of the paper's case-study figures
// (Figs. 6-9): one line per analysis event — method info at dvmCallJNIMethod,
// SourcePolicy application, TrustCall handlers, sink handlers. Hooks record
// fixed-size typed events; the lines are rendered when the log is read.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "arm/cpu.h"
#include "common/types.h"

namespace ndroid::dvm {
struct Field;
struct Method;
}  // namespace ndroid::dvm

namespace ndroid::core {

/// Substrate performance counters (translation-block cache + fast paths),
/// collected from a Cpu for benchmarks and tests.
struct PerfCounters {
  u64 tb_lookups = 0;
  u64 tb_hits = 0;
  u64 tb_translations = 0;
  u64 tb_invalidated = 0;
  u64 tb_flushes = 0;
  u64 fastpath_blocks = 0;  // blocks executed with all insn hooks skipped
  u64 fastpath_insns = 0;   // instructions those blocks retired
  u64 decode_lookups = 0;
  u64 decode_hits = 0;
  u64 threaded_links = 0;    // block transitions that stayed in-loop
  u64 threaded_patches = 0;  // direct-link exit slots (re)patched
  // Always 0: no tier compiles host code; kept for the e2e benchmark's reads.
  u64 jit_blocks = 0;
  u64 jit_traced_blocks = 0;
  u64 jit_fallback_blocks = 0;

  [[nodiscard]] double tb_hit_rate() const {
    return tb_lookups == 0
               ? 0.0
               : static_cast<double>(tb_hits) / static_cast<double>(tb_lookups);
  }
};

inline PerfCounters collect_perf(const arm::Cpu& cpu) {
  const arm::TbCache& tb = cpu.tb_cache();
  PerfCounters c;
  c.tb_lookups = tb.lookups();
  c.tb_hits = tb.hits();
  c.tb_translations = tb.translations();
  c.tb_invalidated = tb.invalidated_blocks();
  c.tb_flushes = tb.flushes();
  c.fastpath_blocks = cpu.fastpath_blocks();
  c.fastpath_insns = cpu.fastpath_insns();
  c.decode_lookups = cpu.decode_lookups();
  c.decode_hits = cpu.decode_hits();
  c.threaded_links = cpu.threaded_links();
  c.threaded_patches = cpu.threaded_patches();
  return c;
}

/// A leak NDroid detected at a native-context sink (Table VII's starred
/// functions: write*, send*, sendto*, fwrite*, fputc*, fputs*, fprintf).
struct NativeLeak {
  std::string sink;         // function name, e.g. "sendto", "fprintf"
  std::string destination;  // remote host or file path
  Taint taint = kTaintClear;
  std::string data;         // bytes that reached the sink
  GuestAddr pc = 0;         // where the sink call happened
};

/// Aggregate view over a leak list (reporting convenience).
struct LeakSummary {
  u32 total = 0;
  Taint taint_union = kTaintClear;
  std::map<std::string, u32> by_sink;
  std::map<std::string, u32> by_destination;
};

inline LeakSummary summarize(const std::vector<NativeLeak>& leaks) {
  LeakSummary s;
  for (const NativeLeak& leak : leaks) {
    ++s.total;
    s.taint_union |= leak.taint;
    ++s.by_sink[leak.sink];
    ++s.by_destination[leak.destination];
  }
  return s;
}

/// What one trace record says. Each kind renders as one line of the
/// paper's Figs. 6-9 trace text; the comment gives the line, with `a`, `b`,
/// `c` the record's operands (hex or decimal as shown), `text` its copied
/// text and `tag` / `method` / `field` its host reference.
enum class TraceKind : u8 {
  kText,            // text
  kTag,             // tag                 (a static label, e.g. SourceHandler)
  // DVM hook engine: JNI entry (dvmCallJNIMethod) and the SourcePolicy.
  kJniName,         // name: method->name
  kJniShorty,       // shorty: method->shorty
  kJniClass,        // class: method->clazz->descriptor()
  kJniInsnAddr,     // insnAddr: hex(a)
  kJniArg,          // args[a]@0x hex(b) type[ Ljava/lang/String;]
                    //   taint: 0x hex(c)   (two spaces before "taint")
  kSourceFound,     // Find a source function @0x hex(a)
  kShadowDec,       // t(hex(a)) := b
  kShadowHex,       // t(hex(a)) := 0x hex(b)
  // JNI exit: dvmInterpret behind the T1..T6 chain.
  kInterpName,      // Method Name: method->name
  kInterpShorty,    // Method Shorty: method->shorty
  kInterpInsSize,   // Method insSize: a
  kInterpRegSize,   // Method registerSize: a
  kInterpFrame,     // curFrame@0x hex(a)
  kInterpAccess,    // Method AccessFlag: 0x hex(a)
  kFrameArg,        // args[a] taint: 0x hex(b)
  kFrameTaint,      // add taint to new method frame t[hex(a)] = 0x hex(b)
  // Object creation (NOF/MAF pairs), field access, TrustCalls, exceptions.
  kNofBegin,        // tag Begin
  kNofReturn,       // tag return 0x hex(a)
  kNofEnd,          // tag End
  kAllocReturn,     // dvm allocation return 0x hex(a)
  kRealAddr,        // realStringAddr:0x hex(a)
  kObjectTaint,     // add taint a to new string object@0x hex(b)
  kFieldSet,        // Set type Field field->name taint: 0x hex(a)
  kJstringTaint,    // jstring taint:a
  kExceptionTaint,  // add taint a to exception message@0x hex(b)
  // System lib hook engine: TrustCalls and sinks.
  kOpen,            // Open 'text'
  kClose,           // Close FILE@a
  kFormatArgTaint,  // t[a] = b
  kFormatWrite,     // write: text
  kSvcSink,         // SinkHandler[tag] taint=0x a dest=text   (a in decimal)
  // Instruction tracer (trace_disassembly).
  kDisasm,          // %08x(a)  disassembly of encoding b (type 1: Thumb)
};

/// One trace record: a fixed-size event the hooks fill in place of a
/// formatted line. Names are pointers to host data that outlives the log's
/// readers (the analysed Device's Methods and Fields, static strings);
/// guest strings are copied into the log at record time.
struct TraceEvent {
  TraceKind kind = TraceKind::kText;
  char type = 0;  // JNI type letter (kJniArg, kFieldSet); Thumb flag (kDisasm)
  u32 a = 0;
  u32 b = 0;  // text events: offset of the text in the log's arena
  u32 c = 0;  // text events: length of the text
  union Ref {
    const char* tag;
    const dvm::Method* method;
    const dvm::Field* field;
  } ref{nullptr};
};
static_assert(sizeof(TraceEvent) == 24);

/// The analysis trace log. Hooks record typed events; text is produced
/// only when someone reads the log (lines(), contains()) or echoes it.
/// The first kMaxLines records are kept and the rest only counted.
class TraceLog {
 public:
  void add(const TraceEvent& e) {
    if (echo) print(e, {});
    if (events_.size() >= kMaxLines) {
      ++dropped_;
      return;
    }
    events_.push_back(e);
  }
  /// Records `e` with a copy of `text`.
  void add(TraceEvent e, std::string_view text) {
    add_copy(e, text.size(), [&](char* out) { text.copy(out, text.size()); });
  }
  /// Records `e` with a copy of the `len` guest bytes at `addr`.
  void add(TraceEvent e, const mem::AddressSpace& memory, GuestAddr addr,
           u32 len) {
    add_copy(e, len, [&](char* out) {
      memory.read_bytes(addr, {reinterpret_cast<u8*>(out), len});
    });
  }
  /// Records a static label.
  void tag(const char* label) {
    add({.kind = TraceKind::kTag, .ref = {.tag = label}});
  }
  /// Records free text.
  void line(std::string_view s) { add({.kind = TraceKind::kText}, s); }

  /// The records rendered as text, one line each (rendered on first read,
  /// then kept).
  [[nodiscard]] const std::vector<std::string>& lines() const;
  [[nodiscard]] bool contains(std::string_view needle) const {
    for (const std::string& l : lines()) {
      if (l.find(needle) != std::string::npos) return true;
    }
    return false;
  }
  /// Drops every kept record; dropped() keeps counting.
  void clear() {
    events_.clear();
    text_.clear();
    rendered_.clear();
  }

  [[nodiscard]] u64 dropped() const { return dropped_; }

  /// Echo to stdout as records arrive, past the cap too (the figure benches
  /// enable this).
  bool echo = false;

  static constexpr std::size_t kMaxLines = 65536;

 private:
  template <class Fill>
  void add_copy(TraceEvent e, std::size_t len, Fill fill) {
    // Text offsets are 32-bit: a record that would take the kept text past
    // 4 GiB counts as dropped, like one past the cap.
    const bool keep = events_.size() < kMaxLines &&
                      text_.size() + len <= UINT32_MAX;
    if (!keep && !echo) {
      ++dropped_;
      return;
    }
    const std::size_t at = text_.size();
    text_.resize(at + len);
    fill(text_.data() + at);
    if (echo) print(e, std::string_view(text_).substr(at, len));
    if (!keep) {
      text_.resize(at);
      ++dropped_;
      return;
    }
    e.b = static_cast<u32>(at);
    e.c = static_cast<u32>(len);
    events_.push_back(e);
  }
  static void render(std::string& out, const TraceEvent& e,
                     std::string_view text);
  static void print(const TraceEvent& e, std::string_view text);

  std::vector<TraceEvent> events_;
  std::string text_;  // the copied text of every kept record, back to back
  mutable std::vector<std::string> rendered_;  // lines() of events_[0, n)
  u64 dropped_ = 0;
};

}  // namespace ndroid::core
