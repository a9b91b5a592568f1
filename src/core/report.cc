#include "core/report.h"

#include <cstdio>

#include "arm/decoder.h"
#include "dvm/method.h"

namespace ndroid::core {

namespace {

void append_hex(std::string& out, u32 v) {
  char buf[16];
  const int n = std::snprintf(buf, sizeof buf, "%x", v);
  out.append(buf, static_cast<std::size_t>(n));
}

void append_dec(std::string& out, u32 v) { out += std::to_string(v); }

/// The instruction a kDisasm record names: decoding is a pure function of
/// the encoding, so the record keeps the raw bits instead of the Insn.
arm::Insn redecode(u32 raw, bool thumb) {
  if (!thumb) return arm::decode_arm(raw);
  const auto hw = static_cast<u16>(raw >> 16);
  if (arm::is_thumb32(hw)) return arm::decode_thumb(hw, static_cast<u16>(raw));
  return arm::decode_thumb(static_cast<u16>(raw), 0);
}

/// Kinds whose records carry copied text (their b and c locate it).
bool has_text(TraceKind kind) {
  return kind == TraceKind::kText || kind == TraceKind::kOpen ||
         kind == TraceKind::kFormatWrite || kind == TraceKind::kSvcSink;
}

}  // namespace

void TraceLog::render(std::string& out, const TraceEvent& e,
                      std::string_view text) {
  using K = TraceKind;
  switch (e.kind) {
    case K::kText:
      out += text;
      return;
    case K::kTag:
      out += e.ref.tag;
      return;
    case K::kJniName:
      out += "name: ";
      out += e.ref.method->name;
      return;
    case K::kJniShorty:
      out += "shorty: ";
      out += e.ref.method->shorty;
      return;
    case K::kJniClass:
      out += "class: ";
      out += e.ref.method->clazz->descriptor();
      return;
    case K::kJniInsnAddr:
      out += "insnAddr: ";
      append_hex(out, e.a);
      return;
    case K::kJniArg:
      out += "args[";
      append_dec(out, e.a);
      out += "]@0x";
      append_hex(out, e.b);
      out += ' ';
      out += e.type;
      if (e.type == 'L') out += " Ljava/lang/String;";
      out += "  taint: 0x";
      append_hex(out, e.c);
      return;
    case K::kSourceFound:
      out += "Find a source function @0x";
      append_hex(out, e.a);
      return;
    case K::kShadowDec:
      out += "t(";
      append_hex(out, e.a);
      out += ") := ";
      append_dec(out, e.b);
      return;
    case K::kShadowHex:
      out += "t(";
      append_hex(out, e.a);
      out += ") := 0x";
      append_hex(out, e.b);
      return;
    case K::kInterpName:
      out += "Method Name: ";
      out += e.ref.method->name;
      return;
    case K::kInterpShorty:
      out += "Method Shorty: ";
      out += e.ref.method->shorty;
      return;
    case K::kInterpInsSize:
      out += "Method insSize: ";
      append_dec(out, e.a);
      return;
    case K::kInterpRegSize:
      out += "Method registerSize: ";
      append_dec(out, e.a);
      return;
    case K::kInterpFrame:
      out += "curFrame@0x";
      append_hex(out, e.a);
      return;
    case K::kInterpAccess:
      out += "Method AccessFlag: 0x";
      append_hex(out, e.a);
      return;
    case K::kFrameArg:
      out += "args[";
      append_dec(out, e.a);
      out += "] taint: 0x";
      append_hex(out, e.b);
      return;
    case K::kFrameTaint:
      out += "add taint to new method frame t[";
      append_hex(out, e.a);
      out += "] = 0x";
      append_hex(out, e.b);
      return;
    case K::kNofBegin:
      out += e.ref.tag;
      out += " Begin";
      return;
    case K::kNofReturn:
      out += e.ref.tag;
      out += " return 0x";
      append_hex(out, e.a);
      return;
    case K::kNofEnd:
      out += e.ref.tag;
      out += " End";
      return;
    case K::kAllocReturn:
      out += "dvm allocation return 0x";
      append_hex(out, e.a);
      return;
    case K::kRealAddr:
      out += "realStringAddr:0x";
      append_hex(out, e.a);
      return;
    case K::kObjectTaint:
    case K::kExceptionTaint:
      out += "add taint ";
      append_dec(out, e.a);
      out += e.kind == K::kObjectTaint ? " to new string object@0x"
                                       : " to exception message@0x";
      append_hex(out, e.b);
      return;
    case K::kFieldSet:
      out += "Set";
      out += e.type;
      out += "Field ";
      out += e.ref.field->name;
      out += " taint: 0x";
      append_hex(out, e.a);
      return;
    case K::kJstringTaint:
      out += "jstring taint:";
      append_dec(out, e.a);
      return;
    case K::kOpen:
      out += "Open '";
      out += text;
      out += '\'';
      return;
    case K::kClose:
      out += "Close FILE@";
      append_dec(out, e.a);
      return;
    case K::kFormatArgTaint:
      out += "t[";
      append_dec(out, e.a);
      out += "] = ";
      append_dec(out, e.b);
      return;
    case K::kFormatWrite:
      out += "write: ";
      out += text;
      return;
    case K::kSvcSink:
      out += "SinkHandler[";
      out += e.ref.tag;
      out += "] taint=0x";
      append_dec(out, e.a);
      out += " dest=";
      out += text;
      return;
    case K::kDisasm: {
      char buf[16];
      std::snprintf(buf, sizeof buf, "%08x  ", e.a);
      out += buf;
      out += arm::disassemble(redecode(e.b, e.type != 0), e.a);
      return;
    }
  }
}

void TraceLog::print(const TraceEvent& e, std::string_view text) {
  std::string s;
  render(s, e, text);
  s += '\n';
  std::fputs(s.c_str(), stdout);
}

const std::vector<std::string>& TraceLog::lines() const {
  rendered_.reserve(events_.size());
  const std::string_view arena(text_);
  for (std::size_t i = rendered_.size(); i < events_.size(); ++i) {
    const TraceEvent& e = events_[i];
    std::string& line = rendered_.emplace_back();
    render(line, e, has_text(e.kind) ? arena.substr(e.b, e.c) : "");
  }
  return rendered_;
}

}  // namespace ndroid::core
