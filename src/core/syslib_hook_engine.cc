#include "core/syslib_hook_engine.h"

#include <algorithm>
#include <memory>
#include <mutex>

namespace ndroid::core {

namespace {
/// Listing 3: OR-copy of taints from src to dst (page-chunked; falls back
/// to the per-byte cascade only when the ranges overlap).
void memcpy_taint(mem::ShadowMemory& map, GuestAddr dst, GuestAddr src,
                  u32 n) {
  map.or_copy_range(dst, src, n);
}
}  // namespace

SysLibHookEngine::SysLibHookEngine(libc::Libc& libc, os::Kernel& kernel,
                                   TaintEngine& engine, TraceLog& log,
                                   bool models_enabled, bool skip_clean_models)
    : libc_(libc),
      kernel_(kernel),
      engine_(engine),
      log_(log),
      table_(hook_table(libc.symbols(), models_enabled)),
      skip_clean_models_(skip_clean_models) {}

const SysLibHookEngine::HookTable& SysLibHookEngine::hook_table(
    const std::map<std::string, GuestAddr>& symbols, bool models_enabled) {
  struct Built {
    const std::map<std::string, GuestAddr>* symbols;
    bool models_enabled;
    HookTable table;
  };
  static std::mutex mu;
  static std::vector<std::unique_ptr<const Built>> tables;
  std::lock_guard lock(mu);
  for (const auto& b : tables) {
    if (b->symbols == &symbols && b->models_enabled == models_enabled) {
      return b->table;
    }
  }
  tables.push_back(std::make_unique<const Built>(
      Built{&symbols, models_enabled, build_table(symbols, models_enabled)}));
  return tables.back()->table;
}

u32 SysLibHookEngine::guest_strlen(arm::Cpu& cpu, GuestAddr s) {
  // Word-at-a-time scan (the helper is hot inside Table VI models).
  u32 n = 0;
  while (n < (1u << 20)) {
    const u32 w = cpu.memory().read32(s + n);
    if ((w & 0xFF) == 0) return n;
    if ((w & 0xFF00) == 0) return n + 1;
    if ((w & 0xFF0000) == 0) return n + 2;
    if ((w & 0xFF000000) == 0) return n + 3;
    n += 4;
  }
  return n;
}

void SysLibHookEngine::defer_exit(arm::Cpu& cpu, ExitKind kind, u32 a, u32 b,
                                  u32 c, u32 d) {
  exits_.push_back(PendingExit{kind, cpu.state().lr() & ~1u, cpu.state().sp(),
                               a, b, c, d});
}

void SysLibHookEngine::run_exit(arm::Cpu& cpu, const PendingExit& e) {
  auto& map = engine_.map();
  const GuestAddr ret = cpu.state().regs[0];
  switch (e.kind) {
    case ExitKind::kCopyToResult:
      map.copy_range(ret, e.a, e.b);  // a fresh block
      return;
    case ExitKind::kResultFromRange:
      engine_.set_reg(0, map.get_range(e.a, e.b));
      return;
    case ExitKind::kResultFromRanges:
      engine_.set_reg(0, map.get_range(e.a, e.c) | map.get_range(e.b, e.d));
      return;
    case ExitKind::kResultAddTaint:
      engine_.add_reg(0, e.a);
      return;
    case ExitKind::kResultSetTaint:
      engine_.set_reg(0, e.a);
      return;
    case ExitKind::kClearResult:
      map.clear_range(ret, e.a);
      return;
    case ExitKind::kRealloc:
      if (ret == e.a) return;
      map.copy_range(ret, e.a, e.c);
      map.clear_range(ret + e.c, e.b - e.c);
      return;
  }
}

void SysLibHookEngine::drop_exits_below(GuestAddr sp) {
  while (!exits_.empty() && exits_.back().sp <= sp) exits_.pop_back();
}

void SysLibHookEngine::on_branch(arm::Cpu& cpu, GuestAddr /*from*/,
                                 GuestAddr to) {
  if (!exits_.empty() && exits_.back().ret_to == to) {
    const PendingExit exit = exits_.back();
    exits_.pop_back();
    run_exit(cpu, exit);
    return;
  }
  const EntryHook* hook = find_by_addr(table_.hooks, to);
  if (hook == nullptr || (hook->model && !models_live())) return;
  ++models_applied_;
  hook->fn(*this, cpu);
}

SysLibHookEngine::HookTable SysLibHookEngine::build_table(
    const std::map<std::string, GuestAddr>& symbols, bool models_enabled) {
  using Fn = void (*)(SysLibHookEngine&, arm::Cpu&);
  std::vector<EntryHook> hooks;
  // Everything added while `model` is set is a Table VI model.
  bool model = true;
  auto add = [&](const char* name, Fn fn) {
    hooks.push_back(EntryHook{symbols.at(name), name, fn, model});
  };

  // -------------------------------------------------------------------------
  // Table VI models
  // -------------------------------------------------------------------------
  if (models_enabled) {
    add("memcpy", [](SysLibHookEngine& e, arm::Cpu& c) {
      const auto& r = c.state().regs;
      memcpy_taint(e.engine_.map(), r[0], r[1], r[2]);
    });
    add("memmove", [](SysLibHookEngine& e, arm::Cpu& c) {
      const auto& r = c.state().regs;
      e.engine_.map().copy_range(r[0], r[1], r[2]);
    });
    add("memset", [](SysLibHookEngine& e, arm::Cpu& c) {
      const auto& r = c.state().regs;
      e.engine_.map().set_range(r[0], r[2], e.engine_.reg(1));
    });

    add("strcpy", [](SysLibHookEngine& e, arm::Cpu& c) {
      const auto& r = c.state().regs;
      memcpy_taint(e.engine_.map(), r[0], r[1], e.guest_strlen(c, r[1]) + 1);
    });
    add("strncpy", [](SysLibHookEngine& e, arm::Cpu& c) {
      const auto& r = c.state().regs;
      auto& map = e.engine_.map();
      const u32 len = std::min(e.guest_strlen(c, r[1]) + 1, r[2]);
      memcpy_taint(map, r[0], r[1], len);
      if (len < r[2]) map.clear_range(r[0] + len, r[2] - len);
    });
    add("strcat", [](SysLibHookEngine& e, arm::Cpu& c) {
      const auto& r = c.state().regs;
      const u32 dlen = e.guest_strlen(c, r[0]);
      memcpy_taint(e.engine_.map(), r[0] + dlen, r[1],
                   e.guest_strlen(c, r[1]) + 1);
    });
    add("strdup", [](SysLibHookEngine& e, arm::Cpu& c) {
      const GuestAddr src = c.state().regs[0];
      e.defer_exit(c, ExitKind::kCopyToResult, src, e.guest_strlen(c, src) + 1);
    });

    // Result-tainting models: t(ret) = union over examined bytes.
    const Fn ret_from_string = [](SysLibHookEngine& e, arm::Cpu& c) {
      const GuestAddr s = c.state().regs[0];
      e.defer_exit(c, ExitKind::kResultFromRange, s, e.guest_strlen(c, s));
    };
    for (const char* name :
         {"strlen", "atoi", "atol", "strtoul", "strtol", "strtod"}) {
      add(name, ret_from_string);
    }

    const Fn ret_from_two_strings = [](SysLibHookEngine& e, arm::Cpu& c) {
      const GuestAddr a = c.state().regs[0];
      const GuestAddr b = c.state().regs[1];
      const u32 la = e.guest_strlen(c, a);
      const u32 lb = e.guest_strlen(c, b);
      e.defer_exit(c, ExitKind::kResultFromRanges, a, b, la, lb);
    };
    add("strcmp", ret_from_two_strings);
    add("strcasecmp", ret_from_two_strings);
    const Fn ret_from_two_ranges = [](SysLibHookEngine& e, arm::Cpu& c) {
      const auto& r = c.state().regs;
      e.defer_exit(c, ExitKind::kResultFromRanges, r[0], r[1], r[2], r[2]);
    };
    add("strncmp", ret_from_two_ranges);
    add("memcmp", ret_from_two_ranges);

    // Pointer-into-argument models: the result aliases the input string.
    const Fn ret_aliases_arg0 = [](SysLibHookEngine& e, arm::Cpu& c) {
      e.defer_exit(c, ExitKind::kResultAddTaint, e.engine_.reg(0));
    };
    for (const char* name : {"strchr", "strrchr", "memchr", "strstr"}) {
      add(name, ret_aliases_arg0);
    }

    // Allocation family: fresh memory starts clear; realloc moves taints.
    add("malloc", [](SysLibHookEngine& e, arm::Cpu& c) {
      e.defer_exit(c, ExitKind::kClearResult, c.state().regs[0]);
    });
    add("calloc", [](SysLibHookEngine& e, arm::Cpu& c) {
      e.defer_exit(c, ExitKind::kClearResult,
                   c.state().regs[0] * c.state().regs[1]);
    });
    add("realloc", [](SysLibHookEngine& e, arm::Cpu& c) {
      const GuestAddr old = c.state().regs[0];
      const u32 size = c.state().regs[1];
      // Only the old block's bytes move (past its end, its page holds other
      // blocks); the rest of the new block, all of it for realloc(NULL, n),
      // starts clear like malloc's.
      const u32 kept = std::min(size, e.kernel_.heap().block_size(old));
      e.defer_exit(c, ExitKind::kRealloc, old, size, kept);
    });
    add("free", [](SysLibHookEngine&, arm::Cpu&) {});

    add("sprintf", [](SysLibHookEngine& e, arm::Cpu& c) {
      const std::string fmt = c.memory().read_cstr(c.state().regs[1]);
      auto [out, taint] = e.format_taint(c, fmt, 2);
      e.engine_.map().set_range(c.state().regs[0],
                                static_cast<u32>(out.size()) + 1, taint);
    });
    add("snprintf", [](SysLibHookEngine& e, arm::Cpu& c) {
      const std::string fmt = c.memory().read_cstr(c.state().regs[2]);
      auto [out, taint] = e.format_taint(c, fmt, 3);
      const u32 n = std::min<u32>(static_cast<u32>(out.size()) + 1,
                                  c.state().regs[1]);
      e.engine_.map().set_range(c.state().regs[0], n, taint);
    });
    add("sscanf", [](SysLibHookEngine& e, arm::Cpu& c) {
      auto& map = e.engine_.map();
      const GuestAddr input = c.state().regs[0];
      const Taint t = map.get_range(input, e.guest_strlen(c, input));
      if (t == kTaintClear) return;
      const std::string fmt = c.memory().read_cstr(c.state().regs[1]);
      u32 reg = 2, stack_idx = 0;
      for (u32 i = 0; i + 1 < fmt.size(); ++i) {
        if (fmt[i] != '%') continue;
        const char spec = fmt[i + 1];
        if (spec != 'd' && spec != 's') continue;
        const GuestAddr out = reg <= 3
                                  ? c.state().regs[reg++]
                                  : c.memory().read32(c.state().sp() +
                                                      4 * stack_idx++);
        map.add_range(out, spec == 'd' ? 4 : 64, t);
      }
    });

    // libm: value-pure functions; t(ret) = t(arg0) | t(arg1).
    const Fn value_pure = [](SysLibHookEngine& e, arm::Cpu& c) {
      e.defer_exit(c, ExitKind::kResultSetTaint,
                   e.engine_.reg(0) | e.engine_.reg(1));
    };
    for (const char* name :
         {"sin",  "sinf",  "cos",   "cosf", "sqrt", "sqrtf", "exp",  "expf",
          "log",  "logf",  "log10", "floor", "ceil", "tan",   "atan", "asin",
          "acos", "sinh",  "cosh",  "pow",  "powf", "atan2", "atan2f",
          "fmod", "ldexp"}) {
      add(name, value_pure);
    }
  }

  // -------------------------------------------------------------------------
  // Table VII sinks: FILE*-level (no SVC is reached; the libc helpers write
  // directly).
  // -------------------------------------------------------------------------
  model = false;
  add("fprintf", [](SysLibHookEngine& e, arm::Cpu& c) {
    const GuestAddr file = c.state().regs[0];
    const std::string fmt = c.memory().read_cstr(c.state().regs[1]);
    e.log_.tag("SinkHandler[fprintf] begin");
    auto [out, taint] = e.format_taint(c, fmt, 2);
    e.log_.tag("SinkHandler[fprintf] end");
    if (taint != kTaintClear) {
      const int fd = e.libc_.fd_of_file(file);
      const auto* fd_entry = e.kernel_.fd_entry(fd);
      e.record_leak("fprintf", fd_entry ? fd_entry->path : "<unknown>", taint,
                    out, c.state().pc());
    }
  });
  add("fwrite", [](SysLibHookEngine& e, arm::Cpu& c) {
    const auto& r = c.state().regs;
    const u32 bytes = r[1] * r[2];
    const Taint t = e.engine_.map().get_range(r[0], bytes);
    if (t != kTaintClear) {
      std::vector<u8> data(bytes);
      c.memory().read_bytes(r[0], data);
      const auto* fd_entry = e.kernel_.fd_entry(e.libc_.fd_of_file(r[3]));
      e.record_leak("fwrite", fd_entry ? fd_entry->path : "<unknown>", t,
                    std::string(data.begin(), data.end()), c.state().pc());
    }
  });
  add("fputs", [](SysLibHookEngine& e, arm::Cpu& c) {
    const GuestAddr s = c.state().regs[0];
    const u32 len = e.guest_strlen(c, s);
    const Taint t = e.engine_.map().get_range(s, len);
    if (t != kTaintClear) {
      const auto* fd_entry =
          e.kernel_.fd_entry(e.libc_.fd_of_file(c.state().regs[1]));
      e.record_leak("fputs", fd_entry ? fd_entry->path : "<unknown>", t,
                    c.memory().read_cstr(s), c.state().pc());
    }
  });
  add("fputc", [](SysLibHookEngine& e, arm::Cpu& c) {
    const Taint t = e.engine_.reg(0);
    if (t != kTaintClear) {
      const auto* fd_entry =
          e.kernel_.fd_entry(e.libc_.fd_of_file(c.state().regs[1]));
      e.record_leak("fputc", fd_entry ? fd_entry->path : "<unknown>", t,
                    std::string(1, static_cast<char>(c.state().regs[0])),
                    c.state().pc());
    }
  });

  // Useful TrustCall logging for the case-study figures.
  add("fopen", [](SysLibHookEngine& e, arm::Cpu& c) {
    const GuestAddr path = c.state().regs[0];
    e.log_.tag("TrustCallHandler[fopen] begin");
    e.log_.add({.kind = TraceKind::kOpen}, c.memory(), path,
               e.guest_strlen(c, path));
    e.log_.tag("TrustCallHandler[fopen] end");
  });
  add("fclose", [](SysLibHookEngine& e, arm::Cpu& c) {
    e.log_.tag("TrustCallHandler[fclose] begin");
    e.log_.add({.kind = TraceKind::kClose, .a = c.state().regs[0]});
    e.log_.tag("TrustCallHandler[fclose] end");
  });

  // One hook per address, the later registration winning.
  std::stable_sort(hooks.begin(), hooks.end(),
                   [](const EntryHook& a, const EntryHook& b) {
                     return a.addr < b.addr;
                   });
  HookTable table;
  for (const EntryHook& h : hooks) {
    if (!table.hooks.empty() && table.hooks.back().addr == h.addr) {
      table.hooks.back() = h;
    } else {
      table.hooks.push_back(h);
    }
    table.targets.add(h.addr);
    if (!h.model) table.sink_targets.add(h.addr);
  }
  return table;
}

// ---------------------------------------------------------------------------
// Table VII sinks
// ---------------------------------------------------------------------------

std::pair<std::string, Taint> SysLibHookEngine::format_taint(
    arm::Cpu& c, const std::string& fmt, u32 first_reg) {
  std::string out;
  Taint taint = kTaintClear;
  u32 reg = first_reg;
  u32 stack_idx = 0;
  auto next_arg = [&](Taint& arg_taint) -> u32 {
    if (reg <= 3) {
      arg_taint = engine_.reg(static_cast<u8>(reg));
      return c.state().regs[reg++];
    }
    const GuestAddr at = c.state().sp() + 4 * stack_idx++;
    arg_taint = engine_.map().get_range(at, 4);
    return c.memory().read32(at);
  };
  for (u32 i = 0; i < fmt.size(); ++i) {
    if (fmt[i] != '%') {
      out.push_back(fmt[i]);
      continue;
    }
    if (i + 1 >= fmt.size()) break;
    const char spec = fmt[++i];
    Taint arg_taint = kTaintClear;
    switch (spec) {
      case 's': {
        const u32 p = next_arg(arg_taint);
        const std::string s =
            p == 0 ? "(null)" : c.memory().read_cstr(p);
        arg_taint |= engine_.map().get_range(p, static_cast<u32>(s.size()));
        if (arg_taint != kTaintClear) {
          log_.add(
              {.kind = TraceKind::kFormatArgTaint, .a = p, .b = arg_taint});
          log_.add({.kind = TraceKind::kFormatWrite}, s);
        }
        out += s;
        break;
      }
      case 'd':
        out += std::to_string(static_cast<i32>(next_arg(arg_taint)));
        break;
      case 'u':
        out += std::to_string(next_arg(arg_taint));
        break;
      case 'x': {
        char buf[16];
        std::snprintf(buf, sizeof buf, "%x", next_arg(arg_taint));
        out += buf;
        break;
      }
      case 'c':
        out.push_back(static_cast<char>(next_arg(arg_taint)));
        break;
      case '%':
        out.push_back('%');
        break;
      default:
        break;
    }
    taint |= arg_taint;
  }
  return {out, taint};
}

void SysLibHookEngine::record_leak(std::string sink, std::string destination,
                                   Taint taint, std::string data,
                                   GuestAddr pc) {
  leaks_.push_back(NativeLeak{std::move(sink), std::move(destination), taint,
                              std::move(data), pc});
}

void SysLibHookEngine::on_insn(arm::Cpu& cpu, const arm::Insn& insn,
                               GuestAddr pc) {
  if (insn.op != arm::Op::kSvc) return;
  if (!arm::condition_passed(arm::effective_cond(insn, cpu.state()),
                             cpu.state())) {
    return;
  }
  const auto& r = cpu.state().regs;
  const u32 number = insn.imm != 0 ? insn.imm : r[7];
  const auto sys = static_cast<os::Sys>(number);
  if (sys != os::Sys::kWrite && sys != os::Sys::kSend &&
      sys != os::Sys::kSendto) {
    return;
  }
  const GuestAddr buf = r[1];
  const u32 len = r[2];
  const Taint t = engine_.map().get_range(buf, len);
  if (t == kTaintClear) return;

  std::vector<u8> data(len);
  cpu.memory().read_bytes(buf, data);
  std::string destination = "<unknown>";
  const auto* e = kernel_.fd_entry(static_cast<int>(r[0]));
  if (sys == os::Sys::kSendto) {
    destination = cpu.memory().read_cstr(r[3]);
  } else if (e != nullptr) {
    destination = e->kind == os::FdEntry::Kind::kSocket
                      ? kernel_.network().socket(e->socket_id).remote_host
                      : e->path;
  }
  const char* name = sys == os::Sys::kWrite    ? "write"
                     : sys == os::Sys::kSend   ? "send"
                                               : "sendto";
  record_leak(name, destination, t, std::string(data.begin(), data.end()),
              pc);
  log_.add({.kind = TraceKind::kSvcSink, .a = t, .ref = {.tag = name}},
           destination);
}

}  // namespace ndroid::core
