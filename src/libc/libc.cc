#include "libc/libc.h"

#include <bit>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "arm/assembler.h"

namespace ndroid::libc {

using arm::Assembler;
using arm::Cond;
using arm::IP;
using arm::Label;
using arm::LR;
using arm::PC;
using arm::R;
using arm::SP;

namespace {

/// FILE structs live in the last 2 KiB of libc.so; code stays below.
constexpr GuestAddr kCodeEnd = kLibcBase + kLibcSize - 0x800;

/// Helper-backed libc functions, in helper-registration order (emit_image
/// reserves, bind_helpers binds). The libm helpers (kMathFns), then strtod
/// and strtol, follow.
constexpr const char* kLibcHelpers[] = {
    "strdup", "strcasecmp", "strncasecmp", "strtoul", "atol",   "sysconf",
    "malloc", "free",       "calloc",      "realloc", "fopen",  "fclose",
    "fwrite", "fread",      "fputc",       "fputs",   "fgets",  "fprintf",
    "sprintf", "snprintf",  "sscanf"};

/// libm (helper-modeled soft float, 32-bit). Both the double-named and the
/// f-suffixed entry points exist; all use single precision on this core
/// (no VFP — documented substitution). Exactly one of unary/binary is set.
struct MathFn {
  const char* name;
  float (*unary)(float) = nullptr;
  float (*binary)(float, float) = nullptr;
};
float m_sin(float x) { return std::sin(x); }
float m_cos(float x) { return std::cos(x); }
float m_sqrt(float x) { return std::sqrt(x); }
float m_exp(float x) { return std::exp(x); }
float m_log(float x) { return std::log(x); }
float m_pow(float x, float y) { return std::pow(x, y); }
float m_atan2(float x, float y) { return std::atan2(x, y); }
const MathFn kMathFns[] = {
    {"sin", m_sin},
    {"sinf", m_sin},
    {"cos", m_cos},
    {"cosf", m_cos},
    {"sqrt", m_sqrt},
    {"sqrtf", m_sqrt},
    {"exp", m_exp},
    {"expf", m_exp},
    {"log", m_log},
    {"logf", m_log},
    {"log10", [](float x) { return std::log10(x); }},
    {"floor", [](float x) { return std::floor(x); }},
    {"ceil", [](float x) { return std::ceil(x); }},
    {"tan", [](float x) { return std::tan(x); }},
    {"atan", [](float x) { return std::atan(x); }},
    {"asin", [](float x) { return std::asin(x); }},
    {"acos", [](float x) { return std::acos(x); }},
    {"sinh", [](float x) { return std::sinh(x); }},
    {"cosh", [](float x) { return std::cosh(x); }},
    {"pow", nullptr, m_pow},
    {"powf", nullptr, m_pow},
    {"atan2", nullptr, m_atan2},
    {"atan2f", nullptr, m_atan2},
    {"fmod", nullptr, [](float x, float y) { return std::fmod(x, y); }},
    {"ldexp", nullptr,
     [](float x, float y) { return std::ldexp(x, static_cast<int>(y)); }},
};

}  // namespace

Libc::Libc(arm::Cpu& cpu, os::Kernel& kernel)
    : cpu_(cpu), kernel_(kernel), image_(image(cpu.next_helper_addr())) {
  cpu_.memmap().add("libc.so", kLibcBase, kLibcSize, mem::kRX);
  cpu_.memmap().add("libm.so", kLibmBase, kLibmSize, mem::kRX);
  image_.pages.stamp(cpu_.memory());
  bind_helpers();
}

const LibcImage& Libc::image(GuestAddr helper_base) {
  static std::mutex mu;
  static std::vector<std::unique_ptr<const LibcImage>> images;
  std::lock_guard lock(mu);
  for (const auto& img : images) {
    if (img->helper_base == helper_base) return *img;
  }
  images.push_back(std::make_unique<const LibcImage>(emit_image(helper_base)));
  return *images.back();
}

GuestAddr Libc::fn(const std::string& name) const {
  if (auto it = image_.symbols.find(name); it != image_.symbols.end()) {
    return it->second;
  }
  auto it = dl_entry_points_.find(name);
  if (it == dl_entry_points_.end()) {
    throw GuestFault("no libc symbol: " + name);
  }
  return it->second;
}

void Libc::bind(std::string_view name, arm::Helper helper) {
  arm::bind_helper(cpu_, image_.helpers, name, std::move(helper));
}

// ---------------------------------------------------------------------------
// malloc / free (helper-backed)
// ---------------------------------------------------------------------------

GuestAddr Libc::malloc_guest(u32 size) {
  ++mallocs_;
  return kernel_.heap().alloc(size);
}

// ---------------------------------------------------------------------------
// String/memory functions in genuine guest assembly
// ---------------------------------------------------------------------------

namespace {

/// Assembles `body` as the next function in libc.so under `name`.
using AddAsm = std::function<void(
    const std::string& name, const std::function<void(Assembler&)>& body)>;

void emit_string_functions(const AddAsm& add_asm) {
  // void* memcpy(dst, src, n) — byte loop, returns dst.
  add_asm("memcpy", [](Assembler& a) {
    Label loop, done;
    a.mov(R(3), R(0));
    a.bind(loop);
    a.cmp_imm(R(2), 0);
    a.b(done, Cond::kEQ);
    a.ldrb_post(IP, R(1), 1);
    a.strb_post(IP, R(3), 1);
    a.sub_imm(R(2), R(2), 1);
    a.b(loop);
    a.bind(done);
    a.ret();
  });

  // void* memmove(dst, src, n) — picks direction for overlap.
  add_asm("memmove", [](Assembler& a) {
    Label fwd, fwd_loop, bwd_loop, done;
    a.cmp(R(0), R(1));
    a.b(fwd, Cond::kLS);  // dst <= src: forward copy
    // dst > src: copy backward from the end.
    a.add(R(3), R(0), R(2));  // dst end
    a.add(R(1), R(1), R(2));  // src end
    a.bind(bwd_loop);
    a.cmp_imm(R(2), 0);
    a.b(done, Cond::kEQ);
    a.ldrb_pre(IP, R(1), -1);
    a.strb_pre(IP, R(3), -1);
    a.sub_imm(R(2), R(2), 1);
    a.b(bwd_loop);
    a.bind(fwd);
    a.mov(R(3), R(0));
    a.bind(fwd_loop);
    a.cmp_imm(R(2), 0);
    a.b(done, Cond::kEQ);
    a.ldrb_post(IP, R(1), 1);
    a.strb_post(IP, R(3), 1);
    a.sub_imm(R(2), R(2), 1);
    a.b(fwd_loop);
    a.bind(done);
    a.ret();
  });

  // void* memset(s, c, n) — returns s.
  add_asm("memset", [](Assembler& a) {
    Label loop, done;
    a.mov(R(3), R(0));
    a.bind(loop);
    a.cmp_imm(R(2), 0);
    a.b(done, Cond::kEQ);
    a.strb_post(R(1), R(3), 1);
    a.sub_imm(R(2), R(2), 1);
    a.b(loop);
    a.bind(done);
    a.ret();
  });

  // size_t strlen(s)
  add_asm("strlen", [](Assembler& a) {
    Label loop, done;
    a.mov(R(1), R(0));
    a.bind(loop);
    a.ldrb_post(IP, R(1), 1);
    a.cmp_imm(IP, 0);
    a.b(loop, Cond::kNE);
    a.sub(R(0), R(1), R(0));
    a.sub_imm(R(0), R(0), 1);
    a.ret();
    a.bind(done);
  });

  // char* strcpy(dst, src) — returns dst.
  add_asm("strcpy", [](Assembler& a) {
    Label loop;
    a.mov(R(2), R(0));
    a.bind(loop);
    a.ldrb_post(IP, R(1), 1);
    a.strb_post(IP, R(2), 1);
    a.cmp_imm(IP, 0);
    a.b(loop, Cond::kNE);
    a.ret();
  });

  // char* strncpy(dst, src, n)
  add_asm("strncpy", [](Assembler& a) {
    Label loop, pad, done;
    a.mov(R(3), R(0));
    a.bind(loop);
    a.cmp_imm(R(2), 0);
    a.b(done, Cond::kEQ);
    a.ldrb_post(IP, R(1), 1);
    a.strb_post(IP, R(3), 1);
    a.sub_imm(R(2), R(2), 1);
    a.cmp_imm(IP, 0);
    a.b(loop, Cond::kNE);
    // pad remaining with zeros
    a.mov_imm(IP, 0);
    a.bind(pad);
    a.cmp_imm(R(2), 0);
    a.b(done, Cond::kEQ);
    a.strb_post(IP, R(3), 1);
    a.sub_imm(R(2), R(2), 1);
    a.b(pad);
    a.bind(done);
    a.ret();
  });

  // int strcmp(a, b)
  add_asm("strcmp", [](Assembler& a) {
    Label loop, diff;
    a.bind(loop);
    a.ldrb_post(R(2), R(0), 1);
    a.ldrb_post(R(3), R(1), 1);
    a.cmp(R(2), R(3));
    a.b(diff, Cond::kNE);
    a.cmp_imm(R(2), 0);
    a.b(loop, Cond::kNE);
    a.mov_imm(R(0), 0);
    a.ret();
    a.bind(diff);
    a.sub(R(0), R(2), R(3));
    a.ret();
  });

  // int strncmp(a, b, n)
  add_asm("strncmp", [](Assembler& a) {
    Label loop, diff, zero;
    a.bind(loop);
    a.cmp_imm(R(2), 0);
    a.b(zero, Cond::kEQ);
    a.ldrb_post(R(3), R(0), 1);
    a.ldrb_post(IP, R(1), 1);
    a.cmp(R(3), IP);
    a.b(diff, Cond::kNE);
    a.sub_imm(R(2), R(2), 1);
    a.cmp_imm(R(3), 0);
    a.b(loop, Cond::kNE);
    a.bind(zero);
    a.mov_imm(R(0), 0);
    a.ret();
    a.bind(diff);
    a.sub(R(0), R(3), IP);
    a.ret();
  });

  // int memcmp(a, b, n)
  add_asm("memcmp", [](Assembler& a) {
    Label loop, diff, zero;
    a.bind(loop);
    a.cmp_imm(R(2), 0);
    a.b(zero, Cond::kEQ);
    a.ldrb_post(R(3), R(0), 1);
    a.ldrb_post(IP, R(1), 1);
    a.cmp(R(3), IP);
    a.b(diff, Cond::kNE);
    a.sub_imm(R(2), R(2), 1);
    a.b(loop);
    a.bind(zero);
    a.mov_imm(R(0), 0);
    a.ret();
    a.bind(diff);
    a.sub(R(0), R(3), IP);
    a.ret();
  });

  // char* strcat(dst, src)
  add_asm("strcat", [](Assembler& a) {
    Label seek, copy;
    a.mov(R(2), R(0));
    a.bind(seek);  // find NUL of dst
    a.ldrb(IP, R(2), 0);
    a.cmp_imm(IP, 0);
    a.add_imm(R(2), R(2), 1);
    a.b(seek, Cond::kNE);
    a.sub_imm(R(2), R(2), 1);
    a.bind(copy);
    a.ldrb_post(IP, R(1), 1);
    a.strb_post(IP, R(2), 1);
    a.cmp_imm(IP, 0);
    a.b(copy, Cond::kNE);
    a.ret();
  });

  // char* strchr(s, c)
  add_asm("strchr", [](Assembler& a) {
    Label loop, found, nope;
    a.and_imm(R(1), R(1), 0xFF);
    a.bind(loop);
    a.ldrb(R(2), R(0), 0);
    a.cmp(R(2), R(1));
    a.b(found, Cond::kEQ);
    a.cmp_imm(R(2), 0);
    a.b(nope, Cond::kEQ);
    a.add_imm(R(0), R(0), 1);
    a.b(loop);
    a.bind(nope);
    a.mov_imm(R(0), 0);
    a.bind(found);
    a.ret();
  });

  // char* strrchr(s, c)
  add_asm("strrchr", [](Assembler& a) {
    Label loop, skip;
    a.and_imm(R(1), R(1), 0xFF);
    a.mov_imm(R(3), 0);  // last match
    a.bind(loop);
    a.ldrb_post(R(2), R(0), 1);
    a.cmp(R(2), R(1));
    a.b(skip, Cond::kNE);
    a.sub_imm(R(3), R(0), 1);  // record match position
    a.bind(skip);
    a.cmp_imm(R(2), 0);
    a.b(loop, Cond::kNE);
    a.mov(R(0), R(3));
    a.ret();
  });

  // void* memchr(s, c, n)
  add_asm("memchr", [](Assembler& a) {
    Label loop, found, nope;
    a.and_imm(R(1), R(1), 0xFF);
    a.bind(loop);
    a.cmp_imm(R(2), 0);
    a.b(nope, Cond::kEQ);
    a.ldrb(R(3), R(0), 0);
    a.cmp(R(3), R(1));
    a.b(found, Cond::kEQ);
    a.add_imm(R(0), R(0), 1);
    a.sub_imm(R(2), R(2), 1);
    a.b(loop);
    a.bind(nope);
    a.mov_imm(R(0), 0);
    a.bind(found);
    a.ret();
  });

  // int atoi(s) — optional minus sign, decimal digits.
  add_asm("atoi", [](Assembler& a) {
    Label loop, done, negate, no_sign;
    a.mov_imm(R(1), 0);   // acc
    a.mov_imm(R(3), 0);   // negative flag
    a.ldrb(R(2), R(0), 0);
    a.cmp_imm(R(2), '-');
    a.b(no_sign, Cond::kNE);
    a.mov_imm(R(3), 1);
    a.add_imm(R(0), R(0), 1);
    a.bind(no_sign);
    a.bind(loop);
    a.ldrb_post(R(2), R(0), 1);
    a.sub_imm(R(2), R(2), '0', /*s=*/true);
    a.b(done, Cond::kMI);         // below '0'
    a.cmp_imm(R(2), 9);
    a.b(done, Cond::kGT);
    a.mov_imm(IP, 10);
    a.mla(R(1), R(1), IP, R(2));  // acc = acc*10 + digit
    a.b(loop);
    a.bind(done);
    a.cmp_imm(R(3), 0);
    a.b(negate, Cond::kNE);
    a.mov(R(0), R(1));
    a.ret();
    a.bind(negate);
    a.mov_imm(R(0), 0);
    a.sub(R(0), R(0), R(1));
    a.ret();
  });

  // char* strstr(h, n) — naive quadratic search.
  add_asm("strstr", [](Assembler& a) {
    Label outer, inner, found, nope, advance;
    a.push({R(4), LR});
    a.bind(outer);
    a.mov(R(2), R(0));  // h cursor
    a.mov(R(3), R(1));  // n cursor
    a.bind(inner);
    a.ldrb_post(IP, R(3), 1);
    a.cmp_imm(IP, 0);
    a.b(found, Cond::kEQ);  // needle exhausted -> match at r0
    a.ldrb_post(R(4), R(2), 1);
    a.cmp(R(4), IP);
    a.b(inner, Cond::kEQ);
    // Mismatch: if the haystack is exhausted at r0, give up.
    a.ldrb(R(4), R(0), 0);
    a.cmp_imm(R(4), 0);
    a.b(nope, Cond::kEQ);
    a.bind(advance);
    a.add_imm(R(0), R(0), 1);
    a.b(outer);
    a.bind(found);
    a.pop({R(4), PC});
    a.bind(nope);
    a.mov_imm(R(0), 0);
    a.pop({R(4), PC});
  });
}

}  // namespace

// Registers the helper closures in the order emit_image() reserved them.
void Libc::bind_helpers() {
  // char* strdup(s): malloc(strlen(s)+1) + strcpy.
  bind("strdup", [this](arm::Cpu& c) {
    const std::string s = c.memory().read_cstr(c.state().regs[0]);
    const GuestAddr copy = malloc_guest(static_cast<u32>(s.size()) + 1);
    c.memory().write_cstr(copy, s);
    c.state().regs[0] = copy;
  });

  bind("strcasecmp", [](arm::Cpu& c) {
    std::string a = c.memory().read_cstr(c.state().regs[0]);
    std::string b = c.memory().read_cstr(c.state().regs[1]);
    for (char& ch : a) ch = static_cast<char>(std::tolower(ch));
    for (char& ch : b) ch = static_cast<char>(std::tolower(ch));
    c.state().regs[0] = static_cast<u32>(a.compare(b));
  });
  bind("strncasecmp", [](arm::Cpu& c) {
    const u32 n = c.state().regs[2];
    std::string a = c.memory().read_cstr(c.state().regs[0]).substr(0, n);
    std::string b = c.memory().read_cstr(c.state().regs[1]).substr(0, n);
    for (char& ch : a) ch = static_cast<char>(std::tolower(ch));
    for (char& ch : b) ch = static_cast<char>(std::tolower(ch));
    c.state().regs[0] = static_cast<u32>(a.compare(b));
  });
  bind("strtoul", [](arm::Cpu& c) {
    const std::string s = c.memory().read_cstr(c.state().regs[0]);
    c.state().regs[0] = static_cast<u32>(
        std::strtoul(s.c_str(), nullptr, static_cast<int>(c.state().regs[2])));
  });
  bind("atol", [](arm::Cpu& c) {
    const std::string s = c.memory().read_cstr(c.state().regs[0]);
    c.state().regs[0] = static_cast<u32>(std::atol(s.c_str()));
  });
  bind("sysconf", [](arm::Cpu& c) { c.state().regs[0] = 4096; });

  // Allocation family.
  bind("malloc", [this](arm::Cpu& c) {
    c.state().regs[0] = malloc_guest(c.state().regs[0]);
  });
  bind("free", [this](arm::Cpu& c) { free_guest(c.state().regs[0]); });
  bind("calloc", [this](arm::Cpu& c) {
    const u32 bytes = c.state().regs[0] * c.state().regs[1];
    const GuestAddr p = malloc_guest(bytes);
    c.memory().fill(p, 0, bytes);
    c.state().regs[0] = p;
  });
  bind("realloc", [this](arm::Cpu& c) {
    const GuestAddr old = c.state().regs[0];
    const u32 size = c.state().regs[1];
    const GuestAddr p = malloc_guest(size);
    if (old != 0) {
      const u32 old_size = kernel_.heap().block_size(old);
      c.memory().copy(p, old, std::min(old_size, size));
      free_guest(old);
    }
    c.state().regs[0] = p;
  });

  bind_stdio();

  for (const MathFn& f : kMathFns) {
    if (f.unary != nullptr) {
      bind(f.name, [fn = f.unary](arm::Cpu& c) {
        const float x = std::bit_cast<float>(c.state().regs[0]);
        c.state().regs[0] = std::bit_cast<u32>(fn(x));
      });
    } else {
      bind(f.name, [fn = f.binary](arm::Cpu& c) {
        const float x = std::bit_cast<float>(c.state().regs[0]);
        const float y = std::bit_cast<float>(c.state().regs[1]);
        c.state().regs[0] = std::bit_cast<u32>(fn(x, y));
      });
    }
  }
  bind("strtod", [](arm::Cpu& c) {
    const std::string s = c.memory().read_cstr(c.state().regs[0]);
    c.state().regs[0] = std::bit_cast<u32>(std::strtof(s.c_str(), nullptr));
  });
  bind("strtol", [](arm::Cpu& c) {
    const std::string s = c.memory().read_cstr(c.state().regs[0]);
    c.state().regs[0] = static_cast<u32>(
        std::strtol(s.c_str(), nullptr, static_cast<int>(c.state().regs[2])));
  });
}

// ---------------------------------------------------------------------------
// Dynamic loader (dlopen/dlsym/dlclose, Table VII)
// ---------------------------------------------------------------------------

void Libc::register_dl_library(const std::string& name,
                               std::map<std::string, GuestAddr> dl_symbols) {
  // First registration also installs the guest-visible entry points.
  auto add_helper = [this](const std::string& fn_name, arm::Helper helper) {
    dl_entry_points_[fn_name] = cpu_.register_helper_auto(std::move(helper));
  };
  if (dl_entry_points_.empty()) {
    add_helper("dlopen", [this](arm::Cpu& c) {
      const std::string wanted = c.memory().read_cstr(c.state().regs[0]);
      for (u32 i = 0; i < dl_libraries_.size(); ++i) {
        if (dl_libraries_[i].name == wanted) {
          dl_libraries_[i].open = true;
          c.state().regs[0] = i + 1;
          return;
        }
      }
      c.state().regs[0] = 0;
    });
    add_helper("dlsym", [this](arm::Cpu& c) {
      const u32 handle = c.state().regs[0];
      c.state().regs[0] = 0;
      if (handle == 0 || handle > dl_libraries_.size()) return;
      const DlLibrary& lib = dl_libraries_[handle - 1];
      if (!lib.open) return;
      const std::string sym = c.memory().read_cstr(c.state().regs[1]);
      auto it = lib.symbols.find(sym);
      if (it != lib.symbols.end()) c.state().regs[0] = it->second;
    });
    add_helper("dlclose", [this](arm::Cpu& c) {
      const u32 handle = c.state().regs[0];
      if (handle != 0 && handle <= dl_libraries_.size()) {
        dl_libraries_[handle - 1].open = false;
      }
      c.state().regs[0] = 0;
    });
  }
  dl_libraries_.push_back(DlLibrary{name, std::move(dl_symbols), false});
}

// ---------------------------------------------------------------------------
// Format-string helpers
// ---------------------------------------------------------------------------

std::string Libc::read_format_args(arm::Cpu& c, const std::string& fmt,
                                   u32 first_reg, GuestAddr stack_args) {
  std::string out;
  u32 reg = first_reg;
  u32 stack_idx = 0;
  auto next_arg = [&]() -> u32 {
    if (reg <= 3) return c.state().regs[reg++];
    return c.memory().read32(stack_args + 4 * stack_idx++);
  };
  for (u32 i = 0; i < fmt.size(); ++i) {
    if (fmt[i] != '%') {
      out.push_back(fmt[i]);
      continue;
    }
    if (i + 1 >= fmt.size()) break;
    const char spec = fmt[++i];
    switch (spec) {
      case 's': {
        const u32 p = next_arg();
        out += p == 0 ? "(null)" : c.memory().read_cstr(p);
        break;
      }
      case 'd':
        out += std::to_string(static_cast<i32>(next_arg()));
        break;
      case 'u':
        out += std::to_string(next_arg());
        break;
      case 'x': {
        char buf[16];
        std::snprintf(buf, sizeof buf, "%x", next_arg());
        out += buf;
        break;
      }
      case 'c':
        out.push_back(static_cast<char>(next_arg()));
        break;
      case '%':
        out.push_back('%');
        break;
      default:
        out.push_back('%');
        out.push_back(spec);
        break;
    }
  }
  return out;
}

void Libc::bind_stdio() {
  // FILE* fopen(path, mode)
  bind("fopen", [this](arm::Cpu& c) {
    const std::string path = c.memory().read_cstr(c.state().regs[0]);
    const std::string mode = c.memory().read_cstr(c.state().regs[1]);
    u32 flags = os::kOpenRead;
    if (mode.find('w') != std::string::npos) flags = os::kOpenWrite;
    if (mode.find('a') != std::string::npos) flags = os::kOpenAppend;
    const int fd = kernel_.open_file(path, flags);
    if (fd < 0) {
      c.state().regs[0] = 0;
      return;
    }
    const GuestAddr file = file_struct_bump_;
    file_struct_bump_ += 8;
    c.memory().write32(file, static_cast<u32>(fd));
    files_[file] = fd;
    c.state().regs[0] = file;
  });

  bind("fclose", [this](arm::Cpu& c) {
    auto it = files_.find(c.state().regs[0]);
    if (it != files_.end()) {
      kernel_.close_fd(it->second);
      files_.erase(it);
    }
    c.state().regs[0] = 0;
  });

  // size_t fwrite(buf, size, count, FILE*)
  bind("fwrite", [this](arm::Cpu& c) {
    const GuestAddr buf = c.state().regs[0];
    const u32 bytes = c.state().regs[1] * c.state().regs[2];
    auto it = files_.find(c.state().regs[3]);
    if (it == files_.end()) {
      c.state().regs[0] = 0;
      return;
    }
    std::vector<u8> data(bytes);
    c.memory().read_bytes(buf, data);
    kernel_.write_fd(it->second, data);
    c.state().regs[0] = c.state().regs[2];
  });

  // size_t fread(buf, size, count, FILE*)
  bind("fread", [this](arm::Cpu& c) {
    const GuestAddr buf = c.state().regs[0];
    const u32 bytes = c.state().regs[1] * c.state().regs[2];
    auto it = files_.find(c.state().regs[3]);
    if (it == files_.end()) {
      c.state().regs[0] = 0;
      return;
    }
    std::vector<u8> data(bytes);
    const u32 n = kernel_.read_fd(it->second, data);
    c.memory().write_bytes(buf, std::span<const u8>(data.data(), n));
    c.state().regs[0] = c.state().regs[1] ? n / c.state().regs[1] : 0;
  });

  // int fputc(c, FILE*)
  bind("fputc", [this](arm::Cpu& c) {
    auto it = files_.find(c.state().regs[1]);
    if (it != files_.end()) {
      const u8 ch = static_cast<u8>(c.state().regs[0]);
      kernel_.write_fd(it->second, std::span<const u8>(&ch, 1));
    }
    // returns the char
  });

  // int fputs(s, FILE*)
  bind("fputs", [this](arm::Cpu& c) {
    auto it = files_.find(c.state().regs[1]);
    if (it != files_.end()) {
      const std::string s = c.memory().read_cstr(c.state().regs[0]);
      kernel_.write_fd(it->second,
                       {reinterpret_cast<const u8*>(s.data()), s.size()});
    }
    c.state().regs[0] = 0;
  });

  // char* fgets(buf, n, FILE*)
  bind("fgets", [this](arm::Cpu& c) {
    auto it = files_.find(c.state().regs[2]);
    const GuestAddr buf = c.state().regs[0];
    const u32 n = c.state().regs[1];
    if (it == files_.end() || n == 0) {
      c.state().regs[0] = 0;
      return;
    }
    std::string line;
    u8 ch = 0;
    while (line.size() + 1 < n &&
           kernel_.read_fd(it->second, std::span<u8>(&ch, 1)) == 1) {
      line.push_back(static_cast<char>(ch));
      if (ch == '\n') break;
    }
    if (line.empty()) {
      c.state().regs[0] = 0;
      return;
    }
    c.memory().write_cstr(buf, line);
    c.state().regs[0] = buf;
  });

  // int fprintf(FILE*, fmt, ...) — varargs from r2, r3, then stack.
  bind("fprintf", [this](arm::Cpu& c) {
    const std::string fmt = c.memory().read_cstr(c.state().regs[1]);
    const std::string out = read_format_args(c, fmt, 2, c.state().sp());
    auto it = files_.find(c.state().regs[0]);
    if (it != files_.end()) {
      kernel_.write_fd(it->second,
                       {reinterpret_cast<const u8*>(out.data()), out.size()});
    }
    c.state().regs[0] = static_cast<u32>(out.size());
  });

  // int sprintf(buf, fmt, ...)
  bind("sprintf", [this](arm::Cpu& c) {
    const std::string fmt = c.memory().read_cstr(c.state().regs[1]);
    const std::string out = read_format_args(c, fmt, 2, c.state().sp());
    c.memory().write_cstr(c.state().regs[0], out);
    c.state().regs[0] = static_cast<u32>(out.size());
  });

  // int snprintf(buf, n, fmt, ...)
  bind("snprintf", [this](arm::Cpu& c) {
    const std::string fmt = c.memory().read_cstr(c.state().regs[2]);
    std::string out = read_format_args(c, fmt, 3, c.state().sp());
    const u32 n = c.state().regs[1];
    const u32 full = static_cast<u32>(out.size());
    if (n > 0) {
      if (out.size() >= n) out.resize(n - 1);
      c.memory().write_cstr(c.state().regs[0], out);
    }
    c.state().regs[0] = full;
  });
  // int sscanf(s, fmt, ...) — supports %d and %s, enough for workloads.
  bind("sscanf", [this](arm::Cpu& c) {
    const std::string input = c.memory().read_cstr(c.state().regs[0]);
    const std::string fmt = c.memory().read_cstr(c.state().regs[1]);
    u32 reg = 2, stack_idx = 0, matched = 0;
    auto next_out = [&]() -> GuestAddr {
      if (reg <= 3) return c.state().regs[reg++];
      return c.memory().read32(c.state().sp() + 4 * stack_idx++);
    };
    std::size_t pos = 0;
    for (u32 i = 0; i < fmt.size(); ++i) {
      if (fmt[i] == '%' && i + 1 < fmt.size()) {
        while (pos < input.size() && std::isspace(input[pos])) ++pos;
        const char spec = fmt[++i];
        if (spec == 'd') {
          std::size_t end = pos;
          if (end < input.size() && (input[end] == '-')) ++end;
          while (end < input.size() && std::isdigit(input[end])) ++end;
          if (end == pos) break;
          c.memory().write32(next_out(),
                             static_cast<u32>(std::stoi(input.substr(pos))));
          pos = end;
          ++matched;
        } else if (spec == 's') {
          std::size_t end = pos;
          while (end < input.size() && !std::isspace(input[end])) ++end;
          if (end == pos) break;
          c.memory().write_cstr(next_out(), input.substr(pos, end - pos));
          pos = end;
          ++matched;
        }
      }
    }
    c.state().regs[0] = matched;
  });
}

// ---------------------------------------------------------------------------
// Guest code (emitted once per process and helper base)
// ---------------------------------------------------------------------------

namespace {

/// Syscall wrappers: guest SVC stubs.
void emit_syscall_wrappers(const AddAsm& add_asm) {
  auto wrapper = [&](const std::string& name, os::Sys number) {
    add_asm(name, [number](Assembler& a) {
      a.push({R(7), LR});
      a.mov_imm32(R(7), static_cast<u32>(number));
      a.svc(0);
      a.pop({R(7), PC});
    });
  };
  wrapper("open", os::Sys::kOpen);
  wrapper("read", os::Sys::kRead);
  wrapper("write", os::Sys::kWrite);
  wrapper("close", os::Sys::kClose);
  wrapper("unlink", os::Sys::kUnlink);
  wrapper("socket", os::Sys::kSocket);
  wrapper("connect", os::Sys::kConnect);
  wrapper("send", os::Sys::kSend);
  wrapper("recv", os::Sys::kRecv);
  wrapper("mkdir", os::Sys::kMkdir);
  wrapper("getpid", os::Sys::kGetpid);
  wrapper("mmap", os::Sys::kMmap);
  wrapper("munmap", os::Sys::kMunmap);

  // sendto(fd, buf, n, host, port) — 5 args, 5th on stack; the wrapper loads
  // it into r4 position expected by the kernel ABI (args[4]).
  add_asm("sendto", [](Assembler& a) {
    a.push({R(4), R(7), LR});
    a.ldr(R(4), SP, 12);  // 5th arg (port) above the saved regs
    a.mov_imm32(R(7), static_cast<u32>(os::Sys::kSendto));
    a.svc(0);
    a.pop({R(4), R(7), PC});
  });
}

}  // namespace

LibcImage Libc::emit_image(GuestAddr helper_base) {
  arm::ImageBuilder b(helper_base);
  LibcImage img;
  img.helper_base = helper_base;
  GuestAddr code_bump = kLibcBase;
  const AddAsm add_asm = [&](const std::string& name,
                             const std::function<void(Assembler&)>& body) {
    Assembler a(code_bump);
    body(a);
    const auto code = a.finish();
    if (code_bump + code.size() > kCodeEnd) {
      throw GuestFault("libc code space exhausted");
    }
    b.memory().write_bytes(code_bump, code);
    img.symbols[name] = code_bump;
    code_bump += (static_cast<u32>(code.size()) + 3) & ~3u;
  };
  auto add_helper = [&](const char* name) {
    img.symbols[name] = b.reserve_helper(img.helpers, name);
  };

  emit_string_functions(add_asm);
  emit_syscall_wrappers(add_asm);
  for (const char* name : kLibcHelpers) add_helper(name);
  for (const MathFn& f : kMathFns) add_helper(f.name);
  add_helper("strtod");
  add_helper("strtol");
  img.symbols["vsnprintf"] = img.symbols.at("snprintf");
  img.symbols["vsprintf"] = img.symbols.at("sprintf");
  img.symbols["vfprintf"] = img.symbols.at("fprintf");

  img.pages = b.capture(kLibcBase, kLibcSize);
  return img;
}

}  // namespace ndroid::libc
