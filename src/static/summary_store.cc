#include "static/summary_store.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <cstring>
#include <stdexcept>

#include "common/serde.h"

namespace ndroid::static_analysis {

namespace {

// ---- payload codec ---------------------------------------------------------

void encode_insn(serde::Writer& w, const arm::Insn& insn) {
  w.put_u8(static_cast<u8>(insn.op));
  w.put_u8(static_cast<u8>(insn.cond));
  w.put_u8(insn.rd);
  w.put_u8(insn.rn);
  w.put_u8(insn.rm);
  w.put_u8(insn.rs);
  w.put_u32(insn.imm);
  w.put_u8(static_cast<u8>(insn.shift));
  w.put_u8(insn.shift_amount);
  u16 flags = 0;
  flags |= insn.imm_operand ? 1u << 0 : 0;
  flags |= insn.shift_by_reg ? 1u << 1 : 0;
  flags |= insn.set_flags ? 1u << 2 : 0;
  flags |= insn.pre_index ? 1u << 3 : 0;
  flags |= insn.add_offset ? 1u << 4 : 0;
  flags |= insn.writeback ? 1u << 5 : 0;
  flags |= insn.reg_offset ? 1u << 6 : 0;
  flags |= insn.base_increment ? 1u << 7 : 0;
  flags |= insn.before ? 1u << 8 : 0;
  flags |= insn.link ? 1u << 9 : 0;
  w.put_u16(flags);
  w.put_u16(insn.reglist);
  w.put_i32(insn.branch_offset);
  w.put_u32(insn.raw);
  w.put_u8(insn.length);
}

arm::Insn decode_insn(serde::Reader& r) {
  arm::Insn insn;
  const u8 op = r.get_u8();
  if (op > static_cast<u8>(arm::Op::kIt)) throw serde::DecodeError("bad op");
  insn.op = static_cast<arm::Op>(op);
  const u8 cond = r.get_u8();
  if (cond > static_cast<u8>(arm::Cond::kAL)) {
    throw serde::DecodeError("bad cond");
  }
  insn.cond = static_cast<arm::Cond>(cond);
  insn.rd = r.get_u8();
  insn.rn = r.get_u8();
  insn.rm = r.get_u8();
  insn.rs = r.get_u8();
  insn.imm = r.get_u32();
  const u8 shift = r.get_u8();
  if (shift > static_cast<u8>(arm::ShiftType::kRRX)) {
    throw serde::DecodeError("bad shift");
  }
  insn.shift = static_cast<arm::ShiftType>(shift);
  insn.shift_amount = r.get_u8();
  const u16 flags = r.get_u16();
  insn.imm_operand = (flags & (1u << 0)) != 0;
  insn.shift_by_reg = (flags & (1u << 1)) != 0;
  insn.set_flags = (flags & (1u << 2)) != 0;
  insn.pre_index = (flags & (1u << 3)) != 0;
  insn.add_offset = (flags & (1u << 4)) != 0;
  insn.writeback = (flags & (1u << 5)) != 0;
  insn.reg_offset = (flags & (1u << 6)) != 0;
  insn.base_increment = (flags & (1u << 7)) != 0;
  insn.before = (flags & (1u << 8)) != 0;
  insn.link = (flags & (1u << 9)) != 0;
  insn.reglist = r.get_u16();
  insn.branch_offset = r.get_i32();
  insn.raw = r.get_u32();
  insn.length = r.get_u8();
  return insn;
}

void encode_block(serde::Writer& w, const BasicBlock& bb) {
  w.put_u32(bb.start);
  w.put_u32(bb.end);
  w.put_u32(static_cast<u32>(bb.insns.size()));
  for (const arm::Insn& insn : bb.insns) encode_insn(w, insn);
  w.put_u32(static_cast<u32>(bb.succs.size()));
  for (const GuestAddr s : bb.succs) w.put_u32(s);
  w.put_u32(static_cast<u32>(bb.call_targets.size()));
  for (const GuestAddr t : bb.call_targets) w.put_u32(t);
  w.put_u32(static_cast<u32>(bb.call_target_relocatable.size()));
  for (const u8 reloc : bb.call_target_relocatable) w.put_u8(reloc);
  w.put_bool(bb.has_indirect_call);
  w.put_bool(bb.is_return);
  w.put_bool(bb.has_indirect_jump);
  w.put_u8(static_cast<u8>(bb.jump_table.kind));
  w.put_u32(bb.jump_table.table);
  w.put_u32(bb.jump_table.entries);
  w.put_bool(bb.jump_table.image_rel);
}

BasicBlock decode_block(serde::Reader& r) {
  BasicBlock bb;
  bb.start = r.get_u32();
  bb.end = r.get_u32();
  const u32 insns = r.get_count(24);
  bb.insns.reserve(insns);
  for (u32 i = 0; i < insns; ++i) bb.insns.push_back(decode_insn(r));
  const u32 succs = r.get_count(4);
  bb.succs.reserve(succs);
  for (u32 i = 0; i < succs; ++i) bb.succs.push_back(r.get_u32());
  const u32 calls = r.get_count(4);
  bb.call_targets.reserve(calls);
  for (u32 i = 0; i < calls; ++i) bb.call_targets.push_back(r.get_u32());
  const u32 relocs = r.get_count(4);
  bb.call_target_relocatable.reserve(relocs);
  for (u32 i = 0; i < relocs; ++i) {
    bb.call_target_relocatable.push_back(r.get_u8());
  }
  bb.has_indirect_call = r.get_bool();
  bb.is_return = r.get_bool();
  bb.has_indirect_jump = r.get_bool();
  const u8 table_kind = r.get_u8();
  if (table_kind > static_cast<u8>(JumpTableKind::kComputed)) {
    throw serde::DecodeError("bad jump-table kind");
  }
  bb.jump_table.kind = static_cast<JumpTableKind>(table_kind);
  bb.jump_table.table = r.get_u32();
  bb.jump_table.entries = r.get_u32();
  bb.jump_table.image_rel = r.get_bool();
  return bb;
}

void encode_function(serde::Writer& w, const FunctionCfg& fn) {
  w.put_u32(fn.entry);
  w.put_bool(fn.thumb);
  w.put_str(fn.name);
  w.put_u32(fn.lo);
  w.put_u32(fn.hi);
  w.put_u32(static_cast<u32>(fn.blocks.size()));
  for (const auto& [start, bb] : fn.blocks) {
    w.put_u32(start);
    encode_block(w, bb);
  }
  w.put_u32(static_cast<u32>(fn.callees.size()));
  for (const GuestAddr c : fn.callees) w.put_u32(c);
  w.put_u32(static_cast<u32>(fn.mem_accesses.size()));
  for (const MemAccess& m : fn.mem_accesses) {
    w.put_u32(m.pc);
    w.put_u8(static_cast<u8>(m.kind));
    w.put_u32(m.addr);
    w.put_u32(m.size);
    w.put_bool(m.is_store);
    w.put_bool(m.image_rel);
  }
  w.put_bool(fn.has_svc);
  w.put_bool(fn.has_indirect_calls);
  w.put_bool(fn.has_indirect_jumps);
  w.put_bool(fn.truncated);
  w.put_u32(fn.insn_count);
  w.put_u32(fn.resolved_indirect_branches);
  w.put_u32(fn.unresolved_indirect_branches);
  w.put_u32(fn.resolved_indirect_calls);
  w.put_u32(fn.unresolved_indirect_calls);
  w.put_u32(static_cast<u32>(fn.degrade_sites.size()));
  for (const DegradeSite& site : fn.degrade_sites) {
    w.put_u32(site.pc);
    w.put_u8(static_cast<u8>(site.reason));
  }
}

FunctionCfg decode_function(serde::Reader& r) {
  FunctionCfg fn;
  fn.entry = r.get_u32();
  fn.thumb = r.get_bool();
  fn.name = r.get_str();
  fn.lo = r.get_u32();
  fn.hi = r.get_u32();
  const u32 blocks = r.get_count(15);
  for (u32 i = 0; i < blocks; ++i) {
    const GuestAddr start = r.get_u32();
    fn.blocks.emplace(start, decode_block(r));
  }
  const u32 callees = r.get_count(4);
  fn.callees.reserve(callees);
  for (u32 i = 0; i < callees; ++i) fn.callees.push_back(r.get_u32());
  const u32 accesses = r.get_count(14);
  fn.mem_accesses.reserve(accesses);
  for (u32 i = 0; i < accesses; ++i) {
    MemAccess m;
    m.pc = r.get_u32();
    const u8 kind = r.get_u8();
    if (kind > static_cast<u8>(MemAccess::Kind::kUnknown)) {
      throw serde::DecodeError("bad mem-access kind");
    }
    m.kind = static_cast<MemAccess::Kind>(kind);
    m.addr = r.get_u32();
    m.size = r.get_u32();
    m.is_store = r.get_bool();
    m.image_rel = r.get_bool();
    fn.mem_accesses.push_back(m);
  }
  fn.has_svc = r.get_bool();
  fn.has_indirect_calls = r.get_bool();
  fn.has_indirect_jumps = r.get_bool();
  fn.truncated = r.get_bool();
  fn.insn_count = r.get_u32();
  fn.resolved_indirect_branches = r.get_u32();
  fn.unresolved_indirect_branches = r.get_u32();
  fn.resolved_indirect_calls = r.get_u32();
  fn.unresolved_indirect_calls = r.get_u32();
  const u32 sites = r.get_count(8);
  fn.degrade_sites.reserve(sites);
  for (u32 i = 0; i < sites; ++i) {
    DegradeSite site;
    site.pc = r.get_u32();
    const u8 reason = r.get_u8();
    if (reason > static_cast<u8>(DegradeReason::kStaleCallTarget)) {
      throw serde::DecodeError("bad degrade reason");
    }
    site.reason = static_cast<DegradeReason>(reason);
    fn.degrade_sites.push_back(site);
  }
  return fn;
}

void encode_summary(serde::Writer& w, const TaintSummary& s) {
  w.put_u32(s.entry);
  w.put_str(s.name);
  w.put_u16(s.touched_regs);
  w.put_u8(static_cast<u8>(s.mem_kind));
  w.put_u32(static_cast<u32>(s.windows.size()));
  for (const Window& win : s.windows) {
    w.put_u32(win.lo);
    w.put_u32(win.hi);
  }
  w.put_bool(s.has_svc);
  w.put_bool(s.truncated);
  w.put_bool(s.unresolved_calls);
  w.put_u8(s.args_to_ret);
  w.put_u8(s.args_to_mem);
  w.put_u8(s.args_to_call);
  w.put_bool(s.ret_depends_on_mem);
  w.put_bool(s.transparent);
}

TaintSummary decode_summary(serde::Reader& r) {
  TaintSummary s;
  s.entry = r.get_u32();
  s.name = r.get_str();
  s.touched_regs = r.get_u16();
  const u8 kind = r.get_u8();
  if (kind > static_cast<u8>(MemKind::kOpaque)) {
    throw serde::DecodeError("bad mem kind");
  }
  s.mem_kind = static_cast<MemKind>(kind);
  const u32 windows = r.get_count(8);
  s.windows.reserve(windows);
  for (u32 i = 0; i < windows; ++i) {
    Window win;
    win.lo = r.get_u32();
    win.hi = r.get_u32();
    s.windows.push_back(win);
  }
  s.has_svc = r.get_bool();
  s.truncated = r.get_bool();
  s.unresolved_calls = r.get_bool();
  s.args_to_ret = r.get_u8();
  s.args_to_mem = r.get_u8();
  s.args_to_call = r.get_u8();
  s.ret_depends_on_mem = r.get_bool();
  s.transparent = r.get_bool();
  return s;
}

// ---- store file helpers ----------------------------------------------------

struct Header {
  u32 magic = 0;
  u32 version = 0;
  u64 key = 0;
  u64 payload_size = 0;
  u64 payload_hash = 0;
};

void encode_header(serde::Writer& w, const Header& h) {
  w.put_u32(h.magic);
  w.put_u32(h.version);
  w.put_u64(h.key);
  w.put_u64(h.payload_size);
  w.put_u64(h.payload_hash);
}

Header decode_header(std::span<const u8> bytes) {
  serde::Reader r(bytes.first(SummaryStore::kHeaderSize));
  Header h;
  h.magic = r.get_u32();
  h.version = r.get_u32();
  h.key = r.get_u64();
  h.payload_size = r.get_u64();
  h.payload_hash = r.get_u64();
  return h;
}

bool write_all(int fd, const u8* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::vector<u8> SummaryStore::encode(const LibrarySummary& lib) {
  serde::Writer w;
  w.put_u64(lib.key);
  w.put_str(lib.name);
  w.put_u32(lib.lifted_base);
  w.put_u32(lib.image_size);
  w.put_u32(static_cast<u32>(lib.program.functions.size()));
  for (const auto& [entry, fn] : lib.program.functions) {
    w.put_u32(entry);
    encode_function(w, fn);
  }
  w.put_u32(static_cast<u32>(lib.index.summaries.size()));
  for (const auto& [entry, s] : lib.index.summaries) {
    w.put_u32(entry);
    encode_summary(w, s);
  }
  w.put_u32(static_cast<u32>(lib.boundaries.size()));
  for (const auto& [entry, bounds] : lib.boundaries) {
    w.put_u32(entry);
    w.put_u32(static_cast<u32>(bounds.size()));
    for (const GuestAddr a : bounds) w.put_u32(a);
  }
  return w.take();
}

LibrarySummary SummaryStore::decode(std::span<const u8> payload) {
  serde::Reader r(payload);
  LibrarySummary lib;
  lib.key = r.get_u64();
  lib.name = r.get_str();
  lib.lifted_base = r.get_u32();
  lib.image_size = r.get_u32();
  const u32 functions = r.get_count(20);
  for (u32 i = 0; i < functions; ++i) {
    const GuestAddr entry = r.get_u32();
    lib.program.functions.emplace(entry, decode_function(r));
  }
  const u32 summaries = r.get_count(24);
  for (u32 i = 0; i < summaries; ++i) {
    const GuestAddr entry = r.get_u32();
    lib.index.summaries.emplace(entry, decode_summary(r));
  }
  const u32 boundary_fns = r.get_count(8);
  for (u32 i = 0; i < boundary_fns; ++i) {
    const GuestAddr entry = r.get_u32();
    const u32 count = r.get_count(4);
    std::vector<GuestAddr>& bounds = lib.boundaries[entry];
    bounds.reserve(count);
    for (u32 k = 0; k < count; ++k) bounds.push_back(r.get_u32());
    // SummaryGate binary-searches the list: only a sorted, duplicate-free
    // one is well formed.
    if (std::adjacent_find(bounds.begin(), bounds.end(),
                           std::greater_equal<>()) != bounds.end()) {
      throw serde::DecodeError("boundaries not strictly ascending");
    }
  }
  r.expect_end();
  return lib;
}

SummaryStore::SummaryStore(std::string dir) : dir_(std::move(dir)) {
  if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST) {
    throw std::runtime_error("SummaryStore: cannot create " + dir_ + ": " +
                             std::strerror(errno));
  }
}

std::string SummaryStore::path_for(u64 key) const {
  char name[32];
  std::snprintf(name, sizeof name, "sum_%016llx.nss",
                static_cast<unsigned long long>(key));
  return dir_ + "/" + name;
}

std::shared_ptr<const LibrarySummary> SummaryStore::load(u64 key) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.loads;
  }
  const std::string path = path_for(key);
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return nullptr;  // absent: a miss, not corruption

  struct stat st{};
  if (::fstat(fd, &st) != 0 || static_cast<std::size_t>(st.st_size) < kHeaderSize) {
    ::close(fd);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.corrupt;
    return nullptr;
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.corrupt;
    return nullptr;
  }

  std::shared_ptr<const LibrarySummary> result;
  const std::span<const u8> bytes(static_cast<const u8*>(map), size);
  // Header, hash and payload are all validated straight off the mapping;
  // the file's bytes are never copied into an intermediate buffer.
  const Header h = decode_header(bytes);
  const std::span<const u8> payload = bytes.subspan(kHeaderSize);
  const bool sane = h.magic == kMagic && h.version == kFormatVersion &&
                    h.key == key && h.payload_size == payload.size() &&
                    h.payload_hash == fnv1a(payload);
  if (sane) {
    try {
      LibrarySummary lib = decode(payload);
      if (lib.key == key) {
        result = std::make_shared<const LibrarySummary>(std::move(lib));
      }
    } catch (const serde::DecodeError&) {
      // fall through: counted as corruption below
    }
  }
  ::munmap(map, size);

  std::lock_guard<std::mutex> lock(mu_);
  if (result != nullptr) {
    ++stats_.hits;
  } else {
    ++stats_.corrupt;
  }
  return result;
}

bool SummaryStore::save(const LibrarySummary& lib) {
  const std::vector<u8> payload = encode(lib);
  Header h;
  h.magic = kMagic;
  h.version = kFormatVersion;
  h.key = lib.key;
  h.payload_size = payload.size();
  h.payload_hash = fnv1a(payload);
  serde::Writer w;
  encode_header(w, h);

  u64 seq = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seq = ++tmp_seq_;
  }
  // Unique per (process, sequence): concurrent worker processes sharing the
  // store never collide on temp names, and the final rename is atomic.
  const std::string tmp = dir_ + "/.nss.tmp." + std::to_string(::getpid()) +
                          "." + std::to_string(seq);
  const auto fail = [&](int fd) {
    if (fd >= 0) ::close(fd);
    ::unlink(tmp.c_str());
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.write_errors;
    return false;
  };

  const int fd = ::open(tmp.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) return fail(-1);
  if (!write_all(fd, w.bytes().data(), w.bytes().size()) ||
      !write_all(fd, payload.data(), payload.size()) || ::fsync(fd) != 0) {
    return fail(fd);
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path_for(lib.key).c_str()) != 0) return fail(-1);

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.writes;
  return true;
}

std::vector<u64> SummaryStore::keys() const {
  std::vector<u64> out;
  DIR* dir = ::opendir(dir_.c_str());
  if (dir == nullptr) return out;
  while (struct dirent* e = ::readdir(dir)) {
    const std::string name = e->d_name;
    if (name.size() != 4 + 16 + 4 || name.rfind("sum_", 0) != 0 ||
        name.compare(name.size() - 4, 4, ".nss") != 0) {
      continue;
    }
    char* end = nullptr;
    const std::string hex = name.substr(4, 16);
    const u64 key = std::strtoull(hex.c_str(), &end, 16);
    if (end == hex.c_str() + hex.size()) out.push_back(key);
  }
  ::closedir(dir);
  std::sort(out.begin(), out.end());
  return out;
}

SummaryStore::Stats SummaryStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace ndroid::static_analysis
