#include "os/kernel.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>

namespace ndroid::os {

namespace {
constexpr GuestAddr kHeapBase = 0x30000000;
constexpr u32 kHeapSize = 0x4000000;

// Guest task_struct layout (offsets in bytes). The view reconstructor in
// view_reconstructor.cc mirrors these constants; they are the "kernel
// symbols" a VMI tool would derive from the kernel image.
constexpr u32 kTaskNext = 0x00;
constexpr u32 kTaskPid = 0x04;
constexpr u32 kTaskComm = 0x08;  // 16 bytes
constexpr u32 kTaskMm = 0x18;
constexpr u32 kTaskSize = 0x1C;

constexpr u32 kVmaStart = 0x00;
constexpr u32 kVmaEnd = 0x04;
constexpr u32 kVmaNext = 0x08;
constexpr u32 kVmaName = 0x0C;
constexpr u32 kVmaSize = 0x10;

// Task structures start past the init_task pointer's slot.
constexpr GuestAddr kKernelStructs = Kernel::kKernelBase + 16;

std::string maps_path(u32 pid) {
  return "/proc/" + std::to_string(pid) + "/maps";
}
}  // namespace

Kernel::Kernel(mem::AddressSpace& memory, mem::MemoryMap& memmap)
    : memory_(memory), memmap_(memmap), heap_(kHeapBase, kHeapSize) {
  memmap_.add("[kernel]", kKernelBase, kKernelSize, mem::kRW);
  memmap_.add("[heap]", kHeapBase, kHeapSize, mem::kRW);
  memory_.write32(kTaskRoot, 0);
  kernel_bump_ = kKernelStructs;
  task_tail_ = kTaskRoot;
}

void Kernel::attach(arm::Cpu& cpu) {
  cpu.set_svc_handler(
      [this](arm::Cpu& c, u32 imm) { handle_svc(c, imm); });
}

u32 Kernel::create_process(std::string name) {
  const u32 pid = next_pid_++;
  processes_.push_back(Process{pid, std::move(name), {}});
  if (current_pid_ == 0) current_pid_ = pid;
  append_task(processes_.back());
  vfs_.create(maps_path(pid));
  if (pid == current_pid_) vfs_.create("/proc/self/maps");
  return pid;
}

void Kernel::map_region(u32 pid, const mem::Region& region) {
  for (Process& p : processes_) {
    if (p.pid == pid) {
      p.regions.push_back(region);
      if (&p == &processes_.back()) {
        append_vma(region);
      } else {
        sync_guest_structs();
      }
      append_maps_line(pid, region);
      return;
    }
  }
  throw GuestFault("map_region: no such pid " + std::to_string(pid));
}

void Kernel::append_maps_line(u32 pid, const mem::Region& r) {
  // The textual view tools and emulator-detection code read on real
  // Android, one line per region in mapping order.
  char line[128];
  const int n = std::snprintf(
      line, sizeof line, "%08x-%08x %c%c%cp 00000000 %s\n", r.start, r.end,
      mem::has_perm(r.perms, mem::Perm::kRead) ? 'r' : '-',
      mem::has_perm(r.perms, mem::Perm::kWrite) ? 'w' : '-',
      mem::has_perm(r.perms, mem::Perm::kExec) ? 'x' : '-', r.name.c_str());
  const std::span<const u8> bytes(
      reinterpret_cast<const u8*>(line),
      std::min<std::size_t>(static_cast<std::size_t>(n), sizeof line - 1));
  const std::string path = maps_path(pid);
  vfs_.write_at(path, vfs_.size(path), bytes);
  if (pid == current_pid_) {
    vfs_.write_at("/proc/self/maps", vfs_.size("/proc/self/maps"), bytes);
  }
}

GuestAddr Kernel::alloc_guest(u32 size) {
  const GuestAddr addr = kernel_bump_;
  kernel_bump_ += (size + 3) & ~3u;
  if (kernel_bump_ > kKernelBase + kKernelSize) {
    throw GuestFault("kernel struct area exhausted");
  }
  return addr;
}

void Kernel::append_task(const Process& p) {
  const GuestAddr task = alloc_guest(kTaskSize);
  memory_.write32(task_tail_, task);
  memory_.write32(task + kTaskNext, 0);
  memory_.write32(task + kTaskPid, p.pid);
  std::array<u8, 16> comm{};
  std::memcpy(comm.data(), p.name.data(),
              std::min<std::size_t>(p.name.size(), comm.size() - 1));
  memory_.write_bytes(task + kTaskComm, comm);
  memory_.write32(task + kTaskMm, 0);
  task_tail_ = task + kTaskNext;
  vma_tail_ = task + kTaskMm;
}

void Kernel::append_vma(const mem::Region& r) {
  const GuestAddr vma = alloc_guest(kVmaSize);
  const GuestAddr name = alloc_guest(static_cast<u32>(r.name.size()) + 1);
  memory_.write_cstr(name, r.name);
  memory_.write32(vma_tail_, vma);
  memory_.write32(vma + kVmaStart, r.start);
  memory_.write32(vma + kVmaEnd, r.end);
  memory_.write32(vma + kVmaNext, 0);
  memory_.write32(vma + kVmaName, name);
  vma_tail_ = vma + kVmaNext;
}

void Kernel::sync_guest_structs() {
  // Clear the old layout (so no byte of it outlives the new one) and lay
  // every task and vma out again from the start of the area.
  memory_.fill(kKernelStructs, 0, kernel_bump_ - kKernelStructs);
  memory_.write32(kTaskRoot, 0);
  kernel_bump_ = kKernelStructs;
  task_tail_ = kTaskRoot;
  for (const Process& p : processes_) {
    append_task(p);
    for (const mem::Region& r : p.regions) append_vma(r);
  }
}

int Kernel::open_file(const std::string& path, u32 flags) {
  if (flags == kOpenRead && !vfs_.exists(path)) return -1;
  const int fd = next_fd_++;
  FdEntry entry;
  entry.kind = FdEntry::Kind::kFile;
  entry.path = path;
  entry.pos = flags == kOpenAppend ? vfs_.size(path) : 0;
  if (flags == kOpenWrite) vfs_.create(path);
  fds_[fd] = std::move(entry);
  return fd;
}

int Kernel::open_socket() {
  const int fd = next_fd_++;
  FdEntry entry;
  entry.kind = FdEntry::Kind::kSocket;
  entry.socket_id = network_.create_socket();
  fds_[fd] = std::move(entry);
  return fd;
}

void Kernel::close_fd(int fd) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) return;
  if (it->second.kind == FdEntry::Kind::kSocket) {
    network_.close(it->second.socket_id);
  }
  fds_.erase(it);
}

u32 Kernel::write_fd(int fd, std::span<const u8> data) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) return 0;
  FdEntry& e = it->second;
  if (e.kind == FdEntry::Kind::kSocket) {
    network_.send(e.socket_id, data);
  } else {
    vfs_.write_at(e.path, e.pos, data);
    e.pos += data.size();
  }
  return static_cast<u32>(data.size());
}

u32 Kernel::read_fd(int fd, std::span<u8> out) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) return 0;
  FdEntry& e = it->second;
  if (e.kind == FdEntry::Kind::kSocket) {
    return network_.recv(e.socket_id, out);
  }
  const u32 n = vfs_.read_at(e.path, e.pos, out);
  e.pos += n;
  return n;
}

const FdEntry* Kernel::fd_entry(int fd) const {
  auto it = fds_.find(fd);
  return it == fds_.end() ? nullptr : &it->second;
}

void Kernel::handle_svc(arm::Cpu& cpu, u32 svc_imm) {
  auto& regs = cpu.state().regs;
  const u32 number = svc_imm != 0 ? svc_imm : regs[7];
  std::array<u32, 6> args{regs[0], regs[1], regs[2],
                          regs[3], regs[4], regs[5]};
  const u32 result = do_syscall(cpu, static_cast<Sys>(number), args);
  regs[0] = result;
  if (syscall_observer_) {
    syscall_observer_(SyscallEvent{static_cast<Sys>(number), args, result});
  }
}

u32 Kernel::do_syscall(arm::Cpu& cpu, Sys number,
                       const std::array<u32, 6>& args) {
  std::vector<u8> large;  // staging for transfers past kIoBufferBytes
  switch (number) {
    case Sys::kExit:
      exited_ = true;
      exit_code_ = args[0];
      cpu.state().set_pc(arm::kHostReturnAddr);
      return args[0];

    case Sys::kRead: {
      const std::span<u8> buf = io_buffer(args[2], large);
      const u32 n = read_fd(static_cast<int>(args[0]), buf);
      memory_.write_bytes(args[1], buf.first(n));
      return n;
    }

    case Sys::kWrite: {
      const std::span<u8> buf = io_buffer(args[2], large);
      memory_.read_bytes(args[1], buf);
      return write_fd(static_cast<int>(args[0]), buf);
    }

    case Sys::kOpen:
      return static_cast<u32>(
          open_file(memory_.read_cstr(args[0]), args[1]));

    case Sys::kClose:
      close_fd(static_cast<int>(args[0]));
      return 0;

    case Sys::kUnlink:
      vfs_.remove(memory_.read_cstr(args[0]));
      return 0;

    case Sys::kGetpid:
      return current_pid_;

    case Sys::kMkdir:
      return 0;  // directories are implicit in the VFS

    case Sys::kMmap:
      return mmap_anonymous(args[1]);

    case Sys::kMunmap:
      return 0;

    case Sys::kSocket:
      return static_cast<u32>(open_socket());

    case Sys::kConnect: {
      const FdEntry* e = fd_entry(static_cast<int>(args[0]));
      if (e == nullptr || e->kind != FdEntry::Kind::kSocket) return -1u;
      network_.connect(e->socket_id, memory_.read_cstr(args[1]),
                       static_cast<u16>(args[2]));
      return 0;
    }

    case Sys::kSend: {
      const FdEntry* e = fd_entry(static_cast<int>(args[0]));
      if (e == nullptr || e->kind != FdEntry::Kind::kSocket) return -1u;
      const std::span<u8> buf = io_buffer(args[2], large);
      memory_.read_bytes(args[1], buf);
      network_.send(e->socket_id, buf);
      return args[2];
    }

    case Sys::kSendto: {
      const FdEntry* e = fd_entry(static_cast<int>(args[0]));
      if (e == nullptr || e->kind != FdEntry::Kind::kSocket) return -1u;
      const std::span<u8> buf = io_buffer(args[2], large);
      memory_.read_bytes(args[1], buf);
      network_.sendto(e->socket_id, memory_.read_cstr(args[3]),
                      static_cast<u16>(args[4]), buf);
      return args[2];
    }

    case Sys::kRecv: {
      const FdEntry* e = fd_entry(static_cast<int>(args[0]));
      if (e == nullptr || e->kind != FdEntry::Kind::kSocket) return -1u;
      const std::span<u8> buf = io_buffer(args[2], large);
      const u32 n = network_.recv(e->socket_id, buf);
      memory_.write_bytes(args[1], buf.first(n));
      return n;
    }
  }
  throw GuestFault("unimplemented syscall " +
                   std::to_string(static_cast<u32>(number)));
}

}  // namespace ndroid::os
