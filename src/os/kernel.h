// Simulated Android/Linux kernel: processes, file descriptors, syscalls,
// and guest-materialised task structures.
//
// Role in the reproduction: NDroid sits *outside* the OS (it is built into
// the emulator), so everything it learns about processes and memory maps
// must be recovered from raw guest memory (virtual machine introspection,
// paper §V-F). To make that honest, this kernel maintains its task list and
// per-process VMA lists as linked structures *inside guest memory*; the
// OS-level view reconstructor parses those bytes without access to any of
// this class's host-side state.
//
// Syscall ABI (Linux-EABI-style, simplified): number in R7, args in R0-R5,
// result in R0. SVC instructions are ordinary guest instructions, so
// NDroid's engines observe them via the CPU instruction hook (how the
// paper's Table VII syscall sinks are monitored).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "arm/cpu.h"
#include "mem/memory_map.h"
#include "os/native_heap.h"
#include "os/network.h"
#include "os/vfs.h"

namespace ndroid::os {

/// Simplified syscall numbers (subset of Table VII's hooked calls).
enum class Sys : u32 {
  kExit = 1,
  kRead = 3,
  kWrite = 4,
  kOpen = 5,
  kClose = 6,
  kUnlink = 10,
  kGetpid = 20,
  kMkdir = 39,
  kMmap = 90,
  kMunmap = 91,
  kSocket = 281,
  kConnect = 283,
  kSend = 289,
  kSendto = 290,
  kRecv = 291,
};

/// Open-file flags for Sys::kOpen.
inline constexpr u32 kOpenRead = 0;
inline constexpr u32 kOpenWrite = 1;
inline constexpr u32 kOpenAppend = 2;

struct FdEntry {
  enum class Kind { kFile, kSocket } kind = Kind::kFile;
  std::string path;
  u64 pos = 0;
  int socket_id = -1;
};

struct Process {
  u32 pid = 0;
  std::string name;
  std::vector<mem::Region> regions;
};

/// Decoded syscall, delivered to the observer after the kernel handles it.
struct SyscallEvent {
  Sys number;
  std::array<u32, 6> args{};
  u32 result = 0;
};

class Kernel {
 public:
  /// Guest region that holds the materialised task structures. The root
  /// task-list pointer lives at kTaskRoot (the "init_task symbol").
  static constexpr GuestAddr kKernelBase = 0xC0000000;
  static constexpr u32 kKernelSize = 0x100000;
  static constexpr GuestAddr kTaskRoot = kKernelBase;

  Kernel(mem::AddressSpace& memory, mem::MemoryMap& memmap);

  /// Routes SVC instructions from the CPU to this kernel.
  void attach(arm::Cpu& cpu);

  Vfs& vfs() { return vfs_; }
  Network& network() { return network_; }
  [[nodiscard]] const Network& network() const { return network_; }

  // --- Processes --------------------------------------------------------
  /// Adds a process: appends its task to the guest task list and creates an
  /// empty /proc/<pid>/maps (and /proc/self/maps for the first process,
  /// which stays the current one).
  u32 create_process(std::string name);
  /// Records a mapped region for `pid`, mirrors it into the guest-side VMA
  /// list and appends its line to /proc/<pid>/maps (and /proc/self/maps).
  void map_region(u32 pid, const mem::Region& region);
  [[nodiscard]] const std::vector<Process>& processes() const {
    return processes_;
  }

  // --- File descriptors (host-callable, also used by syscalls) ----------
  int open_file(const std::string& path, u32 flags);
  int open_socket();
  void close_fd(int fd);
  u32 write_fd(int fd, std::span<const u8> data);
  u32 read_fd(int fd, std::span<u8> out);
  [[nodiscard]] const FdEntry* fd_entry(int fd) const;

  /// Anonymous guest memory (simplified mmap): whole pages of the native
  /// heap's region, never returned.
  GuestAddr mmap_anonymous(u32 len) { return heap_.map_pages(len); }

  /// The native heap (malloc/free and the JNI accessors' buffers).
  NativeHeap& heap() { return heap_; }

  void set_syscall_observer(std::function<void(const SyscallEvent&)> fn) {
    syscall_observer_ = std::move(fn);
  }

  /// True once a guest called exit().
  [[nodiscard]] bool exited() const { return exited_; }
  [[nodiscard]] u32 exit_code() const { return exit_code_; }

 private:
  /// Guest task structures are laid out by one bump pass over processes_
  /// in order: each task, then each of its vmas followed by the vma's name.
  /// create_process and a map_region into the last process extend that
  /// layout in place (append_task / append_vma); a map_region into an
  /// earlier process shifts everything after it, so sync_guest_structs
  /// clears the area and lays it out again. Both leave the same bytes as a
  /// layout written once into a fresh kernel area.
  void sync_guest_structs();
  void append_task(const Process& p);
  void append_vma(const mem::Region& r);
  GuestAddr alloc_guest(u32 size);
  /// Appends one /proc/<pid>/maps line for `r` (and to /proc/self/maps when
  /// `pid` is the current process).
  void append_maps_line(u32 pid, const mem::Region& r);

  void handle_svc(arm::Cpu& cpu, u32 svc_imm);
  u32 do_syscall(arm::Cpu& cpu, Sys number, const std::array<u32, 6>& args);

  /// Transfers up to this many bytes stage through io_buffer_, which keeps
  /// its largest size; longer ones get a buffer of their own per call.
  static constexpr u32 kIoBufferBytes = 64 * 1024;
  /// `len` bytes of staging for one syscall's data (contents unspecified):
  /// io_buffer_ when it fits, else `large`, grown to `len`.
  std::span<u8> io_buffer(u32 len, std::vector<u8>& large) {
    std::vector<u8>& buf = len <= kIoBufferBytes ? io_buffer_ : large;
    if (buf.size() < len) buf.resize(len);
    return {buf.data(), len};
  }

  mem::AddressSpace& memory_;
  mem::MemoryMap& memmap_;
  Vfs vfs_;
  Network network_;

  std::vector<Process> processes_;
  u32 next_pid_ = 1000;
  u32 current_pid_ = 0;

  std::unordered_map<int, FdEntry> fds_;
  int next_fd_ = 3;  // 0-2 reserved

  std::vector<u8> io_buffer_;
  GuestAddr kernel_bump_ = 0;  // guest allocator for task structs
  GuestAddr task_tail_ = 0;    // link word the next task is stored into
  GuestAddr vma_tail_ = 0;     // link word the last task's next vma goes in
  NativeHeap heap_;

  std::function<void(const SyscallEvent&)> syscall_observer_;
  bool exited_ = false;
  u32 exit_code_ = 0;
};

}  // namespace ndroid::os
