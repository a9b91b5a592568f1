#include <gtest/gtest.h>

#include <cmath>

#include "libc/libc.h"

namespace ndroid::libc {
namespace {

class LibcFixture : public ::testing::Test {
 protected:
  static constexpr GuestAddr kData = 0x20000;

  LibcFixture()
      : cpu_(mem_, map_),
        kernel_(mem_, map_),
        libc_(cpu_, kernel_) {
    map_.add("data", kData, 0x8000, mem::kRW);
    map_.add("[stack]", 0xBE000000, 0x100000, mem::kRW);
    cpu_.set_initial_sp(0xBE100000);
    kernel_.attach(cpu_);
  }

  u32 call(const std::string& name, const std::vector<u32>& args) {
    return cpu_.call_function(libc_.fn(name), args);
  }

  GuestAddr put_str(GuestAddr at, std::string_view s) {
    mem_.write_cstr(at, s);
    return at;
  }

  mem::AddressSpace mem_;
  mem::MemoryMap map_;
  arm::Cpu cpu_;
  os::Kernel kernel_;
  Libc libc_;
};

TEST_F(LibcFixture, Memcpy) {
  put_str(kData, "sensitive");
  EXPECT_EQ(call("memcpy", {kData + 0x100, kData, 10}), kData + 0x100);
  EXPECT_EQ(mem_.read_cstr(kData + 0x100), "sensitive");
}

TEST_F(LibcFixture, MemmoveOverlapBothDirections) {
  put_str(kData, "abcdef");
  // Forward-overlap (dst > src) must copy backward.
  call("memmove", {kData + 2, kData, 6});
  EXPECT_EQ(mem_.read_cstr(kData), "ababcdef");
  put_str(kData + 0x100, "123456");
  // dst < src
  call("memmove", {kData + 0xFE, kData + 0x100, 7});
  EXPECT_EQ(mem_.read_cstr(kData + 0xFE), "123456");
}

TEST_F(LibcFixture, MemsetAndMemcmp) {
  call("memset", {kData, 'x', 5});
  EXPECT_EQ(mem_.read_cstr(kData), "xxxxx");
  put_str(kData + 0x100, "xxxxx");
  EXPECT_EQ(call("memcmp", {kData, kData + 0x100, 5}), 0u);
  mem_.write8(kData + 0x102, 'y');
  EXPECT_NE(call("memcmp", {kData, kData + 0x100, 5}), 0u);
}

TEST_F(LibcFixture, StrlenStrcpyStrcat) {
  put_str(kData, "hello");
  EXPECT_EQ(call("strlen", {kData}), 5u);
  EXPECT_EQ(call("strlen", {put_str(kData + 0x50, "")}), 0u);

  call("strcpy", {kData + 0x100, kData});
  EXPECT_EQ(mem_.read_cstr(kData + 0x100), "hello");

  put_str(kData + 0x200, " world");
  call("strcat", {kData + 0x100, kData + 0x200});
  EXPECT_EQ(mem_.read_cstr(kData + 0x100), "hello world");
}

TEST_F(LibcFixture, StrncpyPadsWithZeros) {
  put_str(kData, "ab");
  mem_.fill(kData + 0x100, 0xFF, 6);
  call("strncpy", {kData + 0x100, kData, 5});
  EXPECT_EQ(mem_.read8(kData + 0x102), 0);
  EXPECT_EQ(mem_.read8(kData + 0x104), 0);
  EXPECT_EQ(mem_.read8(kData + 0x105), 0xFF);  // untouched past n
}

TEST_F(LibcFixture, StrcmpFamilies) {
  put_str(kData, "apple");
  put_str(kData + 0x100, "apple");
  put_str(kData + 0x200, "apric");
  EXPECT_EQ(call("strcmp", {kData, kData + 0x100}), 0u);
  EXPECT_NE(call("strcmp", {kData, kData + 0x200}), 0u);
  EXPECT_EQ(call("strncmp", {kData, kData + 0x200, 2}), 0u);
  EXPECT_NE(call("strncmp", {kData, kData + 0x200, 3}), 0u);

  put_str(kData + 0x300, "APPLE");
  EXPECT_EQ(call("strcasecmp", {kData, kData + 0x300}), 0u);
  EXPECT_EQ(call("strncasecmp", {kData, kData + 0x300, 5}), 0u);
}

TEST_F(LibcFixture, StrchrStrrchrMemchr) {
  put_str(kData, "a.b.c");
  EXPECT_EQ(call("strchr", {kData, '.'}), kData + 1);
  EXPECT_EQ(call("strrchr", {kData, '.'}), kData + 3);
  EXPECT_EQ(call("strchr", {kData, 'z'}), 0u);
  EXPECT_EQ(call("memchr", {kData, 'c', 5}), kData + 4);
  EXPECT_EQ(call("memchr", {kData, 'c', 3}), 0u);
}

TEST_F(LibcFixture, Strstr) {
  put_str(kData, "send imei=35391 to host");
  put_str(kData + 0x100, "imei=");
  EXPECT_EQ(call("strstr", {kData, kData + 0x100}), kData + 5);
  put_str(kData + 0x200, "nope");
  EXPECT_EQ(call("strstr", {kData, kData + 0x200}), 0u);
  // Empty needle matches at the start.
  put_str(kData + 0x300, "");
  EXPECT_EQ(call("strstr", {kData, kData + 0x300}), kData);
}

TEST_F(LibcFixture, Atoi) {
  EXPECT_EQ(call("atoi", {put_str(kData, "42")}), 42u);
  EXPECT_EQ(call("atoi", {put_str(kData, "-17")}),
            static_cast<u32>(-17));
  EXPECT_EQ(call("atoi", {put_str(kData, "123abc")}), 123u);
  EXPECT_EQ(call("atoi", {put_str(kData, "")}), 0u);
}

TEST_F(LibcFixture, MallocFreeReuse) {
  const u32 p1 = call("malloc", {64});
  ASSERT_NE(p1, 0u);
  mem_.write32(p1, 0xDEAD);
  call("free", {p1});
  const u32 p2 = call("malloc", {64});
  EXPECT_EQ(p2, p1);  // bucket reuse
  const u32 p3 = call("malloc", {64});
  EXPECT_NE(p3, p1);
  EXPECT_GE(libc_.mallocs_performed(), 3u);
}

TEST_F(LibcFixture, CallocZeroes) {
  const u32 p = call("malloc", {16});
  mem_.fill(p, 0xAA, 16);
  call("free", {p});
  const u32 q = call("calloc", {4, 4});
  EXPECT_EQ(q, p);
  EXPECT_EQ(mem_.read32(q), 0u);
}

TEST_F(LibcFixture, ReallocPreservesPrefix) {
  const u32 p = call("malloc", {16});
  mem_.write32(p, 0xFEEDFACE);
  const u32 q = call("realloc", {p, 64});
  EXPECT_EQ(mem_.read32(q), 0xFEEDFACEu);
}

TEST_F(LibcFixture, SmallMallocBlocksSharePages) {
  // Sixteen blocks of each size from 16 to 64 bytes: one page per size, not
  // one per block.
  const u32 before = kernel_.heap().mapped_bytes();
  for (u32 size = 16; size <= 64; size += 16) {
    const u32 first = call("malloc", {size});
    for (u32 i = 1; i < 16; ++i) {
      const u32 p = call("malloc", {size});
      EXPECT_EQ(p, first + i * size);
      EXPECT_EQ(p / os::NativeHeap::kPageSize,
                first / os::NativeHeap::kPageSize);
    }
  }
  EXPECT_EQ(kernel_.heap().mapped_bytes() - before,
            4 * os::NativeHeap::kPageSize);
}

TEST_F(LibcFixture, ReallocKeepsContentsAcrossSizes) {
  // Grow through larger classes into a page-granular block, then shrink.
  u32 p = call("malloc", {24});
  for (u32 i = 0; i < 24; ++i) mem_.write8(p + i, static_cast<u8>(i + 1));
  for (const u32 size : {40u, 200u, 5000u, 24u}) {
    const u32 q = call("realloc", {p, size});
    ASSERT_NE(q, p);
    for (u32 i = 0; i < 24; ++i) {
      ASSERT_EQ(mem_.read8(q + i), i + 1) << "size " << size << " byte " << i;
    }
    EXPECT_EQ(kernel_.heap().block_size(p), 0u);  // the old block is freed
    p = q;
  }
  const u32 from_null = call("realloc", {0, 8});
  EXPECT_EQ(kernel_.heap().block_size(from_null), 16u);
}

TEST_F(LibcFixture, Strdup) {
  put_str(kData, "clone me");
  const u32 p = call("strdup", {kData});
  ASSERT_NE(p, 0u);
  ASSERT_NE(p, kData);
  EXPECT_EQ(mem_.read_cstr(p), "clone me");
}

TEST_F(LibcFixture, SprintfFormats) {
  put_str(kData, "%s=%d (0x%x) %c%%");
  put_str(kData + 0x100, "imei");
  call("sprintf",
       {kData + 0x200, kData, kData + 0x100, 255, 255, '!'});
  EXPECT_EQ(mem_.read_cstr(kData + 0x200), "imei=255 (0xff) !%");
}

TEST_F(LibcFixture, SnprintfTruncates) {
  put_str(kData, "%s");
  put_str(kData + 0x100, "longvalue");
  const u32 full = call("snprintf", {kData + 0x200, 5, kData, kData + 0x100});
  EXPECT_EQ(full, 9u);
  EXPECT_EQ(mem_.read_cstr(kData + 0x200), "long");
}

TEST_F(LibcFixture, FopenFprintfFcloseWritesVfs) {
  // The PoC-2 sink sequence (paper Fig. 8): fopen -> fprintf -> fclose.
  put_str(kData, "/sdcard/CONTACTS");
  put_str(kData + 0x100, "w");
  const u32 file = call("fopen", {kData, kData + 0x100});
  ASSERT_NE(file, 0u);

  put_str(kData + 0x200, "%s %s %s ");
  put_str(kData + 0x300, "1");
  put_str(kData + 0x400, "Vincent");
  put_str(kData + 0x500, "cx@gg.com");
  call("fprintf",
       {file, kData + 0x200, kData + 0x300, kData + 0x400, kData + 0x500});
  call("fclose", {file});
  EXPECT_EQ(kernel_.vfs().content_str("/sdcard/CONTACTS"),
            "1 Vincent cx@gg.com ");
}

TEST_F(LibcFixture, FwriteFreadRoundTrip) {
  put_str(kData, "/data/blob");
  put_str(kData + 0x20, "w");
  put_str(kData + 0x30, "r");
  const u32 wf = call("fopen", {kData, kData + 0x20});
  put_str(kData + 0x100, "payload!");
  EXPECT_EQ(call("fwrite", {kData + 0x100, 1, 8, wf}), 8u);
  call("fclose", {wf});

  const u32 rf = call("fopen", {kData, kData + 0x30});
  ASSERT_NE(rf, 0u);
  EXPECT_EQ(call("fread", {kData + 0x200, 1, 8, rf}), 8u);
  EXPECT_EQ(mem_.read_cstr(kData + 0x200), "payload!");
  call("fclose", {rf});
}

TEST_F(LibcFixture, FputsFputcFgets) {
  put_str(kData, "/tmp/t");
  put_str(kData + 0x20, "w");
  const u32 wf = call("fopen", {kData, kData + 0x20});
  put_str(kData + 0x100, "line1\n");
  call("fputs", {kData + 0x100, wf});
  call("fputc", {'!', wf});
  call("fclose", {wf});
  EXPECT_EQ(kernel_.vfs().content_str("/tmp/t"), "line1\n!");

  put_str(kData + 0x30, "r");
  const u32 rf = call("fopen", {kData, kData + 0x30});
  EXPECT_EQ(call("fgets", {kData + 0x200, 64, rf}), kData + 0x200);
  EXPECT_EQ(mem_.read_cstr(kData + 0x200), "line1\n");
}

TEST_F(LibcFixture, SocketWrappersReachNetwork) {
  const u32 fd = call("socket", {2, 1, 0});
  put_str(kData, "softphone.comwave.net");
  call("connect", {fd, kData, 5060});
  put_str(kData + 0x100, "REGISTER sip:softphone.comwave.net");
  call("send", {fd, kData + 0x100, 34});
  EXPECT_EQ(kernel_.network().bytes_sent_to("softphone.comwave.net"),
            "REGISTER sip:softphone.comwave.net");
}

TEST_F(LibcFixture, SendtoPassesFifthArg) {
  const u32 fd = call("socket", {2, 2, 0});
  put_str(kData, "dns.example");
  put_str(kData + 0x100, "q");
  call("sendto", {fd, kData + 0x100, 1, kData, 53});
  ASSERT_EQ(kernel_.network().packets().size(), 1u);
  EXPECT_EQ(kernel_.network().packets()[0].dest_port, 53);
  EXPECT_EQ(kernel_.network().packets()[0].dest_host, "dns.example");
}

TEST_F(LibcFixture, LibmSoftFloat) {
  auto f2u = [](float f) { return std::bit_cast<u32>(f); };
  auto u2f = [](u32 u) { return std::bit_cast<float>(u); };
  EXPECT_NEAR(u2f(call("sqrtf", {f2u(16.0f)})), 4.0f, 1e-6);
  EXPECT_NEAR(u2f(call("sin", {f2u(0.0f)})), 0.0f, 1e-6);
  EXPECT_NEAR(u2f(call("powf", {f2u(2.0f), f2u(10.0f)})), 1024.0f, 1e-3);
  EXPECT_NEAR(u2f(call("atan2", {f2u(1.0f), f2u(1.0f)})),
              static_cast<float>(M_PI / 4), 1e-6);
}

TEST_F(LibcFixture, Sscanf) {
  put_str(kData, "42 contacts");
  put_str(kData + 0x100, "%d %s");
  const u32 n =
      call("sscanf", {kData, kData + 0x100, kData + 0x200, kData + 0x300});
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(mem_.read32(kData + 0x200), 42u);
  EXPECT_EQ(mem_.read_cstr(kData + 0x300), "contacts");
}

TEST_F(LibcFixture, StrtoulAndFriends) {
  EXPECT_EQ(call("strtoul", {put_str(kData, "ff"), 0, 16}), 255u);
  EXPECT_EQ(call("atol", {put_str(kData, "98765")}), 98765u);
  EXPECT_EQ(call("sysconf", {30}), 4096u);
}

}  // namespace
}  // namespace ndroid::libc
