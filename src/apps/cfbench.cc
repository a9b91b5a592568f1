#include "apps/cfbench.h"

#include "apps/native_lib_builder.h"

namespace ndroid::apps {

using arm::Cond;
using arm::Label;
using arm::LR;
using arm::PC;
using arm::R;
using arm::SP;
using dvm::CodeBuilder;
using dvm::DOp;
using dvm::kAccPublic;
using dvm::kAccStatic;
using dvm::Method;

namespace {

/// libcfbench.so's entry points, in emission order.
enum CfEntry : std::size_t {
  kMips, kMsflops, kMdflops, kMallocs, kMemRead, kMemWrite, kDiskWrite,
  kDiskRead,
};

}  // namespace

void emit_cfbench(NativeLibBuilder& lib, const android::Device& device) {
  auto& a = lib.a();
  const GuestAddr malloc_fn = device.libc.fn("malloc");
  const GuestAddr free_fn = device.libc.fn("free");
  const GuestAddr sqrtf_fn = device.libc.fn("sqrtf");
  const GuestAddr open_fn = device.libc.fn("open");
  const GuestAddr read_fn = device.libc.fn("read");
  const GuestAddr write_fn = device.libc.fn("write");
  const GuestAddr close_fn = device.libc.fn("close");

  const GuestAddr buffer = lib.buffer(4096);
  const GuestAddr path = lib.cstr("/data/cfbench.dat");

  // All native workloads: jint f(JNIEnv*, jclass, jint iters).

  // Native MIPS: 8 integer ALU ops per iteration.
  lib.fn();  // kMips
  {
    Label loop, done;
    a.mov_imm(R(0), 0);
    a.mov_imm(R(3), 17);
    a.bind(loop);
    a.cmp_imm(R(2), 0);
    a.b(done, Cond::kEQ);
    a.add(R(0), R(0), R(2));
    a.eor(R(0), R(0), R(3));
    a.lsl(R(1), R(0), 3);
    a.add(R(0), R(0), R(1));
    a.lsr(R(1), R(0), 5);
    a.eor(R(0), R(0), R(1));
    a.mul(R(1), R(0), R(3));
    a.add(R(0), R(0), R(1));
    a.sub_imm(R(2), R(2), 1);
    a.b(loop);
    a.bind(done);
    a.ret();
  }

  // Native MSFLOPS: soft-float via libm (sqrtf) plus integer mixing.
  lib.fn();  // kMsflops
  {
    Label loop, done;
    a.push({R(4), R(5), LR});
    a.mov(R(4), R(2));         // iters
    a.mov_imm32(R(5), 0x40490FDB);  // 3.14159f
    a.bind(loop);
    a.cmp_imm(R(4), 0);
    a.b(done, Cond::kEQ);
    a.mov(R(0), R(5));
    a.call(sqrtf_fn);
    a.add_imm(R(5), R(0), 3);  // perturb the bit pattern
    a.sub_imm(R(4), R(4), 1);
    a.b(loop);
    a.bind(done);
    a.mov(R(0), R(5));
    a.pop({R(4), R(5), PC});
  }

  // Native MDFLOPS: 64-bit multiply-accumulate chains.
  lib.fn();  // kMdflops
  {
    Label loop, done;
    a.push({R(4), R(5), R(6), LR});
    a.mov(R(4), R(2));
    a.mov_imm32(R(5), 0x10001);
    a.mov_imm(R(6), 0);
    a.bind(loop);
    a.cmp_imm(R(4), 0);
    a.b(done, Cond::kEQ);
    a.umull(R(0), R(1), R(5), R(4));
    a.add(R(6), R(6), R(0));
    a.smull(R(0), R(1), R(6), R(5));
    a.eor(R(6), R(6), R(1));
    a.sub_imm(R(4), R(4), 1);
    a.b(loop);
    a.bind(done);
    a.mov(R(0), R(6));
    a.pop({R(4), R(5), R(6), PC});
  }

  // Native MALLOCS: malloc(64) + free per iteration.
  lib.fn();  // kMallocs
  {
    Label loop, done;
    a.push({R(4), LR});
    a.mov(R(4), R(2));
    a.bind(loop);
    a.cmp_imm(R(4), 0);
    a.b(done, Cond::kEQ);
    a.mov_imm(R(0), 64);
    a.call(malloc_fn);
    a.call(free_fn);  // r0 = block
    a.sub_imm(R(4), R(4), 1);
    a.b(loop);
    a.bind(done);
    a.mov(R(0), R(4));
    a.pop({R(4), PC});
  }

  // Native Memory Read: 16 sequential word loads per iteration.
  lib.fn();  // kMemRead
  {
    Label loop, done;
    a.mov_imm(R(0), 0);
    a.bind(loop);
    a.cmp_imm(R(2), 0);
    a.b(done, Cond::kEQ);
    a.mov_imm32(R(1), buffer);
    for (int i = 0; i < 16; ++i) {
      a.ldr_post(R(3), R(1), 4);
      a.add(R(0), R(0), R(3));
    }
    a.sub_imm(R(2), R(2), 1);
    a.b(loop);
    a.bind(done);
    a.ret();
  }

  // Native Memory Write: 16 sequential word stores per iteration.
  lib.fn();  // kMemWrite
  {
    Label loop, done;
    a.bind(loop);
    a.cmp_imm(R(2), 0);
    a.b(done, Cond::kEQ);
    a.mov_imm32(R(1), buffer);
    for (int i = 0; i < 16; ++i) {
      a.str_post(R(2), R(1), 4);
    }
    a.sub_imm(R(2), R(2), 1);
    a.b(loop);
    a.bind(done);
    a.mov_imm(R(0), 0);
    a.ret();
  }

  // Native Disk Write: write(fd, buf, 64) per iteration.
  lib.fn();  // kDiskWrite
  {
    Label loop, done;
    a.push({R(4), R(5), LR});
    a.mov(R(4), R(2));
    a.mov_imm32(R(0), path);
    a.mov_imm(R(1), 1);  // kOpenWrite
    a.call(open_fn);
    a.mov(R(5), R(0));
    a.bind(loop);
    a.cmp_imm(R(4), 0);
    a.b(done, Cond::kEQ);
    a.mov(R(0), R(5));
    a.mov_imm32(R(1), buffer);
    a.mov_imm(R(2), 64);
    a.call(write_fn);
    a.sub_imm(R(4), R(4), 1);
    a.b(loop);
    a.bind(done);
    a.mov(R(0), R(5));
    a.call(close_fn);
    a.mov_imm(R(0), 0);
    a.pop({R(4), R(5), PC});
  }

  // Native Disk Read: read(fd, buf, 64) per iteration.
  lib.fn();  // kDiskRead
  {
    Label loop, done;
    a.push({R(4), R(5), LR});
    a.mov(R(4), R(2));
    a.mov_imm32(R(0), path);
    a.mov_imm(R(1), 0);  // kOpenRead
    a.call(open_fn);
    a.mov(R(5), R(0));
    a.bind(loop);
    a.cmp_imm(R(4), 0);
    a.b(done, Cond::kEQ);
    a.mov(R(0), R(5));
    a.mov_imm32(R(1), buffer);
    a.mov_imm(R(2), 64);
    a.call(read_fn);
    a.sub_imm(R(4), R(4), 1);
    a.b(loop);
    a.bind(done);
    a.mov(R(0), R(5));
    a.call(close_fn);
    a.mov_imm(R(0), 0);
    a.pop({R(4), R(5), PC});
  }
}

CfBenchApp::CfBenchApp(android::Device& device) : device_(device) {
  const std::vector<GuestAddr>& fns =
      load_app_lib(device, "libcfbench.so", &emit_cfbench);

  auto& dvm = device.dvm;
  dvm::ClassObject* app = dvm.define_class("Leu/chainfire/cfbench/Bench;");
  auto native = [&](const char* wl_name, const char* m_name, GuestAddr fn) {
    Method* m = dvm.define_native(app, m_name, "II",
                                  kAccPublic | kAccStatic, fn);
    workloads_.push_back(CfWorkload{wl_name, false, m});
  };
  native("Native MIPS", "nativeMips", fns[kMips]);
  native("Native MSFLOPS", "nativeMsflops", fns[kMsflops]);
  native("Native MDFLOPS", "nativeMdflops", fns[kMdflops]);
  native("Native MALLOCS", "nativeMallocs", fns[kMallocs]);
  native("Native Memory Read", "nativeMemRead", fns[kMemRead]);
  native("Native Memory Write", "nativeMemWrite", fns[kMemWrite]);
  native("Native Disk Read", "nativeDiskRead", fns[kDiskRead]);
  native("Native Disk Write", "nativeDiskWrite", fns[kDiskWrite]);

  // Java MIPS: v0 acc, v1 tmp, v2 const, v3 = iters (in).
  {
    CodeBuilder cb;
    cb.const_imm(0, 0).const_imm(2, 17);
    const i32 loop = cb.here();
    cb.if_eqz(3, loop + 9);
    cb.add(0, 0, 3)
        .binop(DOp::kXor, 0, 0, 2)
        .binop(DOp::kShl, 1, 0, 2)
        .add(0, 0, 1)
        .mul(1, 0, 2)
        .add(0, 0, 1)
        .add_imm(3, 3, -1)
        .goto_(loop);
    cb.return_value(0);
    Method* m = dvm.define_method(app, "javaMips", "II",
                                  kAccPublic | kAccStatic, 4, cb.take());
    workloads_.push_back(CfWorkload{"Java MIPS", true, m});
  }

  // Java MSFLOPS / MDFLOPS: float arithmetic loops.
  for (const char* name : {"Java MSFLOPS", "Java MDFLOPS"}) {
    CodeBuilder cb;
    cb.const_imm(0, 0x3FC00000)  // 1.5f
        .const_imm(1, 0x40490FDB);  // pi
    const i32 loop = cb.here();
    cb.if_eqz(3, loop + 6);
    cb.binop(DOp::kMulFloat, 0, 0, 1)
        .binop(DOp::kAddFloat, 0, 0, 1)
        .binop(DOp::kDivFloat, 0, 0, 1)
        .add_imm(3, 3, -1)
        .goto_(loop);
    cb.return_value(0);
    Method* m = dvm.define_method(
        app, name[5] == 'S' ? "javaMsflops" : "javaMdflops", "II",
        kAccPublic | kAccStatic, 4, cb.take());
    workloads_.push_back(CfWorkload{name, true, m});
  }

  // Java Memory Read/Write over an int[] array.
  {
    CodeBuilder cb;
    // v0 arr, v1 idx, v2 acc, v3 len, v4 = iters (in).
    cb.const_imm(3, 64).new_array(0, 3, 4, false).const_imm(2, 0);
    const i32 loop = cb.here();
    cb.if_eqz(4, loop + 8);
    cb.const_imm(1, 0);
    const i32 inner = cb.here();
    cb.if_op(DOp::kIfGe, 1, 3, loop + 6);
    cb.aget(2, 0, 1).add_imm(1, 1, 1).goto_(inner);
    cb.add_imm(4, 4, -1).goto_(loop);
    cb.return_value(2);
    Method* m = dvm.define_method(app, "javaMemRead", "II",
                                  kAccPublic | kAccStatic, 5, cb.take());
    workloads_.push_back(CfWorkload{"Java Memory Read", true, m});
  }
  {
    CodeBuilder cb;
    cb.const_imm(3, 64).new_array(0, 3, 4, false).const_imm(2, 7);
    const i32 loop = cb.here();
    cb.if_eqz(4, loop + 8);
    cb.const_imm(1, 0);
    const i32 inner = cb.here();
    cb.if_op(DOp::kIfGe, 1, 3, loop + 6);
    cb.aput(2, 0, 1).add_imm(1, 1, 1).goto_(inner);
    cb.add_imm(4, 4, -1).goto_(loop);
    cb.return_value(2);
    Method* m = dvm.define_method(app, "javaMemWrite", "II",
                                  kAccPublic | kAccStatic, 5, cb.take());
    workloads_.push_back(CfWorkload{"Java Memory Write", true, m});
  }
}

const CfWorkload* CfBenchApp::find(std::string_view name) const {
  for (const CfWorkload& w : workloads_) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

u32 CfBenchApp::run(const CfWorkload& workload, u32 iterations) {
  return device_.dvm
      .call(*workload.method, {dvm::Slot{iterations, kTaintClear}})
      .value;
}

}  // namespace ndroid::apps
