// The bytecode interpreter, with TaintDroid's taint propagation.
//
// "TaintDroid tracks the taints of primitive type variables and object
// references according to the logic of each DVM instruction" (paper §II-B).
// Rules implemented here (TaintDroid's published policy):
//   move          t(A) = t(B)
//   const         t(A) = clear
//   binop         t(A) = t(B) | t(C)
//   aget          t(A) = t(array object) | t(index)
//   aput          t(array object) |= t(src)
//   iget/sget     t(A) = t(field slot) (| t(obj ref) for iget)
//   iput/sput     t(field slot) = t(src)
//   invoke        args' taints copied into callee frame / outs area
//   move-result   t(A) = return-value taint from InterpSaveState
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

#include "dvm/dvm.h"

namespace ndroid::dvm {

namespace {
float as_float(u32 v) { return std::bit_cast<float>(v); }
u32 from_float(float f) { return std::bit_cast<u32>(f); }
}  // namespace

void Dvm::verify_slow(const Method& method) {
  auto fail = [&](const std::string& why) {
    const std::string owner =
        method.clazz != nullptr ? method.clazz->descriptor() + "." : "";
    throw GuestFault("verify error in " + owner + method.name + ": " + why);
  };
  const u16 size = method.registers_size;
  if (method.ins_size > size) {
    fail("ins_size " + std::to_string(method.ins_size) +
         " exceeds registers_size " + std::to_string(size));
  }
  for (u32 pc = 0; pc < method.code.size(); ++pc) {
    const DInsn& insn = method.code[pc];
    u16 regs[3];
    u32 n = 0;
    switch (insn.op) {
      case DOp::kNop:
      case DOp::kReturnVoid:
      case DOp::kGoto:
      case DOp::kInvoke:
        break;
      case DOp::kMoveResult:
      case DOp::kReturn:
      case DOp::kConst:
      case DOp::kConstString:
      case DOp::kNewInstance:
      case DOp::kSget:
      case DOp::kSput:
      case DOp::kIfEqz:
      case DOp::kIfNez:
      case DOp::kMoveException:
        regs[n++] = insn.a;
        break;
      case DOp::kMove:
      case DOp::kNewArray:
      case DOp::kArrayLength:
      case DOp::kIget:
      case DOp::kIput:
      case DOp::kAddImm:
      case DOp::kIfEq:
      case DOp::kIfNe:
      case DOp::kIfLt:
      case DOp::kIfGe:
        regs[n++] = insn.a;
        regs[n++] = insn.b;
        break;
      case DOp::kAget:
      case DOp::kAput:
      case DOp::kAdd:
      case DOp::kSub:
      case DOp::kMul:
      case DOp::kDiv:
      case DOp::kRem:
      case DOp::kAnd:
      case DOp::kOr:
      case DOp::kXor:
      case DOp::kShl:
      case DOp::kShr:
      case DOp::kAddFloat:
      case DOp::kMulFloat:
      case DOp::kDivFloat:
        regs[n++] = insn.a;
        regs[n++] = insn.b;
        regs[n++] = insn.c;
        break;
    }
    auto check = [&](u16 r) {
      if (r >= size) {
        fail("register v" + std::to_string(r) + " at bytecode " +
             std::to_string(pc) + " outside registers_size " +
             std::to_string(size));
      }
    };
    for (u32 i = 0; i < n; ++i) check(regs[i]);
    if (insn.op == DOp::kInvoke) {
      for (u16 r : insn.args) check(r);
    }
  }
  method.verified = true;
}

void Dvm::interpret(const Method& method, GuestAddr fp) {
  if (policy_.propagate_java) {
    run_method<true>(method, fp);
  } else {
    run_method<false>(method, fp);
  }
}

// Registers are read and written through a host window onto the frame
// (AddressSpace::host_window): guest memory stays the only copy, so NDroid's
// frame-slot taint writes and DroidScope's observer see the same bytes. The
// window is taken once per activation and again after every point where
// other code runs (an invoke, the bytecode observer), since only those can
// arm a write watch on the frame's page. A frame that straddles a page or
// sits on a watched page has no window and goes through the DvmStack
// accessors. The verifier bounds every register index by registers_size.
template <bool kTaint>
void Dvm::run_method(const Method& method, GuestAddr fp) {
  // Dalvik's "StackOverflowError" analogue: bound host recursion as well as
  // the guest frame region (tiny frames can exhaust the host stack first).
  struct DepthGuard {
    u32& depth;
    explicit DepthGuard(u32& d) : depth(d) {
      if (++depth > 256) {
        --depth;
        throw GuestFault("DVM stack overflow (interpreter depth)");
      }
    }
    ~DepthGuard() { --depth; }
  } guard(interp_depth_);
  verify(method);

  // Loop state lives in locals: stores through the frame window may alias
  // any member, so nothing the loop tests is re-read from `this`.
  mem::AddressSpace& mem = cpu_.memory();
  const u32 frame_bytes = 8u * method.registers_size;
  u8* regs = mem.host_window(fp, frame_bytes);
  bool observed = static_cast<bool>(insn_observer_);
  const DInsn* const code = method.code.data();
  const u32 code_size = static_cast<u32>(method.code.size());
  // Bytecodes run since bytecodes_executed_ was last brought up to date;
  // flushed before other code runs and on every exit, so the public count
  // is exact wherever it can be observed.
  struct Pending {
    u64& total;
    u64 count = 0;
    void flush() {
      total += count;
      count = 0;
    }
    ~Pending() { flush(); }
  } pending{bytecodes_executed_};

  auto val = [&](u16 r) -> u32 {
    if (regs != nullptr) [[likely]] {
      u32 v;
      std::memcpy(&v, regs + 8u * r, 4);
      return v;
    }
    return stack_.reg_value(fp, r);
  };
  auto tnt = [&](u16 r) -> Taint {
    if constexpr (!kTaint) {
      (void)r;
      return kTaintClear;
    } else {
      if (regs != nullptr) [[likely]] {
        Taint t;
        std::memcpy(&t, regs + 8u * r + 4, 4);
        return t;
      }
      return stack_.reg_taint(fp, r);
    }
  };
  auto set = [&](u16 r, u32 v, Taint t) {
    const Taint stored = kTaint ? t : kTaintClear;
    if (regs != nullptr) [[likely]] {
      std::memcpy(regs + 8u * r, &v, 4);
      std::memcpy(regs + 8u * r + 4, &stored, 4);
      return;
    }
    stack_.set_reg(fp, r, v, stored);
  };
  // Takes the register's value, not its index: a helper that reached the
  // window through `val` would take `regs`' address and force every access
  // to reload it from the stack.
  auto obj_of = [&](u32 v) -> Object* {
    if (v == 0) throw GuestFault("null dereference in " + method.name);
    Object* o = heap_.object_at(v);
    if (o == nullptr) {
      throw GuestFault("dangling object pointer in " + method.name);
    }
    return o;
  };

  u32 pc = 0;
  while (pc < code_size) {
    const DInsn& insn = code[pc];
    ++pending.count;
    if (observed) [[unlikely]] {
      pending.flush();
      insn_observer_(method, insn);
      regs = mem.host_window(fp, frame_bytes);
      observed = static_cast<bool>(insn_observer_);
    }
    u32 next = pc + 1;

    switch (insn.op) {
      case DOp::kNop:
        break;
      case DOp::kMove:
        set(insn.a, val(insn.b), tnt(insn.b));
        break;
      case DOp::kMoveResult:
        set(insn.a, retval_.value, retval_.taint);
        break;
      case DOp::kReturnVoid:
        retval_ = Slot{0, kTaintClear};
        return;
      case DOp::kReturn:
        retval_ = Slot{val(insn.a), tnt(insn.a)};
        return;
      case DOp::kConst:
        set(insn.a, static_cast<u32>(insn.imm), kTaintClear);
        break;
      case DOp::kConstString: {
        Object* s = heap_.new_string(string_class_, insn.str);
        set(insn.a, s->addr(), kTaintClear);
        break;
      }
      case DOp::kNewInstance: {
        Object* o = heap_.new_instance(insn.cls);
        set(insn.a, o->addr(), kTaintClear);
        break;
      }
      case DOp::kNewArray: {
        Object* o = heap_.new_array(nullptr, val(insn.b),
                                    static_cast<u32>(insn.imm),
                                    insn.idx != 0);
        set(insn.a, o->addr(), kTaintClear);
        break;
      }
      case DOp::kArrayLength: {
        Object* arr = obj_of(val(insn.b));
        set(insn.a, arr->length(), tnt(insn.b));
        break;
      }
      case DOp::kAget: {
        Object* arr = obj_of(val(insn.b));
        const u32 v = heap_.array_get(*arr, val(insn.c));
        set(insn.a, v,
            kTaint ? heap_.object_taint(*arr) | tnt(insn.c) : kTaintClear);
        break;
      }
      case DOp::kAput: {
        Object* arr = obj_of(val(insn.b));
        heap_.array_set(*arr, val(insn.c), val(insn.a));
        if constexpr (kTaint) heap_.add_object_taint(*arr, tnt(insn.a));
        break;
      }
      case DOp::kIget: {
        Object* obj = obj_of(val(insn.b));
        const Slot& f = obj->fields().at(insn.idx);
        set(insn.a, f.value, f.taint | tnt(insn.b));
        break;
      }
      case DOp::kIput: {
        Object* obj = obj_of(val(insn.b));
        Slot& f = obj->fields().at(insn.idx);
        f.value = val(insn.a);
        f.taint = tnt(insn.a);
        heap_.sync_payload(*obj);
        break;
      }
      case DOp::kSget: {
        const Slot& f = insn.cls->statics().at(insn.idx);
        set(insn.a, f.value, f.taint);
        break;
      }
      case DOp::kSput: {
        Slot& f = insn.cls->statics().at(insn.idx);
        f.value = val(insn.a);
        f.taint = tnt(insn.a);
        break;
      }
      case DOp::kAdd:
      case DOp::kSub:
      case DOp::kMul:
      case DOp::kDiv:
      case DOp::kRem:
      case DOp::kAnd:
      case DOp::kOr:
      case DOp::kXor:
      case DOp::kShl:
      case DOp::kShr: {
        // Java int semantics are two's-complement wraparound: compute in
        // unsigned and reinterpret, which is well-defined on overflow.
        const u32 ub = val(insn.b);
        const u32 uc = val(insn.c);
        const i32 b = static_cast<i32>(ub);
        const i32 c = static_cast<i32>(uc);
        u32 r = 0;
        switch (insn.op) {
          case DOp::kAdd: r = ub + uc; break;
          case DOp::kSub: r = ub - uc; break;
          case DOp::kMul: r = ub * uc; break;
          case DOp::kDiv:
            if (c == 0) throw GuestFault("ArithmeticException: / by zero");
            // INT_MIN / -1 also overflows; Java defines it as INT_MIN.
            r = (b == INT32_MIN && c == -1) ? ub
                                            : static_cast<u32>(b / c);
            break;
          case DOp::kRem:
            if (c == 0) throw GuestFault("ArithmeticException: % by zero");
            r = (b == INT32_MIN && c == -1) ? 0u : static_cast<u32>(b % c);
            break;
          case DOp::kAnd: r = ub & uc; break;
          case DOp::kOr: r = ub | uc; break;
          case DOp::kXor: r = ub ^ uc; break;
          case DOp::kShl: r = ub << (uc & 31); break;
          case DOp::kShr: r = static_cast<u32>(b >> (uc & 31)); break;
          default: break;
        }
        set(insn.a, r, tnt(insn.b) | tnt(insn.c));
        break;
      }
      case DOp::kAddFloat:
      case DOp::kMulFloat:
      case DOp::kDivFloat: {
        const float b = as_float(val(insn.b));
        const float c = as_float(val(insn.c));
        float r = 0;
        switch (insn.op) {
          case DOp::kAddFloat: r = b + c; break;
          case DOp::kMulFloat: r = b * c; break;
          case DOp::kDivFloat: r = b / c; break;
          default: break;
        }
        set(insn.a, from_float(r), tnt(insn.b) | tnt(insn.c));
        break;
      }
      case DOp::kAddImm:
        set(insn.a, val(insn.b) + static_cast<u32>(insn.imm), tnt(insn.b));
        break;
      case DOp::kIfEq:
        if (val(insn.a) == val(insn.b)) next = static_cast<u32>(insn.target);
        break;
      case DOp::kIfNe:
        if (val(insn.a) != val(insn.b)) next = static_cast<u32>(insn.target);
        break;
      case DOp::kIfLt:
        if (static_cast<i32>(val(insn.a)) < static_cast<i32>(val(insn.b))) {
          next = static_cast<u32>(insn.target);
        }
        break;
      case DOp::kIfGe:
        if (static_cast<i32>(val(insn.a)) >= static_cast<i32>(val(insn.b))) {
          next = static_cast<u32>(insn.target);
        }
        break;
      case DOp::kIfEqz:
        if (val(insn.a) == 0) next = static_cast<u32>(insn.target);
        break;
      case DOp::kIfNez:
        if (val(insn.a) != 0) next = static_cast<u32>(insn.target);
        break;
      case DOp::kGoto:
        next = static_cast<u32>(insn.target);
        break;
      case DOp::kInvoke: {
        const Method* callee = insn.method;
        const u32 n = static_cast<u32>(insn.args.size());
        if (n != callee->arg_count()) {
          throw GuestFault("arity mismatch invoking " + callee->name);
        }
        pending.flush();
        if (callee->is_builtin() || callee->is_native()) {
          std::vector<Slot> args(n);
          for (u32 i = 0; i < n; ++i) {
            args[i] = Slot{val(insn.args[i]), tnt(insn.args[i])};
          }
          if (callee->is_builtin()) {
            Slot ret = callee->builtin(*this, args);
            if constexpr (!kTaint) ret.taint = kTaintClear;
            retval_ = ret;
          } else {
            retval_ = invoke_native(*callee, args);
          }
        } else {
          // The callee's frame sits below this one, so the arguments copy
          // straight across.
          verify(*callee);
          const GuestAddr callee_fp = stack_.push_frame(*callee);
          const u16 first_in = callee->registers_size - callee->ins_size;
          for (u32 i = 0; i < n; ++i) {
            stack_.set_reg(callee_fp, static_cast<u16>(first_in + i),
                           val(insn.args[i]), tnt(insn.args[i]));
          }
          interpret(*callee, callee_fp);
          stack_.pop_frame();
        }
        regs = mem.host_window(fp, frame_bytes);
        observed = static_cast<bool>(insn_observer_);
        break;
      }
      case DOp::kMoveException: {
        Object* exc = pending_exception;
        pending_exception = nullptr;
        set(insn.a, exc ? exc->addr() : 0, kTaintClear);
        break;
      }
    }
    pc = next;
  }
  retval_ = Slot{0, kTaintClear};
}

}  // namespace ndroid::dvm
