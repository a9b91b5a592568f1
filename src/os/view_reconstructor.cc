#include "os/view_reconstructor.h"

namespace ndroid::os {

namespace {
// Mirrors the guest layout the Kernel writes (kernel.cc) — the
// "kernel symbols" a VMI tool derives from the kernel build.
constexpr u32 kTaskNext = 0x00;
constexpr u32 kTaskPid = 0x04;
constexpr u32 kTaskComm = 0x08;
constexpr u32 kTaskMm = 0x18;

constexpr u32 kVmaStart = 0x00;
constexpr u32 kVmaEnd = 0x04;
constexpr u32 kVmaNext = 0x08;
constexpr u32 kVmaName = 0x0C;

constexpr u32 kMaxNodes = 1u << 16;  // cycle guard for corrupt guest data
}  // namespace

const RegionView* ProcessView::find_module(std::string_view module) const {
  for (const RegionView& r : regions) {
    if (r.name == module) return &r;
  }
  return nullptr;
}

std::string ProcessView::module_of(GuestAddr addr) const {
  for (const RegionView& r : regions) {
    if (addr >= r.start && addr < r.end) return r.name;
  }
  return "<unmapped>";
}

ViewReconstructor::ViewReconstructor(const mem::AddressSpace& memory,
                                     GuestAddr task_root)
    : memory_(memory), task_root_(task_root) {}

std::vector<ProcessView> ViewReconstructor::reconstruct() const {
  std::vector<ProcessView> views;
  GuestAddr task = memory_.read32(task_root_);
  u32 guard = 0;
  while (task != 0) {
    if (++guard > kMaxNodes) {
      throw GuestFault("task list does not terminate (corrupt guest state)");
    }
    ProcessView view;
    view.pid = memory_.read32(task + kTaskPid);
    std::string comm;
    for (u32 i = 0; i < 16; ++i) {
      const u8 c = memory_.read8(task + kTaskComm + i);
      if (c == 0) break;
      comm.push_back(static_cast<char>(c));
    }
    view.name = comm;

    GuestAddr vma = memory_.read32(task + kTaskMm);
    u32 vma_guard = 0;
    while (vma != 0) {
      if (++vma_guard > kMaxNodes) {
        throw GuestFault("vma list does not terminate");
      }
      RegionView region;
      region.start = memory_.read32(vma + kVmaStart);
      region.end = memory_.read32(vma + kVmaEnd);
      region.name = memory_.read_cstr(memory_.read32(vma + kVmaName), 4096);
      view.regions.push_back(std::move(region));
      vma = memory_.read32(vma + kVmaNext);
    }
    views.push_back(std::move(view));
    task = memory_.read32(task + kTaskNext);
  }
  return views;
}

const ProcessView* ViewReconstructor::find_process(
    const std::vector<ProcessView>& views, std::string_view name) const {
  for (const ProcessView& v : views) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

}  // namespace ndroid::os
