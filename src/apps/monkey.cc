#include "apps/monkey.h"

#include <random>

namespace ndroid::apps {

void Monkey::add_target(dvm::ClassObject* cls) {
  for (const auto& m : cls->methods()) {
    if (m->is_static() && (m->access_flags & dvm::kAccPublic) != 0) {
      targets_.push_back(m.get());
    }
  }
}

MonkeyReport Monkey::run(u32 events,
                         const std::function<u32()>& leak_count) {
  std::mt19937_64 rng(seed_);
  MonkeyReport report;
  if (targets_.empty()) return report;

  u32 seen_leaks = leak_count();
  for (u32 i = 0; i < events; ++i) {
    dvm::Method* m = targets_[rng() % targets_.size()];
    std::vector<dvm::Slot> args;
    for (u32 p = 1; p < m->shorty.size(); ++p) {
      if (m->shorty[p] == 'L') {
        dvm::Object* s = device_.dvm.new_string(
            "monkey-input-" + std::to_string(rng() % 1000));
        args.push_back(dvm::Slot{s->addr(), kTaintClear});
      } else {
        args.push_back(
            dvm::Slot{static_cast<u32>(rng() % 100), kTaintClear});
      }
    }

    MonkeyEvent event;
    event.method = m->clazz->descriptor() + m->name;
    try {
      device_.dvm.call(*m, std::move(args));
    } catch (const GuestFault&) {
      event.threw = true;  // random inputs fault sometimes; keep exploring
      ++report.faulted_events;
    }
    const u32 now = leak_count();
    event.leaks_after = now;
    if (now > seen_leaks && report.first_leaking_method.empty()) {
      report.first_leaking_method = event.method;
    }
    seen_leaks = now;
    report.events.push_back(std::move(event));
  }
  report.total_leaks = seen_leaks;
  return report;
}

}  // namespace ndroid::apps
