#include "core/idle_reaper.h"

#include <algorithm>

#include "util/log.h"

namespace swapserve::core {

IdleReaper::IdleReaper(sim::Simulation& sim, EngineController& controller,
                       sim::SimDuration idle_threshold,
                       sim::SimDuration scan_interval)
    : sim_(sim),
      controller_(controller),
      idle_threshold_(idle_threshold),
      loop_(sim, scan_interval, &controller.residency_signal(),
            {.pass = [this]() -> sim::Task<> { (void)co_await ScanOnce(); },
             .next_work = [this] { return NextDeadline(); }}) {}

bool IdleReaper::IsIdle(const Backend& backend) const {
  if (backend.engine->state() != engine::BackendState::kRunning) {
    return false;
  }
  if (backend.Demand() > 0) return false;
  if (backend.lock.write_locked() || backend.lock.readers() > 0) {
    return false;  // a swap or a relay is in flight
  }
  return sim_.Now() - backend.last_accessed >= idle_threshold_;
}

sim::SimTime IdleReaper::NextDeadline() const {
  sim::SimTime due = sim::kNever;
  for (const Backend* backend : controller_.backends()) {
    if (backend->engine->state() == engine::BackendState::kRunning) {
      due = std::min(due, backend->last_accessed + idle_threshold_);
    }
  }
  return due;
}

sim::Task<int> IdleReaper::ScanOnce() {
  int reaped = 0;
  for (Backend* backend : controller_.backends()) {
    if (!IsIdle(*backend)) continue;
    SWAP_LOG(kInfo, "idle-reaper")
        << "parking idle backend " << backend->name() << " (idle "
        << (sim_.Now() - backend->last_accessed).ToString() << ")";
    Status s = co_await controller_.SwapOut(*backend, /*preemption=*/false);
    if (s.ok()) {
      ++reaped;
      ++total_reaped_;
    } else {
      SWAP_LOG(kWarning, "idle-reaper")
          << "failed to park " << backend->name() << ": " << s;
    }
  }
  co_return reaped;
}

}  // namespace swapserve::core
