#include "core/idle_reaper.h"

#include "util/log.h"

namespace swapserve::core {

void IdleReaper::Start() {
  SWAP_CHECK_MSG(!running_, "idle reaper already running");
  running_ = true;
  sim_.Go([this]() -> sim::Task<> {
    // Idleness is time since the last access, which no event announces.
    // swaplint-ok(polling-loop): the scan re-checks idle deadlines
    while (running_) {
      co_await sim_.Delay(scan_interval_);
      if (!running_) break;
      (void)co_await ScanOnce();
    }
  });
}

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
