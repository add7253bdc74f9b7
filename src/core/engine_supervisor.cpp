#include "core/engine_supervisor.h"

#include <string>

#include "util/log.h"

namespace swapserve::core {

sim::Task<int> EngineSupervisor::ScanOnce() {
  int actions = 0;
  for (Backend* b : controller_.backends()) {
    Backend& backend = *b;
    const engine::BackendState state = backend.engine->state();

    // Hang detection: a resident engine with in-flight requests that has
    // made no generation progress past the deadline is declared crashed.
    // The epoch guard inside Generate() fails the stuck requests when they
    // eventually unblock; their requeued retries restore the backend.
    if (options_.hang_deadline.ns() > 0 &&
        state == engine::BackendState::kRunning &&
        backend.engine->active_requests() > 0 &&
        sim_.Now() - backend.engine->last_progress() >
            options_.hang_deadline) {
      SWAP_LOG(kWarning, "supervisor")
          << backend.name() << ": hang detected (no progress for "
          << (sim_.Now() - backend.engine->last_progress()).ToString()
          << "), declaring crashed";
      obs::Instant(obs_, {"hang_detected:", backend.name()}, "supervisor",
                   backend.name(), {});
      backend.engine->MarkCrashed("hung: no generation progress past deadline");
      ++actions;
      continue;
    }

    // Age-based rejuvenation: park a long-resident idle backend so its
    // next use reloads from a fresh snapshot.
    if (options_.rejuvenate_after.ns() > 0 &&
        state == engine::BackendState::kRunning && backend.Demand() == 0 &&
        !backend.lock.write_locked() && backend.lock.readers() == 0 &&
        sim_.Now() - backend.health.last_resident >
            options_.rejuvenate_after) {
      SWAP_LOG(kInfo, "supervisor")
          << backend.name() << ": rejuvenating (resident "
          << (sim_.Now() - backend.health.last_resident).ToString() << ")";
      Status s = co_await controller_.SwapOut(backend, /*preemption=*/false);
      if (s.ok()) {
        ++actions;
        metrics_.RecordRejuvenation(backend.name());
      } else {
        SWAP_LOG(kWarning, "supervisor")
            << "rejuvenation of " << backend.name() << " failed: " << s;
      }
    }
  }
  co_return actions;
}

}  // namespace swapserve::core
