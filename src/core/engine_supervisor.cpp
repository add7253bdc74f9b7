#include "core/engine_supervisor.h"

#include <string>

#include "util/log.h"

namespace swapserve::core {

bool EngineSupervisor::CanPark() const {
  if (options_.hang_deadline.ns() > 0 || options_.rejuvenate_after.ns() > 0) {
    return false;
  }
  for (const Backend* b : controller_.backends()) {
    if (b->engine->state() == engine::BackendState::kCrashed) return false;
  }
  return true;
}

sim::Task<int> EngineSupervisor::ScanOnce() {
  int actions = 0;
  ++passes_;
  if (paused_) co_return actions;  // the node hosting us is powered off
  for (Backend* b : controller_.backends()) {
    Backend& backend = *b;
    engine::BackendState state = backend.engine->state();

    // Hang detection: a resident engine with in-flight requests that has
    // made no generation progress past the deadline is declared crashed;
    // recovery below picks it up. The epoch guard inside Generate() fails
    // the stuck requests when they eventually unblock.
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
      state = engine::BackendState::kCrashed;
    }

    if (state == engine::BackendState::kCrashed) {
      if (backend.health.state == BackendHealth::State::kRecovering) {
        continue;  // a Recover() is already in flight for this backend
      }
      // Quarantined backends are re-probed at most once per breaker
      // cooldown; the probe slot is the supervisor's restart attempt.
      if (backend.health.state == BackendHealth::State::kQuarantined &&
          !backend.health.breaker.AllowRequest()) {
        continue;
      }
      ++actions;
      SWAP_WARN_IF_ERROR(co_await Recover(backend), "supervisor");
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

// swaplint-ok(coro-ref-param): backend outlives the frame (registered)
sim::Task<Status> EngineSupervisor::Recover(Backend& backend) {
  backend.health.state = BackendHealth::State::kRecovering;
  const sim::SimTime t0 = sim_.Now();

  // Exclusive access: queued pins drain first (they fast-fail against the
  // crashed state), and no swap can interleave with the restart.
  sim::SimRwLock::ExclusiveGuard guard =
      co_await backend.lock.AcquireExclusive();
  if (backend.engine->state() != engine::BackendState::kCrashed) {
    // Somebody else (e.g. a cold-restore fallback) already revived it.
    backend.health.state = BackendHealth::State::kDegraded;
    co_return Status::Ok();
  }

  // MarkCrashed() freed the backend's device memory without crediting the
  // task manager; wake any reservations waiting on those bytes.
  for (hw::GpuId gpu : backend.GpuIds()) {
    task_manager_.NotifyMemoryReleased(gpu);
  }

  Status last = Status::Ok();
  for (int attempt = 1;; ++attempt) {
    SWAP_LOG(kInfo, "supervisor")
        << backend.name() << ": restart attempt " << attempt << "/"
        << options_.restart_policy.max_attempts;
    Result<engine::InitBreakdown> restarted =
        co_await backend.engine->Restart();
    if (restarted.ok()) {
      backend.health.state = BackendHealth::State::kDegraded;
      // Close the breaker: a quarantine re-probe that reaches here consumed
      // the half-open slot, and the restart succeeding is its outcome.
      backend.health.breaker.RecordSuccess();
      backend.health.last_resident = sim_.Now();
      ++backend.health.recoveries;
      const double elapsed = (sim_.Now() - t0).ToSeconds();
      metrics_.RecordRecovery(backend.name(), "restart", elapsed);
      obs::Instant(obs_, {"recovered:", backend.name()}, "supervisor",
                   backend.name(),
                   {{"elapsed_s", elapsed}, {"attempts", attempt}});
      SWAP_LOG(kInfo, "supervisor")
          << backend.name() << ": recovered after " << attempt
          << " attempt(s) in " << (sim_.Now() - t0).ToString();
      co_return Status::Ok();
    }
    last = restarted.status();
    if (!options_.restart_policy.ShouldRetry(last, attempt)) break;
    const sim::SimDuration backoff =
        options_.restart_policy.BackoffBefore(attempt, rng_);
    SWAP_LOG(kWarning, "supervisor")
        << backend.name() << ": restart failed (" << last
        << "); retrying in " << backoff.ToString();
    co_await sim_.Delay(backoff);
  }

  backend.health.state = BackendHealth::State::kQuarantined;
  ++backend.health.quarantines;
  backend.health.breaker.ForceOpen();
  if (fault::IsRetryable(last)) {
    obs::IncCounter(obs_, "swapserve_retry_exhausted_total",
                    {{"component", "supervisor"}, {"model", backend.name()}});
  }
  metrics_.RecordQuarantine(backend.name());
  obs::Instant(obs_, {"quarantined:", backend.name()}, "supervisor",
               backend.name(), {{"cause", last.message()}});
  SWAP_LOG(kError, "supervisor")
      << backend.name() << ": quarantined after "
      << options_.restart_policy.max_attempts
      << " failed restart attempt(s): " << last;
  co_return last;
}

}  // namespace swapserve::core
