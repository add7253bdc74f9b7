#include "core/scheduler.h"

#include "util/log.h"

namespace swapserve::core {

// swaplint-ok(coro-ref-param): backend outlives the frame (registered)
sim::Task<Result<sim::SimRwLock::SharedGuard>> Scheduler::EnsureRunningAndPin(
    Backend& backend) {
  // Circuit breaker tripped by request-path failures: fast-fail while
  // open, admit a single probe request once the cooldown elapses. Checked
  // once per call (not per loop iteration) so the admitted probe is not
  // rejected by its own retries; its outcome is recorded below.
  if (!backend.breaker.AllowRequest()) {
    co_return Unavailable("backend " + backend.name() +
                          ": circuit breaker open");
  }
  // Breaker bookkeeping for real attempts (the fast-fail gate above never
  // reaches these): a granted pin closes the breaker, a terminal failure
  // counts toward its trip threshold.
  auto record_failure = [this, &backend] {
    const std::uint64_t trips = backend.breaker.trips();
    backend.breaker.RecordFailure();
    if (backend.breaker.trips() > trips) {
      if (metrics_ != nullptr) metrics_->RecordQuarantine(backend.name());
      SWAP_LOG(kWarning, "scheduler")
          << backend.name() << ": circuit breaker opened after "
          << backend.breaker.consecutive_failures()
          << " consecutive failures";
    }
  };
  // Distinguishes "gave up on a retryable failure because the attempt
  // budget ran out" (counted) from "the failure was never retryable"
  // (not an exhaustion — retrying would not have helped).
  auto record_exhausted = [this, &backend](const Status& status) {
    if (!fault::IsRetryable(status)) return;
    obs::IncCounter(obs_, "swapserve_retry_exhausted_total",
                    {{"component", "scheduler"}, {"model", backend.name()}});
  };

  // Reservation/swap-in failures below are retried with backoff up to the
  // policy's budget; `failures` persists across loop iterations.
  int failures = 0;
  while (true) {
    if (backend.engine->state() == engine::BackendState::kRunning) {
      // Pin. The lock is FIFO, so we may wait behind a queued preemption;
      // re-check the state once granted and retry if we lost the backend.
      sim::SimRwLock::SharedGuard pin =
          co_await backend.lock.AcquireShared();
      if (backend.engine->state() == engine::BackendState::kRunning) {
        backend.breaker.RecordSuccess();
        // The pin outlives this frame (returned to the caller); sever the
        // debug validator's frame attribution so a new coroutine reusing
        // this frame's address is not mistaken for the holder.
        pin.DetachAgent();
        co_return pin;
      }
      pin.Release();
      continue;
    }

    if (backend.swap_in_progress) {
      // Another trigger is already swapping this backend in; wait and
      // re-evaluate (it may have failed, or the backend may have been
      // preempted again).
      co_await backend.swap_done.Wait();
      continue;
    }

    if (backend.engine->state() == engine::BackendState::kSwapping) {
      // A swap-out (preemption) is mid-flight under the exclusive lock;
      // queue behind it as a reader, then re-evaluate once it settles.
      sim::SimRwLock::SharedGuard stale =
          co_await backend.lock.AcquireShared();
      stale.Release();
      continue;
    }

    // A crashed backend is restored like a swapped-out one: behind a
    // reservation of its full footprint (the controller restores its
    // snapshot, or restarts it from scratch when it has none).
    const bool crashed =
        backend.engine->state() == engine::BackendState::kCrashed;
    if (!crashed &&
        backend.engine->state() != engine::BackendState::kSwappedOut) {
      record_failure();
      co_return Unavailable(
          "backend " + backend.name() + " is " +
          std::string(engine::BackendStateName(backend.engine->state())));
    }

    backend.swap_in_progress = true;
    backend.swap_done.Reset();
    // Start staging the snapshot host-side now: by the time the restore's
    // H2D copy needs the bytes, the NVMe promotion has been running for
    // the whole reservation + eviction window.
    if (prefetch_hook_) prefetch_hook_(backend);

    // §3.4/§6: reserve the GPU memory saved at swap-out — one scoped
    // reservation per device in the tensor-parallel group, acquired in
    // ascending device order so overlapping groups cannot deadlock.
    const Bytes footprint =
        crashed ? backend.engine->GpuResidentBytes() : backend.resident_bytes;
    obs::Span place_span = obs::StartSpan(obs_, "scheduler.place",
                                          "scheduler", backend.name());
    place_span.AddArg("bytes", footprint.count());
    const sim::SimTime reserve_start = sim_.Now();
    const std::vector<hw::GpuId> gpu_ids = backend.GpuIds();
    const auto tp = static_cast<std::int64_t>(gpu_ids.size());
    const Bytes per_gpu(footprint.count() / tp);
    const Bytes first_gpu = per_gpu + (footprint - per_gpu * tp);
    std::vector<TaskManager::Reservation> reservations;
    Status status = Status::Ok();
    {
      obs::Span reserve_span = obs::StartSpan(obs_, "scheduler.reserve",
                                              "scheduler", backend.name());
      for (std::size_t rank = 0; rank < gpu_ids.size(); ++rank) {
        Result<TaskManager::Reservation> reservation =
            co_await task_manager_.Reserve(
                gpu_ids[rank], rank == 0 ? first_gpu : per_gpu,
                backend.name());
        if (!reservation.ok()) {
          status = reservation.status();
          break;
        }
        reservations.push_back(std::move(*reservation));
      }
      reserve_span.AddArg("status", status.ok() ? "ok" : "failed");
    }
    obs::Observe(obs_, backend.reservation_wait,
                 "swapserve_reservation_wait_seconds",
                 {{"model", backend.name()}},
                 (sim_.Now() - reserve_start).ToSeconds());
    if (!status.ok()) {
      // A failed reservation is not terminal by itself: release any shards
      // already acquired, back off, and retry — the memory pressure that
      // starved us may clear. Terminal only after the budget is spent.
      reservations.clear();  // release any shards already acquired
      backend.swap_in_progress = false;
      backend.swap_done.Set();
      ++failures;
      if (retry_policy_.ShouldRetry(status, failures)) {
        if (metrics_ != nullptr) metrics_->RecordSwapRetry(backend.name());
        const sim::SimDuration backoff =
            retry_policy_.BackoffBefore(failures, rng_);
        SWAP_LOG(kWarning, "scheduler")
            << "reservation for " << backend.name() << " failed ("
            << failures << "/" << retry_policy_.max_attempts
            << "): " << status << "; retrying in " << backoff.ToString();
        co_await sim_.Delay(backoff);
        continue;
      }
      SWAP_LOG(kWarning, "scheduler")
          << "reservation for " << backend.name()
          << " failed after " << failures << " attempt(s): " << status;
      record_exhausted(status);
      record_failure();
      co_return status;
    }

    status = co_await controller_.SwapIn(backend);
    if (!status.ok()) {
      reservations.clear();
      backend.swap_in_progress = false;
      backend.swap_done.Set();
      ++failures;
      if (retry_policy_.ShouldRetry(status, failures)) {
        if (metrics_ != nullptr) metrics_->RecordSwapRetry(backend.name());
        const sim::SimDuration backoff =
            retry_policy_.BackoffBefore(failures, rng_);
        SWAP_LOG(kWarning, "scheduler")
            << "swap-in of " << backend.name() << " failed (" << failures
            << "/" << retry_policy_.max_attempts << "): " << status
            << "; retrying in " << backoff.ToString();
        co_await sim_.Delay(backoff);
        continue;
      }
      record_exhausted(status);
      record_failure();
      co_return status;
    }

    // Queue the pin BEFORE releasing the reservations: the release may
    // immediately trigger a rival's preemption of this very backend, and
    // FIFO ordering on the lock guarantees our reader precedes it.
    sim::SimRwLock::SharedGuard pin = co_await backend.lock.AcquireShared();
    reservations.clear();
    backend.swap_in_progress = false;
    backend.swap_done.Set();
    if (backend.engine->state() != engine::BackendState::kRunning) {
      // A preemptor queued its exclusive while we were restoring and beat
      // our pin in FIFO order; it already evicted us again. Retry.
      pin.Release();
      continue;
    }
    backend.breaker.RecordSuccess();
    pin.DetachAgent();  // escapes this frame
    co_return pin;
  }
}

}  // namespace swapserve::core
