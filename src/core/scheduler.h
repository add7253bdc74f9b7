// The scheduler (§3.1 circles 4-5, 9): turns "this backend must be running"
// into a task-manager reservation followed by an engine-controller swap-in,
// deduplicating concurrent triggers per backend.
//
// EnsureRunningAndPin returns a *shared* lock guard ("pin") on the backend.
// The pin is queued before the swap-in reservation is released, so a
// preemption triggered by that release (a rival's pending reservation)
// queues strictly behind it: a freshly restored backend always serves the
// request that paid for its swap-in before it can be evicted again. Without
// this ordering two backends that cannot coexist would evict each other
// forever without serving anybody (swap livelock).

#pragma once

#include <functional>

#include "core/backend.h"
#include "core/engine_controller.h"
#include "core/metrics.h"
#include "core/task_manager.h"
#include "fault/retry.h"
#include "sim/random.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "util/status.h"

namespace swapserve::core {

class Scheduler {
 public:
  Scheduler(sim::Simulation& sim, TaskManager& task_manager,
            EngineController& controller)
      : sim_(sim), task_manager_(task_manager), controller_(controller) {}

  // Resolve when the backend is running, holding shared (reader) access to
  // it. The caller serves its request under the returned guard and releases
  // it afterwards; swap operations take the exclusive side. Safe to call
  // concurrently: followers await the leader's in-flight swap-in.
  // swaplint-ok(coro-ref-param): backend outlives the frame (registered)
  sim::Task<Result<sim::SimRwLock::SharedGuard>> EnsureRunningAndPin(
      Backend& backend);

  // Emit placement spans + reservation-wait histograms (nullable).
  void BindObservability(obs::Observability* obs) {
    obs_ = obs;
    for (Backend* backend : controller_.backends()) {
      backend->reservation_wait = nullptr;
    }
  }

  // Bounded retries with jittered backoff around reservation + swap-in
  // failures. The rng is only drawn from on a failed attempt, so fault-free
  // schedules are unaffected by the seed.
  void ConfigureRecovery(const fault::RetryPolicy& policy,
                         std::uint64_t seed) {
    retry_policy_ = policy;
    rng_ = sim::Rng(seed);
  }

  // Count retry attempts into the serving metrics (nullable).
  void BindMetrics(Metrics* metrics) { metrics_ = metrics; }

  // Fired as each swap-in attempt starts, before GPU memory is reserved —
  // the window in which an urgent NVMe->host snapshot promotion (storage
  // link) can overlap the victim's D2H eviction drain (PCIe link).
  void SetPrefetchHook(std::function<void(Backend&)> hook) {
    prefetch_hook_ = std::move(hook);
  }

 private:
  // The slow branch of EnsureRunningAndPin, for a backend found swapped
  // out or crashed: reserve its footprint, restore it, pin it. Returns the
  // pin; an empty guard when the caller should re-evaluate (the backend was
  // preempted again before the pin, or a failed attempt backed off and may
  // be retried); an error when it gave up. Kept out of EnsureRunningAndPin
  // so every request's resident fast path carries a small frame.
  // `failures` lives in the caller's frame, which awaits this one.
  // swaplint-ok(coro-ref-param): backend is registered; failures: see above
  sim::Task<Result<sim::SimRwLock::SharedGuard>> SwapInAndPin(
      Backend& backend, bool crashed, int& failures);
  // Breaker bookkeeping for a terminal failure of a real attempt.
  void RecordFailure(Backend& backend);
  // Counts a retryable failure given up on because the attempt budget ran
  // out (a non-retryable one is not an exhaustion: retrying would not have
  // helped).
  void RecordExhausted(Backend& backend, const Status& status);

  obs::Observability* obs_ = nullptr;
  Metrics* metrics_ = nullptr;
  sim::Simulation& sim_;
  TaskManager& task_manager_;
  EngineController& controller_;
  std::function<void(Backend&)> prefetch_hook_;
  fault::RetryPolicy retry_policy_;
  sim::Rng rng_{0x5eedu};
};

}  // namespace swapserve::core
