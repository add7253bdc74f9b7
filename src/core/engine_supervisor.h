// Self-healing control plane: a supervisor loop that restarts crashed
// backends, detects hung engines, and rejuvenates long-resident ones.
//
// The scan runs on a sim::GridLoop (grid, park and tie semantics live
// there) parked on the controller's crash signal. It only ticks while a
// scan could act: a backend is kCrashed (quarantined ones included, so
// re-probes keep their cadence), or the time-based hang deadline or
// rejuvenation is armed. An idle system schedules no supervisor events.
//
// Crash recovery is restart-in-place: a crash happens while the backend is
// resident, so there is no snapshot to restore from — MarkCrashed() already
// freed the device memory and the supervisor re-runs engine initialization
// (weights reload) inside the existing container. A backend whose restarts
// keep failing is quarantined: its circuit breaker is forced open, the
// scheduler fast-fails its requests, and the supervisor re-probes it once
// per breaker cooldown.

#pragma once

#include <cstdint>

#include "core/backend.h"
#include "core/engine_controller.h"
#include "core/metrics.h"
#include "core/task_manager.h"
#include "fault/retry.h"
#include "sim/grid_loop.h"
#include "sim/random.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace swapserve::core {

class EngineSupervisor {
 public:
  struct Options {
    sim::SimDuration scan_interval = sim::Seconds(1);
    // A running backend with active requests and no generation progress for
    // this long is declared crashed (hung engine). Zero disables.
    sim::SimDuration hang_deadline;
    // A resident, idle backend is proactively swapped out after this long
    // to shed slow accumulation of engine state. Zero disables.
    sim::SimDuration rejuvenate_after;
    // Backoff between restart attempts of a crashed backend; exhausting
    // max_attempts quarantines the backend.
    fault::RetryPolicy restart_policy;
  };

  EngineSupervisor(sim::Simulation& sim, EngineController& controller,
                   TaskManager& task_manager, Metrics& metrics,
                   Options options, std::uint64_t seed)
      : sim_(sim),
        controller_(controller),
        task_manager_(task_manager),
        metrics_(metrics),
        options_(options),
        rng_(seed),
        loop_(sim, options.scan_interval, &controller.crash_signal(),
              {.pass = [this]() -> sim::Task<> { (void)co_await ScanOnce(); },
               .next_work =
                   [this] { return CanPark() ? sim::kNever : sim_.Now(); }}) {}

  // Spawn the scan loop (sim::GridLoop lifecycle).
  void Start() { loop_.Start(); }
  void Stop() { loop_.Stop(); }
  bool running() const { return loop_.running(); }

  // Suspend scanning without killing the loop (a crashed *node* has no
  // supervisor process either): passes still fall on the grid but act on
  // nothing. Resume() lets the next scheduled pass run again. Node::Crash
  // marks the resident backends crashed, so a parked loop wakes and ticks
  // through the outage and recovers them at the first tick after Resume().
  void Pause() { paused_ = true; }
  void Resume() { paused_ = false; }
  bool paused() const { return paused_; }

  // One scan pass (also called by the loop); returns actions taken
  // (recoveries attempted + rejuvenations).
  sim::Task<int> ScanOnce();

  // Scan passes run so far (paused ones included).
  std::uint64_t passes() const { return passes_; }

  // Restart a crashed backend under its exclusive lock, with bounded
  // retries. Success leaves it running and kDegraded (the first served
  // request re-promotes it); exhaustion quarantines it and returns the last
  // restart error.
  // swaplint-ok(coro-ref-param): backend outlives the frame (registered)
  sim::Task<Status> Recover(Backend& backend);

  // Emit recovery/quarantine instants (nullable).
  void BindObservability(obs::Observability* obs) { obs_ = obs; }

  const Options& options() const { return options_; }

 private:
  // True when no scan could act until a backend crashes: nothing is
  // kCrashed and neither time-based check is armed.
  bool CanPark() const;

  sim::Simulation& sim_;
  EngineController& controller_;
  TaskManager& task_manager_;
  Metrics& metrics_;
  Options options_;
  sim::Rng rng_;
  obs::Observability* obs_ = nullptr;
  sim::GridLoop loop_;
  bool paused_ = false;
  std::uint64_t passes_ = 0;
};

}  // namespace swapserve::core
