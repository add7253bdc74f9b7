// Engine supervisor: detects hung engines and rejuvenates long-resident
// ones. Both checks are time-based, so the scan runs on a sim::GridLoop
// that ticks every interval and never parks; SwapServe builds it only when
// one of them is armed.
//
// Crash recovery is not the supervisor's job: a crashed backend is
// restored on its next request through the scheduler's reservation path
// (EngineController::SwapIn), with the scheduler's retries and breaker.

#pragma once

#include <cstdint>

#include "core/backend.h"
#include "core/engine_controller.h"
#include "core/metrics.h"
#include "sim/grid_loop.h"
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
  };

  EngineSupervisor(sim::Simulation& sim, EngineController& controller,
                   Metrics& metrics, Options options)
      : sim_(sim),
        controller_(controller),
        metrics_(metrics),
        options_(options),
        loop_(sim, options.scan_interval, nullptr,
              {.pass = [this]() -> sim::Task<> {
                (void)co_await ScanOnce();
              }}) {}

  // Spawn the scan loop (sim::GridLoop lifecycle).
  void Start() { loop_.Start(); }
  void Stop() { loop_.Stop(); }
  bool running() const { return loop_.running(); }

  // One scan pass (also called by the loop); returns actions taken
  // (hangs declared + rejuvenations).
  sim::Task<int> ScanOnce();

  // Scan passes the loop ran so far.
  std::uint64_t passes() const { return loop_.passes(); }

  // Emit hang instants (nullable).
  void BindObservability(obs::Observability* obs) { obs_ = obs; }

  const Options& options() const { return options_; }

 private:
  sim::Simulation& sim_;
  EngineController& controller_;
  Metrics& metrics_;
  Options options_;
  obs::Observability* obs_ = nullptr;
  sim::GridLoop loop_;
};

}  // namespace swapserve::core
