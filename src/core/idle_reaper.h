// Proactive idle swap-out.
//
// The §3.3 workflow swaps backends out only under memory pressure; this
// optional policy loop additionally parks backends that have been idle for
// a configured period, freeing GPU memory (and shrinking future preemption
// work) before pressure arrives — the elasticity knob a serverless operator
// would tune against the snapshot-store budget.
//
// The scan runs on a sim::GridLoop (grid, park and tie semantics live
// there). Between scans it sleeps to the first tick at or after the
// earliest `last_accessed + idle_threshold` over running backends: access
// only moves a deadline later, and a backend entering kRunning pulses the
// controller's residency signal, which wakes it.

#pragma once

#include "core/backend.h"
#include "core/engine_controller.h"
#include "sim/grid_loop.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace swapserve::core {

class IdleReaper {
 public:
  // Backends idle (no queued, active, or recent requests) for at least
  // `idle_threshold` are swapped out; scans fall `scan_interval` apart.
  IdleReaper(sim::Simulation& sim, EngineController& controller,
             sim::SimDuration idle_threshold, sim::SimDuration scan_interval);

  // Spawn the scan loop (sim::GridLoop lifecycle).
  void Start() { loop_.Start(); }
  void Stop() { loop_.Stop(); }
  bool running() const { return loop_.running(); }

  // One scan pass (also called by the loop); returns backends swapped out.
  sim::Task<int> ScanOnce();

  std::uint64_t total_reaped() const { return total_reaped_; }

 private:
  bool IsIdle(const Backend& backend) const;
  // Earliest instant a running backend's idle deadline falls due.
  sim::SimTime NextDeadline() const;

  sim::Simulation& sim_;
  EngineController& controller_;
  sim::SimDuration idle_threshold_;
  sim::GridLoop loop_;
  std::uint64_t total_reaped_ = 0;
};

}  // namespace swapserve::core
