// One periodic control loop that sleeps while it has nothing to do.
//
// A GridLoop runs a pass on a grid: the end of the previous pass (or
// Start()) plus whole multiples of `interval`; an asynchronous pass moves
// the anchor to the instant it finishes. Before each tick the owner's
// `next_work` names the earliest instant a pass could act. When that lies
// beyond the tick after the next one, the loop parks on the owner's signal
// instead of ticking: it schedules nothing, except one wake-up a tick
// before the first grid tick at or after that instant, so the tick that
// acts is queued one interval ahead, as a loop ticking every interval
// would have queued it.
//
// The tie rule: a wake at time t resumes at the first grid tick at or
// after t, so a change made at exactly a tick instant is seen on that
// tick. A wake is a hint: the loop re-asks `next_work` and parks again if
// the change left nothing to do; the resume hook hears the last tick the
// park skipped. Poke() makes that check inside the changing event: work
// the resumed loop would act on resumes it right there, so its tick is
// queued ahead of anything the change queues after it; later work that is
// still earlier than the armed tick only moves the wake-up.
//
// Each Start() takes a new generation, so Stop() then Start() never leaves
// two loops running; Stop() lets a running pass finish, pulses the signal
// to release a parked loop's frame at once, and turns a pending wake-up
// into a no-op.

#pragma once

#include <cstdint>
#include <functional>

#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace swapserve::sim {

// The instants anchor + k * interval, for integer k. Integral nanoseconds,
// so tick arithmetic is exact.
struct Grid {
  SimTime anchor;
  SimDuration interval;

  // First tick at or after `t` (the anchor for any t before it).
  SimTime AtOrAfter(SimTime t) const;
  // Last tick strictly before `t`.
  SimTime Before(SimTime t) const { return AtOrAfter(t) - interval; }
  // First tick strictly after `t`.
  SimTime After(SimTime t) const { return AtOrAfter(t + Nanos(1)); }
};

class GridLoop {
 public:
  struct Body {
    // One tick's work.
    std::function<Task<>()> pass;
    // Earliest instant a pass could act: Now() or earlier to tick, kNever
    // when only a wake can create work.
    std::function<SimTime()> next_work;
    // Optional: called on every resume from a park with the last tick the
    // park skipped (or the last pass instant when it skipped none).
    std::function<void(SimTime)> on_resume = nullptr;
  };

  // `signal` must outlive the loop; its pulses are the wakes.
  GridLoop(Simulation& sim, SimDuration interval, SimEvent* signal, Body body);
  GridLoop(const GridLoop&) = delete;
  GridLoop& operator=(const GridLoop&) = delete;

  void Start();
  void Stop();
  // A change happened: if a parked loop would now act on its next tick,
  // resume it inside the caller (every waiter on the signal resumes);
  // if the work is earlier than the armed tick but later than that, move
  // the wake-up; else do nothing.
  void Poke();
  bool running() const { return running_; }
  bool parked() const { return parked_; }

  // Anchored at the end of the last pass (or Start()).
  const Grid& grid() const { return grid_; }
  // Passes the loop ran (skipped ticks not included).
  std::uint64_t passes() const { return passes_; }

 private:
  Task<> Run(std::uint64_t generation);
  // The first grid tick at or after next_work() (kNever passes through).
  SimTime FirstWorkTick() const;
  // Park until the first work tick: one wake-up a tick before it.
  void Arm(SimTime first);

  Simulation& sim_;
  SimEvent* signal_;
  Body body_;
  Grid grid_;
  bool running_ = false;
  bool parked_ = false;
  bool poked_ = false;           // the park ended inside a Poke()
  SimTime next_;                 // the tick the loop takes next
  SimTime park_first_ = kNever;  // the tick a parked loop is armed for
  std::uint64_t generation_ = 0;  // bumped by Start()/Stop(); stale loops exit
  std::uint64_t park_epoch_ = 0;  // bumped per park; stale wake-ups no-op
  std::uint64_t passes_ = 0;
};

}  // namespace swapserve::sim
