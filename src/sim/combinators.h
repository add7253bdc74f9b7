// Task combinators.
//
// WhenAll runs tasks concurrently and resumes when every one has finished —
// the virtual-time analogue of joining goroutines. Tasks must not leak
// exceptions (an unhandled error in a detached branch terminates, as with
// Spawn). WhenAll borrows the caller's tasks (a span, so an array in the
// caller's frame serves as well as a vector) and moves each into its own
// branch; the caller's storage must outlive the await, which it does when
// the caller awaits WhenAll directly.

#pragma once

#include <span>
#include <utility>

#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace swapserve::sim {

// The Simulation outlives every coroutine, and the caller's task storage
// outlives this frame (the caller awaits it).
// swaplint-ok(coro-ref-param): see above
inline Task<> WhenAll(Simulation& sim, std::span<Task<>> tasks) {
  if (tasks.empty()) co_return;
  SimEvent done(sim);
  std::size_t remaining = tasks.size();
  for (Task<>& t : tasks) {
    // The branch closure (and the task it owns) lives in the driver frame;
    // `done`/`remaining` live in this frame, which outlives all branches
    // because we block on the event below.
    // swaplint-ok(spawn-ref-capture): frame blocks on done.Wait() below
    Spawn([&done, &remaining, task = std::move(t)]() mutable -> Task<> {
      co_await std::move(task);
      if (--remaining == 0) done.Set();
    });
  }
  co_await done.Wait();
}

// A Delay as a first-class task, for use with WhenAll (models a pipeline
// stage that takes a fixed time, e.g. a DMA copy overlapped with a read).
// swaplint-ok(coro-ref-param): the Simulation outlives every coroutine
inline Task<> DelayFor(Simulation& sim, SimDuration d) {
  co_await sim.Delay(d);
}

// Two-task convenience overload.
// swaplint-ok(coro-ref-param): the Simulation outlives every coroutine
inline Task<> WhenAll(Simulation& sim, Task<> a, Task<> b) {
  Task<> tasks[] = {std::move(a), std::move(b)};
  co_await WhenAll(sim, tasks);
}

}  // namespace swapserve::sim
