// sim::Grid arithmetic and sim::GridLoop's tick, park, wake and lifecycle
// semantics.

#include "sim/grid_loop.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace swapserve::sim {
namespace {

// Instants in whole milliseconds, so tick arithmetic compares exactly.
SimTime Ms(std::int64_t ms) { return SimTime(ms * 1'000'000); }

TEST(GridTest, TicksAroundAnInstant) {
  const Grid grid(Ms(10000), Seconds(2));
  EXPECT_EQ(grid.AtOrAfter(Ms(10000)), Ms(10000));
  EXPECT_EQ(grid.AtOrAfter(Ms(11000)), Ms(12000));
  EXPECT_EQ(grid.AtOrAfter(Ms(12000)), Ms(12000));
  EXPECT_EQ(grid.AtOrAfter(Ms(3000)), Ms(10000));  // before the anchor
  EXPECT_EQ(grid.Before(Ms(12000)), Ms(10000));
  EXPECT_EQ(grid.Before(Ms(12000) + Nanos(1)), Ms(12000));
  EXPECT_EQ(grid.After(Ms(12000)), Ms(14000));
  EXPECT_EQ(grid.After(Ms(12000) - Nanos(1)), Ms(12000));
}

// A loop whose work is a flag the test flips: it ticks every interval while
// the flag is up and parks on `signal` otherwise.
struct Harness {
  Simulation sim;
  SimEvent signal{sim};
  GridLoop loop;
  bool busy = false;
  bool once = false;         // work for one pass
  SimTime work_at = kNever;  // a timed deadline, used when not busy
  SimDuration pass_cost;     // an asynchronous pass takes this long
  std::vector<SimTime> passes;
  std::vector<SimTime> resumes;

  Harness()
      : loop(sim, Seconds(1), &signal,
             {.pass =
                  [this]() -> Task<> {
                    passes.push_back(sim.Now());
                    once = false;
                    if (pass_cost.ns() > 0) co_await sim.Delay(pass_cost);
                  },
              .next_work =
                  [this] { return busy || once ? sim.Now() : work_at; },
              .on_resume =
                  [this](SimTime skipped) { resumes.push_back(skipped); }}) {}
  // Run `fn` at `t`.
  template <typename F>
  void AtTime(std::int64_t ms, F fn) {
    sim.ScheduleAt(Ms(ms), std::move(fn));
  }
};

TEST(GridLoopTest, TicksWhileBusyAndParksWhenIdle) {
  Harness h;
  h.busy = true;
  h.loop.Start();
  h.AtTime(3500, [&] { h.busy = false; });
  h.AtTime(100000, [&] { h.loop.Stop(); });
  h.sim.Run();
  // The tick at 4 s finds no work and parks; nothing after it.
  EXPECT_EQ(h.passes,
            (std::vector<SimTime>{Ms(1000), Ms(2000), Ms(3000), Ms(4000)}));
  EXPECT_FALSE(h.loop.running());
  EXPECT_EQ(h.signal.waiting(), 0u);
}

TEST(GridLoopTest, OffGridWakeResumesAtTheNextTick) {
  Harness h;
  h.loop.Start();  // idle from the start: parks without a tick
  h.AtTime(7250, [&] {
    h.busy = true;
    h.signal.Pulse();
  });
  h.AtTime(9500, [&] { h.busy = false; });
  h.AtTime(20000, [&] { h.loop.Stop(); });
  h.sim.Run();
  EXPECT_EQ(h.passes, (std::vector<SimTime>{Ms(8000), Ms(9000), Ms(10000)}));
  // The park skipped every tick through 7 s.
  EXPECT_EQ(h.resumes, (std::vector<SimTime>{Ms(7000)}));
}

TEST(GridLoopTest, WakeWithNoWorkStaysParked) {
  Harness h;
  h.loop.Start();
  h.AtTime(5500, [&] { h.signal.Pulse(); });
  h.AtTime(20000, [&] { h.loop.Stop(); });
  h.sim.Run();
  EXPECT_TRUE(h.passes.empty());
  EXPECT_EQ(h.resumes.size(), 1u);
}

// The tie rule: a change at exactly a tick is seen on that tick.
TEST(GridLoopTest, OnGridWakeTakesThatTick) {
  Harness h;
  h.loop.Start();
  h.AtTime(6000, [&] {
    h.once = true;
    h.signal.Pulse();
  });
  h.AtTime(20000, [&] { h.loop.Stop(); });
  h.sim.Run();
  EXPECT_EQ(h.passes, (std::vector<SimTime>{Ms(6000)}));
  EXPECT_EQ(h.resumes, (std::vector<SimTime>{Ms(5000)}));
}

// Poke() resumes the loop inside the changing event, so its tick is queued
// ahead of whatever that event queues next; with nothing to do it leaves
// the loop parked.
TEST(GridLoopTest, PokeQueuesTheTickInsideTheChange) {
  Harness h;
  std::vector<SimTime> others;
  h.loop.Start();
  h.AtTime(5500, [&] { h.loop.Poke(); });  // no work: stays parked
  h.AtTime(7250, [&] {
    h.once = true;
    h.loop.Poke();
    EXPECT_FALSE(h.loop.parked());
    h.sim.ScheduleAt(Ms(8000), [&] {
      others.push_back(h.sim.Now());
      EXPECT_EQ(h.passes.size(), 1u);  // the tick ran first
    });
  });
  h.AtTime(20000, [&] { h.loop.Stop(); });
  h.sim.Run();
  EXPECT_EQ(h.passes, (std::vector<SimTime>{Ms(8000)}));
  EXPECT_EQ(others, (std::vector<SimTime>{Ms(8000)}));
  EXPECT_EQ(h.resumes, (std::vector<SimTime>{Ms(7000)}));
}

// A poke on a tick instant never runs the pass inside the poking event.
TEST(GridLoopTest, PokeOnATickPassesAfterTheChange) {
  Harness h;
  h.loop.Start();
  h.AtTime(6000, [&] {
    h.once = true;
    h.loop.Poke();
    EXPECT_TRUE(h.passes.empty());
  });
  h.AtTime(20000, [&] { h.loop.Stop(); });
  h.sim.Run();
  EXPECT_EQ(h.passes, (std::vector<SimTime>{Ms(6000)}));
}

// A poke with timed work earlier than the armed tick but beyond the next
// tick leaves the loop parked and only moves its wake-up.
TEST(GridLoopTest, PokeWithEarlierTimedWorkMovesTheWakeUp) {
  Harness h;
  h.work_at = Ms(50400);
  h.loop.Start();
  h.AtTime(5500, [&] {
    h.work_at = Ms(20400);
    h.loop.Poke();
    EXPECT_TRUE(h.loop.parked());
    EXPECT_EQ(h.signal.waiting(), 1u);
  });
  h.AtTime(20600, [&] { h.work_at = kNever; });
  h.AtTime(60000, [&] { h.loop.Stop(); });
  h.sim.Run();
  EXPECT_EQ(h.passes, (std::vector<SimTime>{Ms(20000), Ms(21000)}));
  EXPECT_EQ(h.resumes, (std::vector<SimTime>{Ms(19000)}));
}

// Timed work: the loop sleeps, wakes itself one tick before the first tick
// at or after the deadline, and takes both ticks.
TEST(GridLoopTest, TimedWorkResumesOneTickEarly) {
  Harness h;
  h.work_at = Ms(10400);
  h.loop.Start();
  h.AtTime(10600, [&] { h.work_at = kNever; });
  h.AtTime(30000, [&] { h.loop.Stop(); });
  h.sim.Run();
  EXPECT_EQ(h.passes, (std::vector<SimTime>{Ms(10000), Ms(11000)}));
  EXPECT_EQ(h.sim.Now(), Ms(30000));
}

TEST(GridLoopTest, AsyncPassMovesTheAnchor) {
  Harness h;
  h.busy = true;
  h.pass_cost = Millis(300);
  h.loop.Start();
  h.AtTime(3500, [&] { h.loop.Stop(); });
  h.sim.Run();
  EXPECT_EQ(h.passes, (std::vector<SimTime>{Ms(1000), Ms(2300)}));
  EXPECT_EQ(h.loop.grid().anchor, Ms(2600));
}

TEST(GridLoopTest, StopReleasesAParkedLoopAndItsWakeUp) {
  Harness h;
  h.work_at = Ms(50000);
  h.loop.Start();
  h.AtTime(5000, [&] {
    EXPECT_TRUE(h.loop.parked());
    EXPECT_EQ(h.signal.waiting(), 1u);
    h.loop.Stop();
    EXPECT_EQ(h.signal.waiting(), 0u);
    EXPECT_FALSE(h.loop.parked());
  });
  h.sim.Run();
  // The wake-up at 49 s fired into a park that was over.
  EXPECT_TRUE(h.passes.empty());
  EXPECT_TRUE(h.resumes.empty());
}

// Stop then Start within one interval: only the new loop ticks, on its own
// grid.
TEST(GridLoopTest, StopThenStartRunsOneLoop) {
  Harness h;
  h.busy = true;
  h.loop.Start();
  h.AtTime(2400, [&] {
    h.loop.Stop();
    h.loop.Start();
  });
  h.AtTime(5500, [&] { h.loop.Stop(); });
  h.sim.Run();
  EXPECT_EQ(h.passes, (std::vector<SimTime>{Ms(1000), Ms(2000), Ms(3400),
                                             Ms(4400), Ms(5400)}));
  EXPECT_EQ(h.loop.passes(), 5u);
}

}  // namespace
}  // namespace swapserve::sim
