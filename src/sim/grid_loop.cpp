#include "sim/grid_loop.h"

#include <algorithm>
#include <utility>

#include "util/status.h"

namespace swapserve::sim {

SimTime Grid::AtOrAfter(SimTime t) const {
  const std::int64_t step = interval.ns();
  const std::int64_t since = std::max<std::int64_t>(0, (t - anchor).ns());
  return anchor + SimDuration((since + step - 1) / step * step);
}

GridLoop::GridLoop(Simulation& sim, SimDuration interval, SimEvent* signal,
                   Body body)
    : sim_(sim),
      signal_(signal),
      body_(std::move(body)),
      grid_{sim.Now(), interval} {
  SWAP_CHECK_MSG(signal_ != nullptr || !body_.next_work,
                 "a loop that can park needs a signal");
}

void GridLoop::Start() {
  SWAP_CHECK_MSG(!running_, "grid loop already running");
  SWAP_CHECK_MSG(grid_.interval.ns() > 0, "loop interval must be positive");
  running_ = true;
  sim_.Go(Run(++generation_));
}

void GridLoop::Stop() {
  running_ = false;
  ++generation_;  // retire the running loop
  parked_ = false;
  ++park_epoch_;  // a pending wake-up now does nothing
  if (signal_ != nullptr) signal_->Pulse();  // release a parked loop's frame
}

void GridLoop::Poke() {
  if (!parked_) return;
  const SimTime first = FirstWorkTick();
  if (first >= park_first_) return;  // nothing earlier than the armed tick
  // Run's own park test, against the tick a resumed loop would take next.
  if (first > std::max(next_, grid_.AtOrAfter(sim_.Now())) + grid_.interval) {
    Arm(first);
    return;
  }
  poked_ = true;
  signal_->WakeNow();
}

SimTime GridLoop::FirstWorkTick() const {
  const SimTime work = body_.next_work ? body_.next_work() : sim_.Now();
  return work == kNever ? kNever : grid_.AtOrAfter(work);
}

void GridLoop::Arm(SimTime first) {
  park_first_ = first;
  const std::uint64_t epoch = ++park_epoch_;
  if (first == kNever) return;
  sim_.ScheduleAt(grid_.Before(first), [this, epoch] {
    if (epoch == park_epoch_) signal_->Pulse();
  });
}

Task<> GridLoop::Run(std::uint64_t generation) {
  grid_.anchor = sim_.Now();
  next_ = grid_.After(sim_.Now());
  while (generation_ == generation) {
    const SimTime first = FirstWorkTick();
    if (first > next_ + grid_.interval) {
      parked_ = true;
      poked_ = false;
      Arm(first);
      co_await signal_->Wait();
      if (generation_ != generation) break;
      parked_ = false;
      ++park_epoch_;  // a later wake-up belongs to a park that is over
      next_ = std::max(next_, grid_.AtOrAfter(sim_.Now()));
      if (body_.on_resume) body_.on_resume(next_ - grid_.interval);
      continue;  // a wake is a hint: re-ask for work
    }
    if (std::exchange(poked_, false) && next_ == sim_.Now()) {
      co_await sim_.Yield();  // never run a pass inside the poking event
    } else {
      co_await sim_.WaitUntil(next_);
    }
    if (generation_ != generation) break;
    ++passes_;
    co_await body_.pass();
    if (generation_ != generation) break;  // restarted during the pass
    grid_.anchor = sim_.Now();  // the anchor moves to the pass end
    next_ = grid_.After(sim_.Now());
  }
}

}  // namespace swapserve::sim
