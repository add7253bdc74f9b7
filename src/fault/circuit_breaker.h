// Per-backend circuit breaker (closed -> open -> half-open -> closed).
//
// After `failure_threshold` consecutive failures the breaker opens: the
// scheduler fast-fails requests for the backend instead of grinding
// through doomed swap-ins. After `cooldown` one probe request is admitted
// (half-open); its success closes the breaker, its failure re-opens it and
// restarts the cooldown. Time comes from the simulation clock, so breaker
// behaviour is deterministic and inert in fault-free runs (the breaker
// never leaves the closed state without a recorded failure).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "obs/observability.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace swapserve::fault {

class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  CircuitBreaker(sim::Simulation& sim, int failure_threshold,
                 sim::SimDuration cooldown)
      : sim_(sim), threshold_(failure_threshold), cooldown_(cooldown) {}

  // May a request (or a recovery attempt) proceed right now? Transitions
  // open -> half-open once the cooldown elapses, admitting exactly one
  // probe until its outcome is recorded.
  bool AllowRequest();

  void RecordSuccess();
  void RecordFailure();

  // Open and inside its cooldown: requests fast-fail and no probe is due.
  // This is what "quarantined" means. Unlike AllowRequest() it never
  // transitions and never takes the half-open probe slot.
  bool CoolingDown() const {
    return state_ == State::kOpen && sim_.Now() - opened_at_ < cooldown_;
  }

  State state() const { return state_; }
  int consecutive_failures() const { return consecutive_failures_; }
  std::uint64_t trips() const { return trips_; }
  sim::SimTime opened_at() const { return opened_at_; }

  // Emit every state change as
  // swapserve_breaker_transitions_total{backend,to} plus a live state gauge
  // swapserve_breaker_state{backend} (0 closed, 1 half-open, 2 open).
  // Nullable, like every other BindObservability in the tree.
  void BindObservability(obs::Observability* obs, std::string backend) {
    obs_ = obs;
    backend_ = std::move(backend);
  }

 private:
  // All state changes funnel through here so the metrics cannot drift from
  // the machine; no-op (and no metric) when the state is unchanged.
  void Transition(State to);
  // Trip (or re-trip) the breaker; the cooldown starts now.
  void ForceOpen();

  sim::Simulation& sim_;
  const int threshold_;
  const sim::SimDuration cooldown_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  sim::SimTime opened_at_;
  bool probe_in_flight_ = false;
  std::uint64_t trips_ = 0;
  obs::Observability* obs_ = nullptr;
  std::string backend_;
};

std::string_view CircuitStateName(CircuitBreaker::State s);

}  // namespace swapserve::fault
