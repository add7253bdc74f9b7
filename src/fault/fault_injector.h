// Deterministic, seed-driven fault injection.
//
// Components expose *named fault points* — places where a real deployment
// can fail (a restore that errors out, a DMA engine that wedges, a process
// that dies mid-request). A FaultPlan arms a subset of those points with
// per-evaluation probabilities; the FaultInjector turns each evaluation
// into a reproducible decision (fail with a Status, stall for a duration,
// or pass through) using its own xoshiro stream, so a seed fully determines
// every chaos run. Points with no armed rule never draw from the stream:
// an empty plan is byte-identical to running without the injector.
//
// The canonical list of fault-point names (with per-point semantics) lives
// in fault_points.h; Config::Validate and swaplint's fault-point rules both
// check against that registry, so a typo'd point cannot silently never
// fire.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/observability.h"
#include "sim/random.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "util/status.h"

namespace swapserve::fault {

// FNV-1a: a platform-stable hash for deriving per-component seeds and
// snapshot checksums (std::hash is implementation-defined, which would
// break cross-platform determinism).
std::uint64_t StableHash(std::string_view text);
std::uint64_t StableHashCombine(std::uint64_t seed, std::uint64_t value);

struct FaultRule {
  std::string point;             // fault-point name (exact match)
  double probability = 1.0;      // per-evaluation chance in [0, 1]
  StatusCode code = StatusCode::kUnavailable;
  std::string message;           // optional detail for the injected Status
  double stall_s = 0;            // wedge this long before failing/passing
  bool fail = true;              // false = stall-only rule
  std::int64_t max_fires = -1;   // stop firing after this many (-1 = inf)
  std::string owner;             // restrict to one backend ("" = any)
  double arm_after_s = 0;        // inert before this virtual time
};

struct FaultPlan {
  std::vector<FaultRule> rules;
  bool empty() const { return rules.empty(); }
};

// What a fault point must do: stall first (if stall is non-zero), then
// fail with `status` (if non-OK), then proceed.
struct FaultDecision {
  Status status = Status::Ok();
  sim::SimDuration stall{};
  bool fired() const { return !status.ok() || stall.ns() > 0; }
};

class FaultInjector {
 public:
  FaultInjector(sim::Simulation& sim, std::uint64_t seed);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Install a plan (replacing any previous one) and reset fire counters
  // and the random stream, so Configure(plan) is a reproducible starting
  // point regardless of earlier evaluations. Pulses the bound configure
  // signal, if any.
  void Configure(FaultPlan plan);

  // Nullable. Pulsed by every Configure(): loops that park while no rule
  // can fire (the fleet heartbeat) wake to re-read the plan.
  void BindConfigureSignal(sim::SimEvent* signal) {
    configure_signal_ = signal;
  }

  // Evaluate one fault point. Draws from the stream only when at least one
  // armed rule matches `point` (and its owner filter), so unarmed points
  // cost nothing and perturb nothing.
  FaultDecision Evaluate(std::string_view point, std::string_view owner);

  // The earliest instant at which a rule matching (point, owner) with
  // fires left is armed: at or before Now() when one is armed already,
  // sim::kNever when none ever will be. An evaluation before that instant
  // cannot fire and draws nothing.
  sim::SimTime NextArmed(std::string_view point, std::string_view owner) const;

  std::uint64_t fires(std::string_view point) const;
  std::uint64_t total_fires() const { return total_fires_; }
  const FaultPlan& plan() const { return plan_; }
  bool armed() const { return !plan_.rules.empty(); }

  // Count fired injections as swapserve_fault_injected_total{point,owner}
  // plus a trace instant per fire (nullable).
  void BindObservability(obs::Observability* obs) { obs_ = obs; }

 private:
  static bool Matches(const FaultRule& rule, std::string_view point,
                      std::string_view owner);

  sim::Simulation& sim_;
  std::uint64_t seed_;
  sim::Rng rng_;
  FaultPlan plan_;
  std::vector<std::int64_t> fires_left_;  // parallel to plan_.rules
  std::map<std::string, std::uint64_t, std::less<>> fires_by_point_;
  std::uint64_t total_fires_ = 0;
  obs::Observability* obs_ = nullptr;
  sim::SimEvent* configure_signal_ = nullptr;
};

// Null-safe helper mirroring the obs:: free functions: components hold a
// nullable FaultInjector* and evaluate through this.
inline FaultDecision Evaluate(FaultInjector* injector, std::string_view point,
                              std::string_view owner) {
  if (injector == nullptr) return {};
  return injector->Evaluate(point, owner);
}

}  // namespace swapserve::fault
