// The engine controller (§3.1 circles 8-9): executes swap-in / swap-out
// against the checkpoint substrate and implements the demand-aware
// preemption policy (§3.5).
//
// Policy, two tiers: (1) fewest queued+running requests first — backends
// with empty queues are least likely to disrupt ongoing interactions;
// (2) least-recently-used tie-breaker on last_accessed. Each victim is
// write-locked (exclusive) immediately before eviction, which both stops
// new forwarding and drains in-flight generations.
//
// Alternative policies are kept for the ablation bench (A1).

#pragma once

#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint_engine.h"
#include "core/backend.h"
#include "core/metrics.h"
#include "core/task_manager.h"
#include "sim/random.h"

namespace swapserve::core {

enum class PreemptionPolicy {
  kDemandAware,   // (queue length asc, LRU) — the paper's policy
  kLruOnly,       // classic LRU regardless of demand
  kRandom,        // uniform victim choice
  kLargestFirst,  // free the most memory per eviction
};

std::string_view PreemptionPolicyName(PreemptionPolicy p);

class EngineController final : public TaskManager::ReclaimDelegate {
 public:
  EngineController(sim::Simulation& sim, ckpt::CheckpointEngine& ckpt,
                   TaskManager& task_manager, Metrics& metrics,
                   PreemptionPolicy policy = PreemptionPolicy::kDemandAware,
                   std::uint64_t seed = 0x5eed);

  // Registration also binds the backend's residency changes to
  // residency_signal() and the residency handler.
  void RegisterBackend(Backend* backend);
  const std::vector<Backend*>& backends() const { return backends_; }

  // Pulsed whenever a registered backend enters or leaves kRunning; the
  // idle reaper parks on it.
  sim::SimEvent& residency_signal() { return residency_signal_; }
  // Also called on those changes, inside them; the fleet repairer's poke.
  void SetResidencyHandler(std::function<void()> h) {
    on_residency_ = std::move(h);
  }

  // Swap a running backend out to its in-memory snapshot. Takes the
  // backend's exclusive lock (drains in-flight requests), runs the
  // engine-specific pre-checkpoint optimization, checkpoints, and frees
  // GPU memory. `preemption` only affects accounting.
  // Backends are registered for the lifetime of the system and outlive
  // every swap coroutine, so the Backend& borrows below cannot dangle.
  // swaplint-ok(coro-ref-param): backend outlives the frame (registered)
  sim::Task<Status> SwapOut(Backend& backend, bool preemption);

  // Restore a swapped-out or crashed backend. The caller (scheduler) must
  // hold a task-manager reservation covering its footprint. A crashed
  // backend whose checkpoint survived restores from it like any
  // swapped-out one; without one (or when it is corrupt) the engine
  // restarts from scratch under the same reservation.
  // swaplint-ok(coro-ref-param): backend outlives the frame (registered)
  sim::Task<Status> SwapIn(Backend& backend);

  // TaskManager::ReclaimDelegate — evict candidates until `needed` bytes
  // are free on `gpu` or no candidates remain; returns bytes freed.
  sim::Task<Bytes> ReclaimMemory(hw::GpuId gpu, Bytes needed,
                                 Name requester) override;

  // Victim ordering under the configured policy (exposed for tests and the
  // ablation bench). Excludes `requester`, non-running backends, and
  // backends currently locked or mid-swap. The list is a buffer the
  // controller reuses: valid until the next call.
  std::span<Backend* const> PreemptionCandidates(hw::GpuId gpu,
                                                 Name requester);

  PreemptionPolicy policy() const { return policy_; }

  // Emit swap spans and preemption-decision instants (nullable).
  void BindObservability(obs::Observability* obs) { obs_ = obs; }

 private:
  // Reboot a crashed backend in place (weights reload inside its
  // container), dropping any snapshot it can no longer restore from.
  // Caller holds the exclusive lock; `kind` labels the recovery metric.
  // swaplint-ok(coro-ref-param): backend outlives the frame (registered)
  sim::Task<Status> RestartCrashed(Backend& backend, const char* kind);

  obs::Observability* obs_ = nullptr;
  sim::Simulation& sim_;
  ckpt::CheckpointEngine& ckpt_;
  TaskManager& task_manager_;
  Metrics& metrics_;
  PreemptionPolicy policy_;
  sim::Rng rng_;
  std::vector<Backend*> backends_;
  std::vector<Backend*> candidates_;  // PreemptionCandidates' buffer
  sim::SimEvent residency_signal_{sim_};
  std::function<void()> on_residency_;
};

}  // namespace swapserve::core
