// Backend: the per-model serving unit SwapServeLLM hot-swaps.
//
// Bundles the inference engine, its request queue, the §3.5 write-lock
// (shared = request forwarding, exclusive = swap operations), LRU metadata,
// and the snapshot handle while swapped out.

#pragma once

#include <memory>
#include <ranges>
#include <string>

#include "ckpt/snapshot_store.h"
#include "core/config.h"
#include "core/metrics.h"
#include "core/types.h"
#include "engine/engine.h"
#include "fault/circuit_breaker.h"
#include "obs/observability.h"
#include "sim/channel.h"
#include "sim/sync.h"
#include "util/name.h"

namespace swapserve::core {

struct Backend {
  // The circuit breaker opens after this many consecutive swap-in failures
  // and stays open this long before a half-open probe.
  static constexpr int kBreakerFailureThreshold = 3;
  static constexpr sim::SimDuration kBreakerCooldown = sim::Seconds(10);

  Backend(sim::Simulation& sim, ModelEntry entry, model::ModelSpec spec,
          std::unique_ptr<engine::InferenceEngine> eng,
          std::size_t queue_capacity)
      : config(std::move(entry)),
        model(std::move(spec)),
        engine(std::move(eng)),
        queue(std::make_unique<sim::Channel<QueuedRequest>>(sim,
                                                            queue_capacity)),
        lock(sim, "backend:" + config.model_id),
        swap_done(sim),
        breaker(sim, kBreakerFailureThreshold, kBreakerCooldown),
        owner_(config.model_id) {}

  const std::string& name() const { return config.model_id; }
  // name(), interned once at construction: the owner handle of the
  // backend's reservations, GPU allocations and snapshots.
  Name owner() const { return owner_; }
  // Device ids the backend's tensor-parallel group occupies:
  // [gpu, gpu + tp).
  std::ranges::iota_view<hw::GpuId, hw::GpuId> GpuIds() const {
    return {config.gpu, config.gpu + config.tp};
  }
  bool OnGpu(hw::GpuId id) const {
    return id >= config.gpu && id < config.gpu + config.tp;
  }

  // Demand metric for the preemption policy's first tier: requests queued
  // plus requests currently being served.
  std::size_t Demand() const {
    return queue->size() +
           static_cast<std::size_t>(engine->active_requests());
  }

  ModelEntry config;
  model::ModelSpec model;
  std::unique_ptr<engine::InferenceEngine> engine;
  std::unique_ptr<sim::Channel<QueuedRequest>> queue;

  // Forwarding holds shared access; swap-in/out take exclusive access, so a
  // preemption naturally waits for in-flight generations to drain and no
  // request is forwarded into a half-checkpointed engine.
  sim::SimRwLock lock;

  // LRU tie-breaker metadata (tier 2 of the preemption policy), updated by
  // the request handler on every accepted request.
  sim::SimTime last_accessed;

  // Valid while the backend is swapped out.
  ckpt::SnapshotId snapshot = 0;
  bool has_snapshot = false;
  Bytes resident_bytes{0};  // GPU footprint to re-reserve on swap-in

  // Swap-in deduplication: concurrent triggers await the in-flight one.
  bool swap_in_progress = false;
  sim::SimEvent swap_done;

  // Trips after consecutive swap-in failures; the backend counts as
  // quarantined exactly while it is open and cooling down
  // (CircuitBreaker::CoolingDown()).
  fault::CircuitBreaker breaker;

  // swapserve_queue_depth{model=name()}, written by the request handler on
  // enqueue and the worker on dequeue. Resolved on the first write; both
  // writers reset it in their BindObservability.
  obs::Gauge* queue_depth_gauge = nullptr;
  obs::Gauge& QueueDepthGauge(obs::Observability& obs) {
    if (queue_depth_gauge == nullptr) {
      queue_depth_gauge = &obs.metrics.GetGauge("swapserve_queue_depth",
                                                {{"model", name()}});
    }
    return *queue_depth_gauge;
  }
  // swapserve_reservation_wait_seconds{model=name()}, written by the
  // scheduler per swap-in attempt; resolved on the first write and reset
  // in Scheduler::BindObservability.
  obs::HistogramMetric* reservation_wait = nullptr;

  // The swap paths' handle on this backend's metrics (swap latencies,
  // prefetches, retries), resolved on the first swap-outcome write so no
  // later write looks the name up. Every writer passes the serving
  // system's one Metrics.
  Metrics::ModelHandle* swap_metrics = nullptr;
  Metrics::ModelHandle& MetricsHandle(Metrics& metrics) {
    if (swap_metrics == nullptr) swap_metrics = &metrics.SwapHandle(name());
    return *swap_metrics;
  }

 private:
  Name owner_;
};

}  // namespace swapserve::core
