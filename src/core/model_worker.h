// Per-backend model worker (§3.1 circles 3-4, 10): drains the model queue,
// verifies client liveness, coordinates swap-ins with the scheduler, and
// forwards requests to the engine — concurrently, so a continuous batch
// forms while the queue keeps draining.

#pragma once

#include <cstdint>

#include "core/backend.h"
#include "core/metrics.h"
#include "core/scheduler.h"
#include "fault/retry.h"
#include "sim/random.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace swapserve::core {

class AdmissionController;

class ModelWorker {
 public:
  ModelWorker(sim::Simulation& sim, Backend& backend, Scheduler& scheduler,
              Metrics& metrics)
      : sim_(sim),
        backend_(backend),
        scheduler_(scheduler),
        metrics_(metrics),
        resumed_(sim) {}

  // Spawn the polling loop. It exits when the backend queue is closed and
  // drained.
  void Start();
  bool running() const { return running_; }
  // Relays (forwarded requests) still in flight.
  int active_relays() const { return active_relays_; }

  // Park the polling loop without consuming the queue (a dead node's
  // processes serve nothing) so queued requests stay drainable by the
  // fleet's failover re-dispatch. A request already in the worker's hand
  // when the pause lands is held, not dropped — it rides out the outage
  // and relays after Resume(), like a connection surviving a reboot.
  void Pause() {
    paused_ = true;
    resumed_.Reset();
  }
  void Resume() {
    paused_ = false;
    resumed_.Set();
  }
  bool paused() const { return paused_; }

  // Emit per-request serve spans and queue-wait histograms (nullable).
  void BindObservability(obs::Observability* obs) {
    obs_ = obs;
    queue_wait_ = nullptr;
    stream_chunks_ = {.obs = obs, .model = backend_.name()};
    backend_.queue_depth_gauge = nullptr;
  }

  // Extra attempts a failed request gets: it re-enters the backend queue
  // up to this many times before the error turns terminal.
  static constexpr int kRequestRetries = 2;

  // Requeue-with-backoff on retryable relay failures, with
  // fault::RetryPolicy's default backoff. The rng is only drawn from on a
  // failed attempt, so fault-free schedules are unaffected by the seed.
  void ConfigureRecovery(std::uint64_t seed) { rng_ = sim::Rng(seed); }

  // SSE-style token streaming (§16): when enabled and the request asked
  // for a stream, the engine hands the response channel its decode's
  // schedule in chunk_tokens-sized slices, which the client reads as each
  // falls due, instead of one burst at completion. Default off — the
  // non-streaming schedule (three chunks at the end) is the golden-trace
  // baseline.
  void ConfigureStreaming(bool enabled, std::int64_t chunk_tokens) {
    stream_enabled_ = enabled;
    stream_chunk_tokens_ = chunk_tokens;
  }

  // Feed the admission controller's per-model EWMA with observed service
  // times on completion (nullable).
  void BindAdmission(AdmissionController* admission) {
    admission_ = admission;
  }

 private:
  sim::Task<> Run();
  sim::Task<> Relay(QueuedRequest item);
  // Requeue `item` after a jittered backoff when `status` is retryable and
  // the attempt budget / client deadline allow it; otherwise (or when the
  // queue is closed) record the failure and answer the client with `error`.
  sim::Task<> FailOrRequeue(QueuedRequest item, Status status,
                            std::string error);
  // End the client's stream with a kError chunk; `error` is set on the
  // response channel, where the client reads it.
  void RespondError(const QueuedRequest& item, std::string error);
  // This backend's metrics handle, resolved on the first request-outcome
  // write (so a model that never finishes a request has no per_model()
  // entry).
  Metrics::ModelHandle& MetricsHandle() {
    if (metrics_handle_ == nullptr) {
      metrics_handle_ = &metrics_.Handle(backend_.name());
    }
    return *metrics_handle_;
  }

  sim::Simulation& sim_;
  Backend& backend_;
  Scheduler& scheduler_;
  Metrics& metrics_;
  Metrics::ModelHandle* metrics_handle_ = nullptr;  // see MetricsHandle()
  obs::Observability* obs_ = nullptr;
  // Per-request instruments, resolved on first write.
  obs::HistogramMetric* queue_wait_ = nullptr;
  ChunkCounter stream_chunks_;
  bool running_ = false;
  bool paused_ = false;
  sim::SimEvent resumed_;
  int active_relays_ = 0;
  fault::RetryPolicy backoff_;
  sim::Rng rng_{0x5eedu};
  bool stream_enabled_ = false;
  std::int64_t stream_chunk_tokens_ = 16;
  AdmissionController* admission_ = nullptr;
};

}  // namespace swapserve::core
