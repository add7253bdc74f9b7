// Serving metrics: per-model latency distributions and system counters.
//
// Metrics is the single write path for request/swap outcomes: callers use
// the Record* helpers, which update both the exact-percentile Samples the
// bench tables print and — when BindObservability() was called — the
// labeled registry in src/obs/ the Prometheus/JSON exporters read. Routing
// both sinks through one call site is what keeps the old tables and the new
// exporters from drifting apart.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/observability.h"
#include "util/stats.h"

namespace swapserve::core {

struct ModelMetrics {
  Samples ttft_s;          // arrival -> first token
  Samples swap_wait_s;     // swap-in wait within TTFT (0 when resident)
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;   // queue full
  std::uint64_t shed = 0;       // admission control: delay budget exceeded
  std::uint64_t failed = 0;     // engine/timeout errors
  std::uint64_t expired = 0;    // client gone before service started
  std::uint64_t served_resident = 0;  // no swap needed
  std::uint64_t served_after_swap_in = 0;
  std::int64_t output_tokens = 0;
};

class Metrics {
  // One model's registry series on the per-request and per-swap paths.
  // The completion series are resolved together on the model's first
  // completion, every other series on its own first write, so a model
  // that never completes (or never swaps) exports none of them.
  struct ModelInstruments {
    obs::Counter* requests = nullptr;
    obs::HistogramMetric* ttft = nullptr;
    obs::HistogramMetric* latency = nullptr;
    obs::HistogramMetric* swap_wait = nullptr;
    obs::Counter* output_tokens = nullptr;
    obs::Counter* failed = nullptr;
    obs::Counter* expired = nullptr;
    obs::Counter* requeues = nullptr;
    obs::HistogramMetric* swap_in_latency = nullptr;
    obs::HistogramMetric* swap_out_latency = nullptr;
    obs::Counter* prefetches = nullptr;
  };

 public:
  // One model's write path: its per_model() entry and its registry series.
  // The model worker resolves its model's handle once, on its first
  // request-outcome write (Handle()), and records every later request
  // through it, so no per-request write looks the name up. A handle lives
  // as long as the Metrics. BindObservability keeps it valid and clears
  // its series; each series is re-created in the new registry on its next
  // write, exactly as on a first write.
  class ModelHandle {
   public:
    const std::string& model() const { return *name_; }

   private:
    friend class Metrics;
    const std::string* name_ = nullptr;  // the key of its node in models_
    ModelMetrics* samples_ = nullptr;    // set by Handle()
    ModelInstruments series_;
  };

  // Resolve `model`'s handle for request-outcome writes. Creates the
  // model's per_model() entry, but no registry series.
  ModelHandle& Handle(const std::string& model);

  ModelMetrics& ForModel(const std::string& model_id) {
    return per_model_[model_id];
  }
  const std::map<std::string, ModelMetrics>& per_model() const {
    return per_model_;
  }

  // Mirror every Record* into the labeled registry (nullable; see
  // obs/observability.h for the metric taxonomy).
  void BindObservability(obs::Observability* obs) {
    obs_ = obs;
    swaps_ = {};
    for (auto& [name, handle] : models_) handle.series_ = {};
  }

  // --- request outcomes (one call per request: from the model worker
  // through its handle, or from the request handler before the request
  // reaches a worker) ------------------------------------------------------
  void RecordCompleted(ModelHandle& model, double ttft_s, double total_s,
                       double swap_wait_s, std::int64_t output_tokens);
  void RecordFailed(ModelHandle& model);
  void RecordExpired(ModelHandle& model);
  void RecordRejected(const std::string& model);
  // Admission control shed the request before it was queued (429 with a
  // Retry-After in the real system); slo_class may be empty.
  void RecordShed(const std::string& model, std::string_view slo_class);

  // --- swap outcomes (from the engine controller) -----------------------
  void RecordSwapOut(const std::string& model, double latency_s,
                     bool preemption);
  void RecordSwapIn(const std::string& model, double latency_s);

  // --- snapshot tier (from the prefetcher) -------------------------------
  // A demand-triggered NVMe->host promotion was issued for `model`.
  void RecordPrefetch(const std::string& model);

  // --- recovery outcomes (scheduler retries, worker requeues, crashed
  // backends restored from scratch, breaker trips) ----------------------
  void RecordSwapRetry(const std::string& model);
  void RecordRequeue(ModelHandle& model);
  // A completed recovery action; `kind` is "restart", "cold_fallback", ...
  void RecordRecovery(const std::string& model, const std::string& kind,
                      double latency_s);
  void RecordQuarantine(const std::string& model);

  // System-wide counters.
  std::uint64_t swap_ins = 0;
  std::uint64_t swap_outs = 0;
  std::uint64_t preemptions = 0;  // swap-outs forced by memory pressure
  std::uint64_t swap_overs = 0;  // always 0: swaps are serial
  std::uint64_t prefetches = 0;  // demand-triggered snapshot promotions
  Samples swap_in_latency_s;
  Samples swap_out_latency_s;

  // Self-healing counters (all zero in fault-free runs).
  std::uint64_t swap_retries = 0;
  std::uint64_t requeues = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t quarantines = 0;
  Samples recovery_latency_s;

  // Aggregates across models.
  std::uint64_t TotalCompleted() const;
  std::uint64_t TotalRejected() const;
  std::uint64_t TotalShed() const;
  std::uint64_t TotalFailed() const;
  std::uint64_t TotalExpired() const;
  std::int64_t TotalOutputTokens() const;
  Samples AllTtft() const;

 private:
  // `model`'s handle, created on first use without its per_model() entry
  // (the swap paths write series only).
  ModelHandle& Entry(const std::string& model);
  // swapserve_swaps_total{direction, trigger}: three series.
  struct SwapCounters {
    obs::Counter* out_preemption = nullptr;
    obs::Counter* out_explicit = nullptr;
    obs::Counter* in_demand = nullptr;
  };

  std::map<std::string, ModelMetrics> per_model_;
  obs::Observability* obs_ = nullptr;
  SwapCounters swaps_;
  // Node-based, so handles stay where they are while models are added.
  std::map<std::string, ModelHandle, std::less<>> models_;
};

}  // namespace swapserve::core
