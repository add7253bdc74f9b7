// The observability context handed through the serving stack.
//
// SwapServe owns one Observability; every instrumented component (router,
// request handler, scheduler, task manager, engine controller, checkpoint
// engine, snapshot store, GPU devices, links, monitor) holds a nullable
// pointer to it. The helpers below are null-safe so instrumentation reads
// as one line at the call site and compiles to nothing observable when the
// component runs without telemetry (unit tests that construct layers
// directly).

#pragma once

#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulation.h"

namespace swapserve::obs {

struct Observability {
  explicit Observability(
      sim::Simulation& sim,
      std::size_t trace_capacity = TraceRecorder::kDefaultCapacity)
      : trace(sim, trace_capacity) {}

  TraceRecorder trace;
  MetricsRegistry metrics;
};

// --- null-safe instrumentation helpers ---------------------------------
//
// Names, labels and trace args are borrowed views: nothing is copied
// unless a metric lookup creates its series or the recorder is enabled.
// Trace args that vary per event are passed as numbers (`AddArg("bytes",
// n)`) and dynamic instant names as a prefix and a suffix (`{"preempt:",
// victim}`), so a disabled recorder formats and joins nothing.
//
// Two kinds of metric write. The by-name helpers (IncCounter, SetGauge and
// Observe without a handle) look the series up on every call: they are for
// cold paths only, such as breaker transitions, injected faults and
// quarantines. Every write made per request, per swap, per snapshot-store
// mutation, per placement or per repair scan passes a handle slot instead:
// the slot is resolved on its first write and borrowed after that
// (registry instruments never move). The owner resets its slots in
// BindObservability. One slot serves one series, so its name and labels
// must be the same on every call.

inline Span StartSpan(Observability* obs, std::string_view name,
                      std::string_view category, std::string_view track) {
  if (obs == nullptr) return Span();
  return obs->trace.StartSpan(name, category, track);
}

inline void Instant(Observability* obs, TraceName name,
                    std::string_view category, std::string_view track,
                    TraceArgs args = {}) {
  if (obs == nullptr) return;
  obs->trace.Instant(name, category, track, args);
}

inline void IncCounter(Observability* obs, std::string_view name,
                       Labels labels = {}, double delta = 1.0) {
  if (obs == nullptr) return;
  obs->metrics.GetCounter(name, labels).Increment(delta);
}

inline void SetGauge(Observability* obs, std::string_view name,
                     Labels labels, double value) {
  if (obs == nullptr) return;
  obs->metrics.GetGauge(name, labels).Set(value);
}

inline void Observe(Observability* obs, std::string_view name, Labels labels,
                    double value,
                    const std::vector<double>& upper_bounds =
                        DefaultLatencyBuckets()) {
  if (obs == nullptr) return;
  obs->metrics.GetHistogram(name, labels, upper_bounds).Observe(value);
}

// --- handle-slot forms for hot paths -------------------------------------

inline void IncCounter(Observability* obs, Counter*& slot,
                       std::string_view name, Labels labels = {},
                       double delta = 1.0) {
  if (obs == nullptr) return;
  if (slot == nullptr) slot = &obs->metrics.GetCounter(name, labels);
  slot->Increment(delta);
}

inline void SetGauge(Observability* obs, Gauge*& slot, std::string_view name,
                     Labels labels, double value) {
  if (obs == nullptr) return;
  if (slot == nullptr) slot = &obs->metrics.GetGauge(name, labels);
  slot->Set(value);
}

inline void Observe(Observability* obs, HistogramMetric*& slot,
                    std::string_view name, Labels labels, double value) {
  if (obs == nullptr) return;
  if (slot == nullptr) slot = &obs->metrics.GetHistogram(name, labels);
  slot->Observe(value);
}

}  // namespace swapserve::obs
