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
// Hot paths skip even the lookup by caching the instrument pointer on its
// first write (registry instruments never move) and resetting the cache in
// BindObservability, as hw::GpuMonitor does for its utilization gauges.

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

}  // namespace swapserve::obs
