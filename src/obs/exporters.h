// Exporters: machine-readable views of the telemetry subsystem.
//
//  * Chrome trace-event JSON ("traceEvents" array) — load into Perfetto or
//    chrome://tracing; each distinct span track becomes a named thread.
//  * Prometheus text exposition — counters/gauges/histograms with # HELP /
//    # TYPE headers, cumulative `le` buckets, `_sum` and `_count`.

#pragma once

#include <ostream>
#include <string>

#include "json/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace swapserve::obs {

// {"traceEvents": [...], "displayTimeUnit": "ms"}. Timestamps convert from
// virtual nanoseconds to the format's microseconds. Tracks map to
// (pid=1, tid=N) with thread_name metadata records, so viewers show the
// track string instead of a bare number.
json::Value TraceToChromeJson(const TraceRecorder& recorder);
void WriteChromeTrace(const TraceRecorder& recorder, std::ostream& os);

// Prometheus text exposition format (version 0.0.4).
std::string ToPrometheusText(const MetricsRegistry& registry);
void WritePrometheusText(const MetricsRegistry& registry, std::ostream& os);

}  // namespace swapserve::obs
