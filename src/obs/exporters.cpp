#include "obs/exporters.h"

#include <cmath>
#include <map>

#include "json/text.h"

namespace swapserve::obs {
namespace {

// The exposition's number format: json::FormatNumber at %.9g, enough
// digits to round-trip typical latencies, with integers printed without a
// fraction so counter output stays diff-friendly. The non-finite values
// take the format's own spellings.
std::string FormatNumber(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[json::kMaxNumberChars];
  return std::string(buf, json::FormatNumber(v, 9, buf));
}

std::string EscapeLabelValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

// {model="x",le="0.5"} — `extra` appends exporter-synthesized labels.
std::string RenderLabels(
    const LabelSet& labels,
    const std::vector<std::pair<std::string, std::string>>& extra = {}) {
  if (labels.empty() && extra.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto* set : {&labels, &extra}) {
    for (const auto& [k, v] : *set) {
      if (!first) out += ',';
      first = false;
      out += k;
      out += "=\"";
      out += EscapeLabelValue(v);
      out += '"';
    }
  }
  out += '}';
  return out;
}

}  // namespace

json::Value TraceToChromeJson(const TraceRecorder& recorder) {
  json::Value events = json::Value::MakeArray();

  // Stable track -> tid mapping in first-seen order, surfaced to viewers
  // through thread_name metadata records.
  std::map<std::string, int> track_tids;
  const std::vector<TraceEvent> snapshot = recorder.Snapshot();

  json::Value process_meta = json::Value::MakeObject();
  process_meta["name"] = json::Value("process_name");
  process_meta["ph"] = json::Value("M");
  process_meta["pid"] = json::Value(1);
  process_meta["tid"] = json::Value(0);
  json::Value process_args = json::Value::MakeObject();
  process_args["name"] = json::Value("swapserve");
  process_meta["args"] = std::move(process_args);
  events.PushBack(std::move(process_meta));

  for (const TraceEvent& ev : snapshot) {
    auto [it, inserted] = track_tids.try_emplace(
        ev.track, static_cast<int>(track_tids.size()) + 1);
    if (inserted) {
      json::Value meta = json::Value::MakeObject();
      meta["name"] = json::Value("thread_name");
      meta["ph"] = json::Value("M");
      meta["pid"] = json::Value(1);
      meta["tid"] = json::Value(it->second);
      json::Value margs = json::Value::MakeObject();
      margs["name"] = json::Value(ev.track);
      meta["args"] = std::move(margs);
      events.PushBack(std::move(meta));
    }

    json::Value out = json::Value::MakeObject();
    out["name"] = json::Value(ev.name);
    out["cat"] = json::Value(ev.category);
    out["ph"] = json::Value(std::string(1, static_cast<char>(ev.phase)));
    out["ts"] = json::Value(static_cast<double>(ev.ts_ns) / 1e3);
    if (ev.phase == TraceEvent::Phase::kComplete) {
      out["dur"] = json::Value(static_cast<double>(ev.dur_ns) / 1e3);
    } else {
      out["s"] = json::Value("t");  // instant scope: thread
    }
    out["pid"] = json::Value(1);
    out["tid"] = json::Value(it->second);
    if (!ev.args.empty()) {
      json::Value args = json::Value::MakeObject();
      for (const auto& [k, v] : ev.args) args[k] = json::Value(v);
      out["args"] = std::move(args);
    }
    events.PushBack(std::move(out));
  }

  json::Value doc = json::Value::MakeObject();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = json::Value("ms");
  return doc;
}

void WriteChromeTrace(const TraceRecorder& recorder, std::ostream& os) {
  os << TraceToChromeJson(recorder).Pretty() << '\n';
}

std::string ToPrometheusText(const MetricsRegistry& registry) {
  std::string out;
  for (const auto& [name, family] : registry.families()) {
    if (!family.help.empty()) {
      out += "# HELP " + name + " " + family.help + "\n";
    }
    out += "# TYPE " + name + " ";
    out += MetricTypeName(family.type);
    out += '\n';
    for (const auto& [key, series] : family.series) {
      switch (family.type) {
        case MetricType::kCounter:
          out += name + RenderLabels(series.labels) + " " +
                 FormatNumber(series.counter->value()) + "\n";
          break;
        case MetricType::kGauge:
          out += name + RenderLabels(series.labels) + " " +
                 FormatNumber(series.gauge->value()) + "\n";
          break;
        case MetricType::kHistogram: {
          const HistogramMetric& h = *series.histogram;
          for (std::size_t i = 0; i < h.upper_bounds().size(); ++i) {
            out += name + "_bucket" +
                   RenderLabels(series.labels,
                                {{"le", FormatNumber(h.upper_bounds()[i])}}) +
                   " " + FormatNumber(static_cast<double>(
                             h.CumulativeCount(i))) +
                   "\n";
          }
          out += name + "_bucket" +
                 RenderLabels(series.labels, {{"le", "+Inf"}}) + " " +
                 FormatNumber(static_cast<double>(h.count())) + "\n";
          out += name + "_sum" + RenderLabels(series.labels) + " " +
                 FormatNumber(h.sum()) + "\n";
          out += name + "_count" + RenderLabels(series.labels) + " " +
                 FormatNumber(static_cast<double>(h.count())) + "\n";
          break;
        }
      }
    }
  }
  return out;
}

void WritePrometheusText(const MetricsRegistry& registry, std::ostream& os) {
  os << ToPrometheusText(registry);
}

}  // namespace swapserve::obs
