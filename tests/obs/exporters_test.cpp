// Exporter tests: the Chrome trace JSON must parse and carry track
// metadata; the Prometheus text must follow the exposition format.

#include "obs/exporters.h"

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "json/json.h"
#include "obs/trace.h"
#include "sim/simulation.h"

namespace swapserve::obs {
namespace {

const json::Value* FindEvent(const json::Value& doc, const std::string& name) {
  for (const json::Value& ev : doc.Find("traceEvents")->AsArray()) {
    if (ev.GetString("name", "") == name) return &ev;
  }
  return nullptr;
}

TEST(ChromeTraceExportTest, EventsAndTrackMetadata) {
  sim::Simulation sim;
  TraceRecorder rec(sim, /*capacity=*/16);
  Span span;
  sim.Schedule(sim::Seconds(1), [&] {
    span = rec.StartSpan("h2d", "ckpt", "model-a");
    span.AddArg("bytes", "1024");
  });
  sim.Schedule(sim::Seconds(3), [&] {
    span.End();
    rec.Instant("preempt", "controller", "gpu0");
  });
  sim.Run();

  const json::Value doc = TraceToChromeJson(rec);
  EXPECT_EQ(doc.GetString("displayTimeUnit", ""), "ms");

  const json::Value* complete = FindEvent(doc, "h2d");
  ASSERT_NE(complete, nullptr);
  EXPECT_EQ(complete->GetString("ph", ""), "X");
  EXPECT_EQ(complete->GetString("cat", ""), "ckpt");
  // ts/dur are microseconds.
  EXPECT_DOUBLE_EQ(complete->GetDouble("ts", -1), 1e6);
  EXPECT_DOUBLE_EQ(complete->GetDouble("dur", -1), 2e6);
  EXPECT_EQ(complete->Find("args")->GetString("bytes", ""), "1024");

  const json::Value* instant = FindEvent(doc, "preempt");
  ASSERT_NE(instant, nullptr);
  EXPECT_EQ(instant->GetString("ph", ""), "i");
  EXPECT_EQ(instant->GetString("s", ""), "t");

  // Both tracks surface as thread_name metadata with distinct tids.
  int thread_names = 0;
  for (const json::Value& ev : doc.Find("traceEvents")->AsArray()) {
    if (ev.GetString("name", "") == "thread_name") {
      ++thread_names;
      const std::string track = ev.Find("args")->GetString("name", "");
      EXPECT_TRUE(track == "model-a" || track == "gpu0");
    }
  }
  EXPECT_EQ(thread_names, 2);

  // The streamed form parses back as JSON.
  std::ostringstream os;
  WriteChromeTrace(rec, os);
  Result<json::Value> reparsed = json::Parse(os.str());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(FindEvent(*reparsed, "h2d")->GetString("ph", ""), "X");
}

TEST(PrometheusExportTest, CountersGaugesAndTypes) {
  MetricsRegistry reg;
  reg.GetCounter("swapserve_swaps_total",
                 {{"direction", "in"}, {"trigger", "demand"}})
      .Increment(3);
  reg.SetHelp("swapserve_swaps_total", "Swap operations");
  reg.GetGauge("swapserve_gpu_used_bytes", {{"gpu", "0"}}).Set(1.5e9);

  const std::string text = ToPrometheusText(reg);
  EXPECT_NE(text.find("# HELP swapserve_swaps_total Swap operations\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE swapserve_swaps_total counter\n"),
            std::string::npos);
  EXPECT_NE(
      text.find(
          "swapserve_swaps_total{direction=\"in\",trigger=\"demand\"} 3\n"),
      std::string::npos);
  EXPECT_NE(text.find("# TYPE swapserve_gpu_used_bytes gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("swapserve_gpu_used_bytes{gpu=\"0\"} 1500000000\n"),
            std::string::npos);
}

TEST(PrometheusExportTest, HistogramBucketsAreCumulative) {
  MetricsRegistry reg;
  HistogramMetric& h =
      reg.GetHistogram("ttft_seconds", {{"model", "m1"}}, {0.1, 1.0});
  h.Observe(0.05);
  h.Observe(0.5);
  h.Observe(10.0);

  const std::string text = ToPrometheusText(reg);
  EXPECT_NE(text.find("# TYPE ttft_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("ttft_seconds_bucket{model=\"m1\",le=\"0.1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("ttft_seconds_bucket{model=\"m1\",le=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("ttft_seconds_bucket{model=\"m1\",le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("ttft_seconds_sum{model=\"m1\"} 10.55\n"),
            std::string::npos);
  EXPECT_NE(text.find("ttft_seconds_count{model=\"m1\"} 3\n"),
            std::string::npos);
}

TEST(PrometheusExportTest, LabelValuesAreEscaped) {
  MetricsRegistry reg;
  reg.GetCounter("weird", {{"path", "a\\b\"c\nd"}}).Increment();
  const std::string text = ToPrometheusText(reg);
  EXPECT_NE(text.find("weird{path=\"a\\\\b\\\"c\\nd\"} 1\n"),
            std::string::npos);
}

// The snprintf format the exporter's numbers match byte for byte: integral
// values below 1e15 as %lld, everything else as %.9g.
std::string ReferencePromNumber(double d) {
  char buf[64];
  if (d == std::floor(d) && std::fabs(d) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", d);
  }
  return buf;
}

// Each sample line's value, in series order ("g{i=\"000\"} <value>").
std::vector<std::string> SampleValues(const std::string& text) {
  std::vector<std::string> values;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    values.push_back(line.substr(line.rfind(' ') + 1));
  }
  return values;
}

TEST(PrometheusExportTest, NumbersMatchPrintfReference) {
  constexpr int kSeries = 1000;
  MetricsRegistry reg;
  std::vector<Gauge*> gauges;
  for (int i = 0; i < kSeries; ++i) {
    char label[8];
    std::snprintf(label, sizeof(label), "%03d", i);  // series sort by label
    gauges.push_back(&reg.GetGauge("g", {{"i", label}}));
  }
  std::vector<double> values = {
      0.0, -0.0, 1e15 - 1, -(1e15 - 1), 1e15, -1e15,
      std::numeric_limits<double>::denorm_min(), DBL_MIN, DBL_MAX, -DBL_MAX,
      0.1, 1.0 / 3, 10.55, 1.5e9};
  std::mt19937_64 rng(20251020);
  while (values.size() < 100 * kSeries) {
    const double d = std::bit_cast<double>(rng());
    if (std::isfinite(d)) values.push_back(d);
  }
  for (std::size_t base = 0; base < values.size(); base += kSeries) {
    for (int i = 0; i < kSeries; ++i) {
      gauges[i]->Set(values[base + i]);
    }
    const std::vector<std::string> got = SampleValues(ToPrometheusText(reg));
    ASSERT_EQ(got.size(), static_cast<std::size_t>(kSeries));
    for (int i = 0; i < kSeries; ++i) {
      ASSERT_EQ(got[i], ReferencePromNumber(values[base + i]))
          << "value " << base + i;
    }
  }
}

TEST(PrometheusExportTest, NonFiniteValuesUseExpositionSpellings) {
  MetricsRegistry reg;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  reg.GetGauge("g", {{"v", "a"}}).Set(kInf);
  reg.GetGauge("g", {{"v", "b"}}).Set(-kInf);
  reg.GetGauge("g", {{"v", "c"}}).Set(nan);
  reg.GetGauge("g", {{"v", "d"}}).Set(-nan);
  EXPECT_EQ(SampleValues(ToPrometheusText(reg)),
            (std::vector<std::string>{"+Inf", "-Inf", "NaN", "NaN"}));
}

}  // namespace
}  // namespace swapserve::obs
