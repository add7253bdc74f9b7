// Labeled metrics registry: named counters, gauges, and fixed-bucket
// histograms in the Prometheus data model.
//
// A *family* is a metric name plus a type and help string; each distinct
// label set under a family is one time series backed by a stable instrument
// object. Call sites fetch the instrument once per event:
//
//   registry.GetCounter("swapserve_swaps_total",
//                       {{"direction", "in"}, {"trigger", "demand"}})
//       .Increment();
//
// Lookups borrow: the name and label pairs are string views, the canonical
// key is built into a reused buffer, and a std::string is allocated only
// when a lookup creates a family or series. Instruments never move, so a
// hot path may resolve one once and keep the pointer.
//
// Families and series are stored in ordered maps so exporters (Prometheus
// text exposition / JSON snapshot, see obs/exporters.h) emit deterministic
// output — the bench harness diffs these artifacts across PRs.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace swapserve::obs {

// A series' stored label pairs, canonical (sorted by key).
using LabelSet = std::vector<std::pair<std::string, std::string>>;
// Borrowed label pairs for a lookup; order does not matter (the registry
// canonicalizes by key). The views must outlive the call only, so a named
// Labels variable must not view temporaries (a std::to_string in its
// initializer dies at the end of the declaration).
using Labels =
    std::initializer_list<std::pair<std::string_view, std::string_view>>;

enum class MetricType { kCounter, kGauge, kHistogram };
std::string_view MetricTypeName(MetricType t);

// Monotonically increasing value.
class Counter {
 public:
  void Increment(double delta = 1.0);
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// Point-in-time value, settable up and down.
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// Fixed-bucket cumulative histogram. `upper_bounds` are inclusive bucket
// ceilings in ascending order; an implicit +Inf bucket catches the rest.
class HistogramMetric {
 public:
  explicit HistogramMetric(std::vector<double> upper_bounds);

  void Observe(double v);

  const std::vector<double>& upper_bounds() const { return bounds_; }
  // Samples with value <= upper_bounds()[i] (cumulative, Prometheus `le`).
  std::uint64_t CumulativeCount(std::size_t i) const;
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> bucket_counts_;  // per-bucket, +Inf last
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

// Shared bucket layouts. Latencies span 1 ms (a cgroup freeze) to 600 s (a
// cold start); byte sizes span 1 MiB to 128 GiB (an 80 GB HBM part + host
// staging).
const std::vector<double>& DefaultLatencyBuckets();
const std::vector<double>& DefaultBytesBuckets();

class MetricsRegistry {
 public:
  struct Instrument {
    LabelSet labels;  // canonical (sorted by key)
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramMetric> histogram;
  };
  struct Family {
    std::string name;
    std::string help;
    MetricType type = MetricType::kCounter;
    // Keyed by the serialized label set for deterministic iteration.
    std::map<std::string, Instrument, std::less<>> series;
  };
  using FamilyMap = std::map<std::string, Family, std::less<>>;

  // Most labels one series may carry (the sort runs on the stack).
  static constexpr std::size_t kMaxLabels = 8;

  // Fetch-or-create. Checks fail when `name` is reused with a different
  // type or (for histograms) different bucket bounds.
  Counter& GetCounter(std::string_view name, Labels labels = {});
  Gauge& GetGauge(std::string_view name, Labels labels = {});
  HistogramMetric& GetHistogram(std::string_view name, Labels labels = {},
                                const std::vector<double>& upper_bounds =
                                    DefaultLatencyBuckets());

  // Attach a help string emitted by the exporters (idempotent).
  void SetHelp(std::string_view name, std::string help);

  const FamilyMap& families() const { return families_; }
  std::size_t family_count() const { return families_.size(); }
  std::size_t series_count() const;
  // By-name lookups served so far (every Get*). A hot path that holds its
  // instrument handles stops adding to this once it has warmed up.
  std::uint64_t lookups() const { return lookups_; }

  // Canonical serialized form of a label set ("k1=v1,k2=v2", sorted).
  static std::string LabelKey(Labels labels);

 private:
  Instrument& Series(std::string_view name, MetricType type, Labels labels);

  FamilyMap families_;
  std::string key_;  // canonical-key buffer, reused across lookups
  std::uint64_t lookups_ = 0;
};

}  // namespace swapserve::obs
