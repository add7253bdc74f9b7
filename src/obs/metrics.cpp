#include "obs/metrics.h"

#include <algorithm>
#include <array>

#include "util/status.h"

namespace swapserve::obs {

std::string_view MetricTypeName(MetricType t) {
  switch (t) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "?";
}

void Counter::Increment(double delta) {
  SWAP_CHECK_MSG(delta >= 0.0, "counters only go up");
  value_ += delta;
}

HistogramMetric::HistogramMetric(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      bucket_counts_(bounds_.size() + 1, 0) {
  SWAP_CHECK_MSG(!bounds_.empty(), "histogram needs at least one bucket");
  SWAP_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                 "histogram bounds must be ascending");
}

void HistogramMetric::Observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++bucket_counts_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += v;
}

std::uint64_t HistogramMetric::CumulativeCount(std::size_t i) const {
  SWAP_CHECK_MSG(i < bounds_.size(), "bucket index out of range");
  std::uint64_t total = 0;
  for (std::size_t b = 0; b <= i; ++b) total += bucket_counts_[b];
  return total;
}

const std::vector<double>& DefaultLatencyBuckets() {
  static const std::vector<double> kBuckets = {
      0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
      1.0,   2.5,    5.0,   10.0, 25.0,  50.0, 100.0, 250.0, 600.0};
  return kBuckets;
}

const std::vector<double>& DefaultBytesBuckets() {
  static const std::vector<double> kBuckets = [] {
    std::vector<double> b;
    for (double v = 1024.0 * 1024.0; v <= 128.0 * 1024.0 * 1024.0 * 1024.0;
         v *= 4.0) {
      b.push_back(v);
    }
    return b;
  }();
  return kBuckets;
}

namespace {

using LabelView = std::pair<std::string_view, std::string_view>;
using SortedLabels = std::array<LabelView, MetricsRegistry::kMaxLabels>;

// Copy the borrowed pairs onto the stack sorted by key; returns the count.
std::size_t SortLabels(Labels labels, SortedLabels& out) {
  SWAP_CHECK_MSG(labels.size() <= out.size(), "too many metric labels");
  std::copy(labels.begin(), labels.end(), out.begin());
  const auto last = out.begin() + static_cast<std::ptrdiff_t>(labels.size());
  std::sort(out.begin(), last);
  return labels.size();
}

void AppendLabelKey(const SortedLabels& sorted, std::size_t n,
                    std::string& key) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) key += ',';
    key += sorted[i].first;
    key += '=';
    key += sorted[i].second;
  }
}

}  // namespace

std::string MetricsRegistry::LabelKey(Labels labels) {
  SortedLabels sorted;
  const std::size_t n = SortLabels(labels, sorted);
  std::string key;
  AppendLabelKey(sorted, n, key);
  return key;
}

MetricsRegistry::Instrument& MetricsRegistry::Series(std::string_view name,
                                                     MetricType type,
                                                     Labels labels) {
  SWAP_CHECK_MSG(!name.empty(), "metric name must not be empty");
  ++lookups_;
  auto fit = families_.lower_bound(name);
  if (fit == families_.end() || fit->first != name) {
    fit = families_.try_emplace(fit, std::string(name));
    fit->second.name = fit->first;
    fit->second.type = type;
  } else {
    SWAP_CHECK_MSG(fit->second.type == type,
                   "metric " + std::string(name) +
                       " re-registered as a different type");
  }
  Family& family = fit->second;

  SortedLabels sorted;
  const std::size_t n = SortLabels(labels, sorted);
  key_.clear();
  AppendLabelKey(sorted, n, key_);
  auto sit = family.series.lower_bound(key_);
  if (sit == family.series.end() || sit->first != key_) {
    sit = family.series.try_emplace(sit, key_);
    LabelSet& stored = sit->second.labels;
    stored.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      stored.emplace_back(sorted[i].first, sorted[i].second);
    }
  }
  return sit->second;
}

Counter& MetricsRegistry::GetCounter(std::string_view name, Labels labels) {
  Instrument& series = Series(name, MetricType::kCounter, labels);
  if (series.counter == nullptr) {
    series.counter = std::make_unique<Counter>();
  }
  return *series.counter;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name, Labels labels) {
  Instrument& series = Series(name, MetricType::kGauge, labels);
  if (series.gauge == nullptr) series.gauge = std::make_unique<Gauge>();
  return *series.gauge;
}

HistogramMetric& MetricsRegistry::GetHistogram(
    std::string_view name, Labels labels,
    const std::vector<double>& upper_bounds) {
  Instrument& series = Series(name, MetricType::kHistogram, labels);
  if (series.histogram == nullptr) {
    series.histogram = std::make_unique<HistogramMetric>(upper_bounds);
  } else {
    SWAP_CHECK_MSG(series.histogram->upper_bounds() == upper_bounds,
                   "histogram " + std::string(name) +
                       " re-registered with different buckets");
  }
  return *series.histogram;
}

void MetricsRegistry::SetHelp(std::string_view name, std::string help) {
  auto it = families_.find(name);
  SWAP_CHECK_MSG(it != families_.end(),
                 "SetHelp for unregistered metric " + std::string(name));
  it->second.help = std::move(help);
}

std::size_t MetricsRegistry::series_count() const {
  std::size_t n = 0;
  for (const auto& [name, family] : families_) n += family.series.size();
  return n;
}

}  // namespace swapserve::obs
