#include "util/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/status.h"

namespace swapserve {

void Samples::Add(double x) {
  values_.push_back(x);
  sorted_valid_ = false;
}

double Samples::mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Samples::min() const {
  if (values_.empty()) return 0.0;
  return *std::min_element(values_.begin(), values_.end());
}

double Samples::max() const {
  if (values_.empty()) return 0.0;
  return *std::max_element(values_.begin(), values_.end());
}

double Samples::stddev() const {
  if (values_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double v : values_) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(values_.size()));
}

void Samples::EnsureSorted() const {
  if (sorted_valid_) return;
  sorted_ = values_;
  std::sort(sorted_.begin(), sorted_.end());
  sorted_valid_ = true;
}

double Samples::Percentile(double q) const {
  SWAP_CHECK_MSG(q >= 0.0 && q <= 1.0, "percentile out of range");
  if (values_.empty()) return 0.0;
  EnsureSorted();
  if (sorted_.size() == 1) return sorted_[0];
  const double rank = q * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_[lo] + frac * (sorted_[hi] - sorted_[lo]);
}

namespace {

double NsToSeconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

}  // namespace

TimeSeries::TimeSeries(std::int64_t interval_ns) : interval_ns_(interval_ns) {
  SWAP_CHECK_MSG(interval_ns_ > 0, "TimeSeries interval must be positive");
}

void TimeSeries::Append(std::int64_t at_ns, double value, std::size_t count) {
  if (count == 0) return;
  size_ += count;
  if (!runs_.empty()) {
    Run& last = runs_.back();
    const std::int64_t next_ns =
        last.first_ns +
        static_cast<std::int64_t>(last.count) * interval_ns_;
    SWAP_CHECK_MSG(at_ns > next_ns - interval_ns_,
                   "TimeSeries samples must be appended in time order");
    if (at_ns == next_ns && std::bit_cast<std::uint64_t>(value) ==
                                std::bit_cast<std::uint64_t>(last.value)) {
      last.count += count;
      return;
    }
  }
  runs_.push_back({at_ns, count, value});
}

std::vector<TimeSeries::Point> TimeSeries::Points() const {
  std::vector<Point> out;
  out.reserve(size_);
  for (const Run& run : runs_) {
    for (std::size_t j = 0; j < run.count; ++j) {
      out.push_back(
          {NsToSeconds(run.first_ns +
                       static_cast<std::int64_t>(j) * interval_ns_),
           run.value});
    }
  }
  return out;
}

double TimeSeries::TimeWeightedMean(double t0, double t1) const {
  if (runs_.empty() || t1 <= t0) return 0.0;
  double acc = 0.0;
  double covered = 0.0;
  double time = NsToSeconds(runs_.front().first_ns);
  // Samples at or after t1 contribute nothing, so the walk stops there.
  for (std::size_t r = 0; r < runs_.size() && time < t1; ++r) {
    const Run& run = runs_[r];
    for (std::size_t j = 0; j < run.count && time < t1; ++j) {
      double next = t1;
      if (j + 1 < run.count) {
        next = NsToSeconds(run.first_ns +
                           static_cast<std::int64_t>(j + 1) * interval_ns_);
      } else if (r + 1 < runs_.size()) {
        next = NsToSeconds(runs_[r + 1].first_ns);
      }
      const double start = std::max(time, t0);
      const double end = std::min(next, t1);
      if (end > start) {
        acc += run.value * (end - start);
        covered += end - start;
      }
      time = next;
    }
  }
  return covered > 0 ? acc / covered : 0.0;
}

double TimeSeries::MaxValue() const {
  double m = 0.0;
  for (const Run& run : runs_) m = std::max(m, run.value);
  return m;
}

}  // namespace swapserve
