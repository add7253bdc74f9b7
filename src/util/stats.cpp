#include "util/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "util/status.h"

namespace swapserve {

void OnlineStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const {
  return count_ > 0 ? m2_ / static_cast<double>(count_) : 0.0;
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void OnlineStats::Merge(const OnlineStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

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

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets, 0) {
  SWAP_CHECK_MSG(hi > lo && buckets > 0, "invalid histogram bounds");
  bucket_width_ = (hi - lo) / static_cast<double>(buckets);
}

void Histogram::Add(double x) {
  auto idx = static_cast<std::ptrdiff_t>((x - lo_) / bucket_width_);
  idx = std::clamp<std::ptrdiff_t>(
      idx, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

double Histogram::BucketLow(std::size_t i) const {
  return lo_ + bucket_width_ * static_cast<double>(i);
}

double Histogram::BucketHigh(std::size_t i) const {
  return lo_ + bucket_width_ * static_cast<double>(i + 1);
}

std::string Histogram::ToAscii(std::size_t width) const {
  std::uint64_t max_count = 0;
  for (auto c : counts_) max_count = std::max(max_count, c);
  std::string out;
  char buf[128];
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto bar = max_count == 0
                         ? std::size_t{0}
                         : static_cast<std::size_t>(
                               static_cast<double>(counts_[i]) * width /
                               static_cast<double>(max_count));
    std::snprintf(buf, sizeof(buf), "[%8.2f, %8.2f) %8llu |",
                  BucketLow(i), BucketHigh(i),
                  static_cast<unsigned long long>(counts_[i]));
    out += buf;
    out.append(bar, '#');
    out += '\n';
  }
  return out;
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
