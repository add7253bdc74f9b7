// Statistics helpers used by benchmarks and the metrics subsystem.
//
// OnlineStats uses Welford's algorithm so long simulations can accumulate
// millions of samples without storing them; Samples keeps raw values for
// exact percentiles where the sample count is bounded.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace swapserve {

// Streaming mean / variance / min / max.
class OnlineStats {
 public:
  void Add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double variance() const;  // population variance
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

  // Combine two accumulators (parallel reduction friendly).
  void Merge(const OnlineStats& other);

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Exact-percentile sample set. O(n log n) on first percentile query after a
// mutation; queries are cached between mutations.
class Samples {
 public:
  void Add(double x);
  void Reserve(std::size_t n) { values_.reserve(n); }

  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double mean() const;
  double min() const;
  double max() const;
  double stddev() const;

  // q in [0, 1]; linear interpolation between closest ranks.
  double Percentile(double q) const;
  double Median() const { return Percentile(0.5); }
  double P99() const { return Percentile(0.99); }

  const std::vector<double>& values() const { return values_; }

 private:
  void EnsureSorted() const;
  std::vector<double> values_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

// Fixed-bucket linear histogram over [lo, hi); out-of-range samples clamp to
// the edge buckets.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void Add(double x);
  std::size_t bucket_count() const { return counts_.size(); }
  std::uint64_t bucket(std::size_t i) const { return counts_[i]; }
  double BucketLow(std::size_t i) const;
  double BucketHigh(std::size_t i) const;
  std::uint64_t total() const { return total_; }

  // Render as a fixed-width ASCII bar chart (for bench output).
  std::string ToAscii(std::size_t width = 40) const;

 private:
  double lo_;
  double hi_;
  double bucket_width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

// Step series sampled on a fixed grid, used for GPU utilization and memory
// traces (Fig. 3). Sample instants are integer nanoseconds, reported in
// seconds as ns / 1e9 (what sim::SimTime::ToSeconds() returns), and a value
// holds until the next sample. Storage is run-length: a run is `count`
// consecutive grid samples of one value, `interval_ns` apart, so an idle
// stretch of any length costs one run. A new run starts when the value
// changes or the grid is re-anchored (a monitor restart).
class TimeSeries {
 public:
  explicit TimeSeries(std::int64_t interval_ns);

  // Append `count` samples of `value` at at_ns, at_ns + interval, ...;
  // at_ns must lie after the last sample.
  void Append(std::int64_t at_ns, double value, std::size_t count = 1);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t runs() const { return runs_.size(); }

  struct Point {
    double time_s;
    double value;
  };
  // Every sample, expanded (tests and dumps; O(size)).
  std::vector<Point> Points() const;

  // Time-weighted average over [t0, t1] assuming the value holds until the
  // next sample (step function). Walks the samples one by one in time
  // order, so the sums are those of the same series stored point by
  // point. Returns 0 for an empty series.
  double TimeWeightedMean(double t0, double t1) const;

  double MaxValue() const;

 private:
  struct Run {
    std::int64_t first_ns;
    std::size_t count;
    double value;
  };
  std::int64_t interval_ns_;
  std::vector<Run> runs_;
  std::size_t size_ = 0;
};

}  // namespace swapserve
