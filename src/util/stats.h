// Statistics helpers used by benchmarks and the metrics subsystem.
//
// Samples keeps raw values for exact percentiles where the sample count is
// bounded; TimeSeries keeps a run-length step series for the time-weighted
// GPU utilization and memory means.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace swapserve {

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
