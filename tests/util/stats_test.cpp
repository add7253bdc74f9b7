#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace swapserve {
namespace {

TEST(SamplesTest, PercentilesInterpolate) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.Add(i);
  EXPECT_DOUBLE_EQ(s.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(1.0), 100.0);
  EXPECT_NEAR(s.Median(), 50.5, 1e-9);
  EXPECT_NEAR(s.P99(), 99.01, 1e-9);
}

TEST(SamplesTest, SingleValue) {
  Samples s;
  s.Add(3.5);
  EXPECT_DOUBLE_EQ(s.Percentile(0.25), 3.5);
  EXPECT_DOUBLE_EQ(s.Median(), 3.5);
}

TEST(SamplesTest, EmptyPercentilesAreZero) {
  Samples s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.Percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.Median(), 0.0);
  EXPECT_DOUBLE_EQ(s.P99(), 0.0);
  EXPECT_DOUBLE_EQ(s.Percentile(1.0), 0.0);
  // Summary stats share the zero-on-empty convention.
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(SamplesTest, SingleElementAllPercentilesCollapse) {
  Samples s;
  s.Add(-2.25);
  EXPECT_DOUBLE_EQ(s.Percentile(0.0), -2.25);
  EXPECT_DOUBLE_EQ(s.Percentile(0.5), -2.25);
  EXPECT_DOUBLE_EQ(s.Percentile(0.99), -2.25);
  EXPECT_DOUBLE_EQ(s.Percentile(1.0), -2.25);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(SamplesTest, PercentileAfterMutationRecomputes) {
  Samples s;
  s.Add(10.0);
  EXPECT_DOUBLE_EQ(s.Median(), 10.0);
  s.Add(20.0);
  EXPECT_DOUBLE_EQ(s.Median(), 15.0);
}

TEST(SamplesTest, SummaryStats) {
  Samples s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.Add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(1.25), 1e-12);
}

constexpr std::int64_t kSecondNs = 1'000'000'000;

TEST(TimeSeriesTest, TimeWeightedMeanStepFunction) {
  TimeSeries ts(5 * kSecondNs);
  ts.Append(0, 10.0);
  ts.Append(5 * kSecondNs, 20.0);  // value 10 for [0,5), 20 for [5,10]
  EXPECT_NEAR(ts.TimeWeightedMean(0.0, 10.0), 15.0, 1e-9);
  EXPECT_NEAR(ts.TimeWeightedMean(0.0, 5.0), 10.0, 1e-9);
  EXPECT_NEAR(ts.TimeWeightedMean(5.0, 10.0), 20.0, 1e-9);
}

TEST(TimeSeriesTest, EmptySeries) {
  TimeSeries ts(kSecondNs);
  EXPECT_TRUE(ts.empty());
  EXPECT_EQ(ts.TimeWeightedMean(0.0, 1.0), 0.0);
  EXPECT_TRUE(ts.Points().empty());
  EXPECT_EQ(ts.MaxValue(), 0.0);
}

TEST(TimeSeriesTest, MaxValue) {
  TimeSeries ts(kSecondNs);
  ts.Append(0, 1.0);
  ts.Append(kSecondNs, 7.0);
  ts.Append(2 * kSecondNs, 3.0);
  EXPECT_DOUBLE_EQ(ts.MaxValue(), 7.0);
}

TEST(TimeSeriesTest, EqualValuesOnTheGridShareOneRun) {
  TimeSeries ts(kSecondNs);
  ts.Append(kSecondNs, 4.0, 3);     // t = 1, 2, 3
  ts.Append(4 * kSecondNs, 4.0);    // t = 4 extends the run
  ts.Append(5 * kSecondNs, 2.0, 2);  // t = 5, 6: a new value
  ts.Append(9 * kSecondNs, 2.0);    // t = 9: off the run's grid
  EXPECT_EQ(ts.size(), 7u);
  EXPECT_EQ(ts.runs(), 3u);
  const std::vector<TimeSeries::Point> pts = ts.Points();
  ASSERT_EQ(pts.size(), 7u);
  EXPECT_DOUBLE_EQ(pts[3].time_s, 4.0);
  EXPECT_DOUBLE_EQ(pts[3].value, 4.0);
  EXPECT_DOUBLE_EQ(pts[5].time_s, 6.0);
  EXPECT_DOUBLE_EQ(pts[6].time_s, 9.0);
  EXPECT_DOUBLE_EQ(pts[6].value, 2.0);
}

// The run-length walk adds the same terms in the same order as a
// point-by-point step integral, so the mean is bit-identical to one.
TEST(TimeSeriesTest, TimeWeightedMeanMatchesPointByPointSum) {
  const std::int64_t interval = 300'000'000;  // 0.3 s: inexact in binary
  TimeSeries ts(interval);
  ts.Append(interval, 0.25, 17);
  ts.Append(18 * interval, 0.1, 5);
  ts.Append(40 * interval, 0.7, 9);
  const std::vector<TimeSeries::Point> pts = ts.Points();
  for (const auto& [t0, t1] : {std::pair{0.0, 20.0}, std::pair{1.1, 9.7},
                               std::pair{5.0, 5.5}}) {
    double acc = 0.0;
    double covered = 0.0;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const double start = std::max(pts[i].time_s, t0);
      const double end =
          std::min(i + 1 < pts.size() ? pts[i + 1].time_s : t1, t1);
      if (end <= start) continue;
      acc += pts[i].value * (end - start);
      covered += end - start;
    }
    EXPECT_EQ(ts.TimeWeightedMean(t0, t1), covered > 0 ? acc / covered : 0.0)
        << "[" << t0 << ", " << t1 << "]";
  }
}

}  // namespace
}  // namespace swapserve
