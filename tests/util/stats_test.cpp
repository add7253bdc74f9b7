#include "util/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <random>
#include <ranges>
#include <string>
#include <unordered_set>
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

// What a sorted copy gives: the reference the radix select must match bit
// for bit.
double PercentileOfSorted(const std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  if (v.size() == 1) return v[0];
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}
double SortedPercentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return PercentileOfSorted(v, q);
}

// Bitwise equality, except that +0.0 and -0.0 (which a sort leaves in
// either order) count as equal.
bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b) ||
         (a == 0.0 && b == 0.0);
}

// One random value of distribution `kind`.
double Draw(int kind, std::mt19937_64& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  switch (kind) {
    case 0:  // latencies
      return unit(rng) * 10.0;
    case 1:  // heavy duplicates
      return static_cast<double>(rng() % 7) * 0.25;
    case 2:  // heavy tail, both signs
      return (rng() % 2 == 0 ? 1.0 : -1.0) *
             std::pow(1.0 - unit(rng), -3.0);
    case 3: {  // zeros of both signs, infinities, negatives, denormals
      switch (rng() % 8) {
        case 0: return 0.0;
        case 1: return -0.0;
        case 2: return kInf;
        case 3: return -kInf;
        case 4: return std::numeric_limits<double>::denorm_min();
        case 5: return -std::numeric_limits<double>::denorm_min();
        default: return unit(rng) - 0.5;
      }
    }
    default:  // every bit pattern but NaN
      for (;;) {
        const double x = std::bit_cast<double>(rng());
        if (!std::isnan(x)) return x;
      }
  }
}

TEST(SamplesTest, PercentileMatchesSortedCopyBitForBit) {
  std::mt19937_64 rng(20240537);
  // Sizes 0, 1, 2 and one either side of every chunk boundary.
  std::vector<std::size_t> sizes = {0, 1, 2, 3};
  std::size_t total = 0;
  for (std::size_t k = 0; total < 20'000; ++k) {
    total += stats_detail::ChunkCapacity(k, Samples::kFirstChunk,
                                         Samples::kMaxChunk);
    sizes.insert(sizes.end(), {total - 1, total, total + 1});
  }
  sizes.push_back(100'000);
  // The rest log-uniform up to 100k.
  std::uniform_real_distribution<double> log_size(0.0, std::log(100'000.0));
  while (sizes.size() < 240) {
    sizes.push_back(static_cast<std::size_t>(std::exp(log_size(rng))));
  }
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  int checked = 0;
  for (std::size_t set = 0; set < sizes.size(); ++set) {
    const int kind = static_cast<int>(set % 5);
    Samples s;
    std::vector<double> values;
    for (std::size_t i = 0; i < sizes[set]; ++i) {
      values.push_back(Draw(kind, rng));
      s.Add(values.back());
    }
    std::vector<double> qs = {0.0, 0.01, 0.5, 0.99, 1.0};
    for (int i = 0; i < 4; ++i) qs.push_back(unit(rng));
    for (double q : qs) {
      const double want = SortedPercentile(values, q);
      const double got = s.Percentile(q);
      ASSERT_TRUE(SameBits(got, want))
          << "set " << set << " (kind " << kind << ", " << values.size()
          << " values), q " << q << ": " << got << " vs " << want;
      ++checked;
    }
    EXPECT_EQ(s.count(), values.size());
  }
  EXPECT_GE(checked, 200 * 9);
}

TEST(SamplesTest, ValuesKeepInsertionOrderAcrossChunks) {
  static_assert(std::ranges::forward_range<decltype(Samples().values())>);
  std::mt19937_64 rng(7);
  Samples s;
  std::vector<double> want;
  EXPECT_TRUE(std::ranges::equal(s.values(), want));
  for (int i = 0; i < 20'000; ++i) {
    want.push_back(Draw(i % 4, rng));
    s.Add(want.back());
    if (i == 15 || i == 16 || i == 4095 || i == 8191 || i == 12'287) {
      EXPECT_TRUE(std::ranges::equal(s.values(), want, SameBits)) << i;
    }
  }
  EXPECT_TRUE(std::ranges::equal(s.values(), want, [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  }));
  // Post-increment and a second pass see the same values.
  auto it = s.values().begin();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(*it++),
            std::bit_cast<std::uint64_t>(want[0]));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(*it),
            std::bit_cast<std::uint64_t>(want[1]));
  EXPECT_EQ(std::ranges::distance(s.values()),
            static_cast<std::ptrdiff_t>(want.size()));
}

TEST(SamplesTest, MovedFromSetIsEmpty) {
  Samples a;
  for (int i = 0; i < 100; ++i) a.Add(i);
  Samples b = std::move(a);
  EXPECT_EQ(b.count(), 100u);
  EXPECT_DOUBLE_EQ(b.Median(), 49.5);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  a.Add(3.0);
  EXPECT_DOUBLE_EQ(a.Median(), 3.0);
  EXPECT_EQ(b.count(), 100u);
}

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Distinct bit patterns per 4,096-value window of a low-cardinality set:
// 0-, 1-, 2-, 8- and 9-bit codes, the most a packed chunk holds
// (kMaxDistinct, 12-bit codes straddling words) and one more, and two
// windows too varied to pack. Window 0 is the chunk ramp, which stays raw.
constexpr std::size_t kWindowDistinct[] = {1,    2,    3,    255,  256,
                                           257,  3326, 3327, 4095, 4096};
static_assert(Samples::kMaxDistinct == 3326);

// `d` distinct non-NaN bit patterns: zeros of both signs, infinities and
// denormals first (rotated by `window`, so a 1-pattern window is sometimes
// -0.0), then random latencies.
std::vector<double> Palette(std::size_t d, std::size_t window,
                            std::mt19937_64& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  const double specials[] = {0.0,     -0.0, kInf,          -kInf,
                             kDenorm, -kDenorm, 3 * kDenorm, -1.5};
  constexpr std::size_t kSpecials = std::size(specials);
  std::vector<double> palette;
  std::unordered_set<std::uint64_t> seen;
  for (std::size_t j = 0; j < kSpecials && palette.size() < d; ++j) {
    palette.push_back(specials[(j + window) % kSpecials]);
    seen.insert(Bits(palette.back()));
  }
  std::uniform_real_distribution<double> unit(0.0, 10.0);
  while (palette.size() < d) {
    const double x = unit(rng);
    if (seen.insert(Bits(x)).second) palette.push_back(x);
  }
  return palette;
}

// `n` values whose 4,096-value window w holds exactly
// kWindowDistinct[(w + offset) % 10] distinct bit patterns, each first seen
// in a shuffled order, so one set mixes packed and raw chunks.
std::vector<double> LowCardinality(std::size_t n, std::size_t offset,
                                   std::mt19937_64& rng) {
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t window = 0; out.size() < n; ++window) {
    const std::size_t d =
        kWindowDistinct[(window + offset) % std::size(kWindowDistinct)];
    std::vector<double> palette = Palette(d, window, rng);
    std::shuffle(palette.begin(), palette.end(), rng);
    for (std::size_t i = 0; i < Samples::kMaxChunk && out.size() < n; ++i) {
      out.push_back(i < d ? palette[i] : palette[rng() % d]);
    }
  }
  return out;
}

// The observables of `s` against the vector it was filled from: values in
// order bit for bit and count; if `all`, also mean, min, max and stddev
// bit for bit (they fold the values in insertion order) and percentiles
// against a sorted copy.
void ExpectMatchesReference(const Samples& s, const std::vector<double>& want,
                            const std::string& where, bool all) {
  ASSERT_EQ(s.count(), want.size()) << where;
  ASSERT_TRUE(std::ranges::equal(s.values(), want, [](double a, double b) {
    return Bits(a) == Bits(b);
  })) << where;
  if (want.empty() || !all) return;
  double sum = 0.0;
  for (double v : want) sum += v;
  const double mean = sum / static_cast<double>(want.size());
  double acc = 0.0;
  for (double v : want) acc += (v - mean) * (v - mean);
  EXPECT_EQ(Bits(s.mean()), Bits(mean)) << where;
  EXPECT_EQ(Bits(s.min()), Bits(*std::ranges::min_element(want))) << where;
  EXPECT_EQ(Bits(s.max()), Bits(*std::ranges::max_element(want))) << where;
  if (want.size() > 1) {
    EXPECT_EQ(Bits(s.stddev()),
              Bits(std::sqrt(acc / static_cast<double>(want.size()))))
        << where;
  }
  std::vector<double> sorted = want;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    const double got = s.Percentile(q);
    const double ref = PercentileOfSorted(sorted, q);
    EXPECT_TRUE(SameBits(got, ref))
        << where << ", q " << q << ": " << got << " vs " << ref;
  }
}

// Packed chunks give back exactly the inserted bits. Each set is filled one
// value at a time and checked one either side of every chunk boundary (the
// first Add past a full 4,096-value chunk seals it) up to 100k values, and
// moved to a new set half way. The summary statistics and percentiles, the
// slow checks, run just after every fourth seal and at the end.
TEST(SamplesTest, PackedChunksMatchVectorBitForBit) {
  std::vector<std::size_t> checkpoints;
  std::size_t total = 0;
  for (std::size_t k = 0; total < 100'000; ++k) {
    total += stats_detail::ChunkCapacity(k, Samples::kFirstChunk,
                                         Samples::kMaxChunk);
    checkpoints.insert(checkpoints.end(), {total - 1, total, total + 1});
  }
  checkpoints.push_back(100'000);
  std::mt19937_64 rng(39);
  for (std::size_t offset : {0, 5}) {
    const std::vector<double> all = LowCardinality(100'000, offset, rng);
    auto s = std::make_unique<Samples>();
    std::vector<double> want;
    bool moved = false;
    for (std::size_t checkpoint : checkpoints) {
      if (checkpoint > all.size()) break;
      while (want.size() < checkpoint) {
        want.push_back(all[want.size()]);
        s->Add(want.back());
      }
      ExpectMatchesReference(
          *s, want,
          "offset " + std::to_string(offset) + ", " +
              std::to_string(checkpoint) + " values",
          /*all=*/checkpoint == 100'000 || checkpoint % 16'384 == 1);
      if (!moved && checkpoint > 50'000) {
        // A moved set keeps its packed chunks and its tail.
        auto next = std::make_unique<Samples>(std::move(*s));
        EXPECT_TRUE(s->empty());
        EXPECT_TRUE(std::ranges::empty(s->values()));
        s = std::move(next);
        moved = true;
      }
    }
    EXPECT_TRUE(moved);
  }
}

// One pattern per window: every window after the ramp packs to a 0-bit
// code, and the dictionary tells +0.0 from -0.0.
TEST(SamplesTest, SignedZerosPackAsTwoPatterns) {
  Samples s;
  std::vector<double> want;
  for (std::size_t i = 0; i < 10 * Samples::kMaxChunk + 3; ++i) {
    want.push_back((i / Samples::kMaxChunk) % 2 == 0 ? 0.0 : -0.0);
    s.Add(want.back());
  }
  // A window mixing both zeros packs to 1-bit codes.
  for (std::size_t i = 0; i < 2 * Samples::kMaxChunk; ++i) {
    want.push_back(i % 3 == 0 ? -0.0 : 0.0);
    s.Add(want.back());
  }
  ExpectMatchesReference(s, want, "signed zeros", /*all=*/true);
  EXPECT_EQ(Bits(s.Median()), Bits(0.0));
}

// std::sort over a NaN breaks strict weak ordering; a NaN has no rank.
TEST(SamplesDeathTest, AddRejectsNaN) {
  Samples s;
  EXPECT_DEATH(s.Add(std::numeric_limits<double>::quiet_NaN()), "NaN");
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

// A point-by-point series: every sample's instant and value, and the runs
// the run-length store should hold.
struct ReferenceSeries {
  std::int64_t interval_ns;
  std::vector<std::int64_t> at_ns;
  std::vector<double> values;
  std::size_t runs = 0;
  std::uint64_t run_count = 0;  // samples in the last run

  void Append(std::int64_t at, double value, std::size_t count) {
    for (std::size_t j = 0; j < count; ++j) {
      const std::int64_t t = at + static_cast<std::int64_t>(j) * interval_ns;
      const bool extends =
          !at_ns.empty() && t == at_ns.back() + interval_ns &&
          std::bit_cast<std::uint64_t>(value) ==
              std::bit_cast<std::uint64_t>(values.back()) &&
          run_count < TimeSeries::kMaxRunCount;
      if (extends) {
        ++run_count;
      } else {
        ++runs;
        run_count = 1;
      }
      at_ns.push_back(t);
      values.push_back(value);
    }
  }

  // The step integral over every sample, in time order.
  double TimeWeightedMean(double t0, double t1) const {
    if (at_ns.empty() || t1 <= t0) return 0.0;
    double acc = 0.0;
    double covered = 0.0;
    for (std::size_t i = 0; i < at_ns.size(); ++i) {
      const double time = static_cast<double>(at_ns[i]) / 1e9;
      const double next = i + 1 < at_ns.size()
                              ? static_cast<double>(at_ns[i + 1]) / 1e9
                              : t1;
      const double start = std::max(time, t0);
      const double end = std::min(next, t1);
      if (end <= start) continue;
      acc += values[i] * (end - start);
      covered += end - start;
    }
    return covered > 0 ? acc / covered : 0.0;
  }
};

// Values aimed at every run encoding on a grid of `interval` ns: +-0.0 and
// 1.0; grid fractions k / interval at k = 1, 2^28 +- 1, 2^30, 2^32 + 1 and
// 2^53 - 1 (which only a 1 ns grid holds exactly), of either sign; a
// near-fraction one ulp above each; values above 1, negatives and
// denormals; and values whose k would reach 2^53, which must stay raw.
// With `special`, infinities and NaN payloads too.
std::vector<double> EncodingValues(std::int64_t interval, bool special) {
  const auto iv = static_cast<double>(interval);
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> out = {0.0,     -0.0,   1.0,   0.25,   1.0 / 3,
                             71.5,    80.0,   -0.25, -7.0,   1e300,
                             0x1p54 / iv, -0x1p60 / iv,
                             std::numeric_limits<double>::denorm_min(),
                             -1e-310, 0x1p-1022};
  for (const std::int64_t k :
       {std::int64_t{1}, (std::int64_t{1} << 28) - 1, std::int64_t{1} << 28,
        (std::int64_t{1} << 28) + 1, std::int64_t{1} << 30,
        (std::int64_t{1} << 32) + 1, (std::int64_t{1} << 53) - 1}) {
    for (const std::int64_t sign : {1, -1}) {
      const double v = static_cast<double>(sign * k) / iv;
      out.push_back(v);
      out.push_back(std::nextafter(v, inf));
    }
  }
  if (special) {
    out.insert(out.end(),
               {inf, -inf, std::numeric_limits<double>::quiet_NaN(),
                std::bit_cast<double>(std::uint64_t{0x7ff8'0000'0000'0123}),
                std::bit_cast<double>(std::uint64_t{0xfff4'0000'0000'0001})});
  }
  return out;
}

// Bit-equal, or both NaN: a NaN's payload after arithmetic depends on
// operand order, which the store does not decide.
bool SameMean(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b) ||
         (std::isnan(a) && std::isnan(b));
}

// Random appends on and off the grid (re-anchors), long idle stretches and
// runs of equal values, checked against the point-by-point reference. Every
// fourth trial draws from a palette on a random 1 ms to 401 ms grid, two
// values or all six in turn; the others draw EncodingValues() on a 1 ns,
// 1 s, 300 s, 1 day or random grid, with run counts where the varint of
// count and kind grows a byte and around 64 (RunLongerThanItsCountSplits
// has counts of 2^32 - 1). Half way through, the series is moved and
// appended to in its new home.
TEST(TimeSeriesTest, MatchesPointByPointReference) {
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  // 0 stands for a random grid.
  constexpr std::int64_t kGrids[] = {1, kSecondNs, 300 * kSecondNs,
                                     86'400 * kSecondNs, 0};
  // Where (count - 1) << 2 | kind needs a second (33) and a third (4097)
  // varint byte, and around 64.
  constexpr std::size_t kCounts[] = {1,  2,  32,  33,   62,   63,
                                     64, 65, 200, 4096, 4097, 16448};
  const std::vector<double> palette = {0.0, 0.25, 0.3, 1.0 / 3, 71.5, 80.0};
  for (int trial = 0; trial < 48; ++trial) {
    const bool encodings = trial % 4 != 0;
    const std::int64_t grid = encodings ? kGrids[(trial / 4) % 5] : 0;
    const std::int64_t interval =
        grid != 0 ? grid
                  : 1'000'000 + static_cast<std::int64_t>(rng() % 400'000'000);
    const std::vector<double> values =
        encodings ? EncodingValues(interval, trial % 4 == 3) : palette;
    auto ts = std::make_unique<TimeSeries>(interval);
    ReferenceSeries ref{interval, {}, {}};
    std::int64_t next = static_cast<std::int64_t>(rng() % 1'000'000'000);
    // A day grid keeps to 400 appends of at most 200 samples, inside int64
    // nanoseconds.
    const bool day = interval == kGrids[3];
    const int appends = trial % 6 == 0 && !day
                            ? 20'000
                            : 1 + static_cast<int>(rng() % 400);
    for (int i = 0; i < appends; ++i) {
      if (i == appends / 2) {
        ts = std::make_unique<TimeSeries>(std::move(*ts));
      }
      std::int64_t at = next;
      const std::uint64_t roll = rng() % 100;
      if (roll < 3 && !ref.at_ns.empty()) {
        // Off the grid, as a restarted monitor appends: anywhere after
        // the last sample.
        at = ref.at_ns.back() + 1 +
             static_cast<std::int64_t>(rng() % (3 * interval));
      }
      std::size_t count = 1 + rng() % 3;
      if (roll >= 97) count = 1 + rng() % 5'000;  // an idle stretch
      if (encodings && roll >= 80 && roll < 97) {
        // The long trials leave out the counts from 4096 on, for time.
        count = kCounts[rng() % (std::size(kCounts) - (appends > 400 ? 3 : 0))];
      }
      if (day) count = std::min<std::size_t>(count, 200);
      const std::size_t choices =
          encodings || (trial / 4) % 2 == 1 ? values.size() : 2;
      const double value = values[rng() % choices];
      ts->Append(at, value, count);
      ref.Append(at, value, count);
      next = at + static_cast<std::int64_t>(count) * interval;
    }
    ASSERT_EQ(ts->size(), ref.at_ns.size()) << trial;
    EXPECT_EQ(ts->runs(), ref.runs) << trial;
    const std::vector<TimeSeries::Point> pts = ts->Points();
    ASSERT_EQ(pts.size(), ref.at_ns.size());
    double max = 0.0;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      ASSERT_EQ(pts[i].time_s, static_cast<double>(ref.at_ns[i]) / 1e9)
          << trial << " point " << i;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(pts[i].value),
                std::bit_cast<std::uint64_t>(ref.values[i]))
          << trial << " point " << i << ": " << pts[i].value << " for "
          << ref.values[i];
      max = std::max(max, ref.values[i]);
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ts->MaxValue()),
              std::bit_cast<std::uint64_t>(max))
        << trial;
    const double first = static_cast<double>(ref.at_ns.front()) / 1e9;
    const double last = static_cast<double>(ref.at_ns.back()) / 1e9;
    for (int w = 0; w < 12; ++w) {
      double t0 = first - 1.0 + unit(rng) * (last - first + 2.0);
      double t1 = first - 1.0 + unit(rng) * (last - first + 2.0);
      if (w == 0) t0 = 0.0, t1 = last + 10.0;
      if (t1 < t0) std::swap(t0, t1);
      EXPECT_TRUE(SameMean(ts->TimeWeightedMean(t0, t1),
                           ref.TimeWeightedMean(t0, t1)))
          << trial << " [" << t0 << ", " << t1 << "]";
    }
  }
}

// The mean over a window from just after sample `first` to just before
// sample `last` of a series whose sample i (of n) is value_at(i), `interval`
// ns apart from 0: the step integral over the samples from first - 2 on.
template <class ValueAt>
void ExpectWindowMean(const TimeSeries& ts, std::int64_t interval,
                      std::size_t n, ValueAt value_at, std::size_t first,
                      std::size_t last) {
  const auto at = [&](std::size_t i) {
    return static_cast<double>(static_cast<std::int64_t>(i) * interval) / 1e9;
  };
  const double t0 = at(first) + 1e-4;
  const double t1 = at(last) - 2e-4;
  double acc = 0.0;
  double covered = 0.0;
  for (std::size_t i = first - 2; i < n; ++i) {
    const double start = std::max(at(i), t0);
    const double end = std::min(i + 1 < n ? at(i + 1) : t1, t1);
    if (end <= start) continue;
    acc += value_at(i) * (end - start);
    covered += end - start;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(ts.TimeWeightedMean(t0, t1)),
            std::bit_cast<std::uint64_t>(acc / covered))
      << "[" << t0 << ", " << t1 << "]";
}

// A run holds at most 2^32 - 1 samples; a longer one is split in two, and
// the samples keep their instants. A full run's count takes a 5-byte
// varint.
TEST(TimeSeriesTest, RunLongerThanItsCountSplits) {
  constexpr std::int64_t kInterval = 1'000'000;  // 1 ms
  constexpr std::size_t kLong = std::size_t{1} << 32;  // 2^32 + 4 below
  // One append longer than two runs, then a raw value: the mean across the
  // change holds only if both full runs decode their counts.
  TimeSeries whole(kInterval);
  whole.Append(0, 2.0, 2 * kLong + 1);
  EXPECT_EQ(whole.runs(), 3u);
  EXPECT_EQ(whole.size(), 2 * kLong + 1);
  whole.Append(static_cast<std::int64_t>(2 * kLong + 1) * kInterval, 1.0 / 3,
               2);
  EXPECT_EQ(whole.runs(), 4u);
  EXPECT_EQ(whole.MaxValue(), 2.0);
  ExpectWindowMean(
      whole, kInterval, 2 * kLong + 3,
      [](std::size_t i) { return i < 2 * kLong + 1 ? 2.0 : 1.0 / 3; },
      2 * kLong - 5, 2 * kLong + 3);
  // An append that fills the last run and starts the next.
  TimeSeries ts(kInterval);
  ts.Append(0, 1.5, kLong - 3);
  EXPECT_EQ(ts.runs(), 1u);
  ts.Append(static_cast<std::int64_t>(kLong - 3) * kInterval, 1.5, 7);
  EXPECT_EQ(ts.size(), kLong + 4);
  EXPECT_EQ(ts.runs(), 2u);
  // Extends the second run, then a new value starts a third.
  ts.Append(static_cast<std::int64_t>(kLong + 4) * kInterval, 1.5, 2);
  EXPECT_EQ(ts.runs(), 2u);
  ts.Append(static_cast<std::int64_t>(kLong + 6) * kInterval, 4.0, 3);
  EXPECT_EQ(ts.runs(), 3u);
  EXPECT_EQ(ts.size(), kLong + 9);
  EXPECT_EQ(ts.MaxValue(), 4.0);

  // Around the split and around the value change, the mean is that of
  // the samples near the window; earlier samples add nothing.
  const auto value_at = [](std::size_t i) { return i < kLong + 6 ? 1.5 : 4.0; };
  ExpectWindowMean(ts, kInterval, kLong + 9, value_at, kLong - 40, kLong + 30);
  ExpectWindowMean(ts, kInterval, kLong + 9, value_at, kLong - 3, kLong + 9);
}

TEST(TimeSeriesTest, MovedFromSeriesIsEmpty) {
  TimeSeries a(kSecondNs);
  a.Append(0, 2.0, 5);
  TimeSeries b = std::move(a);
  EXPECT_EQ(b.size(), 5u);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  a.Append(kSecondNs, 3.0);
  EXPECT_EQ(a.runs(), 1u);
  EXPECT_EQ(a.Points()[0].time_s, 1.0);
  EXPECT_EQ(b.runs(), 1u);
}

}  // namespace
}  // namespace swapserve
