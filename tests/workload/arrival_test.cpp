#include "workload/arrival.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace swapserve::workload {
namespace {

TEST(ConstantRateTest, PoissonArrivalsMatchRate) {
  ConstantRate rate(2.0);
  sim::Rng rng(1);
  const double horizon = 10000.0;
  auto arrivals = SampleArrivals(rate, horizon, rng);
  EXPECT_NEAR(static_cast<double>(arrivals.size()) / horizon, 2.0, 0.1);
  // Sorted and within bounds.
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_GE(arrivals[i], arrivals[i - 1]);
  }
  EXPECT_GE(arrivals.front(), 0.0);
  EXPECT_LT(arrivals.back(), horizon);
}

TEST(ConstantRateTest, DeterministicPerSeed) {
  ConstantRate rate(1.0);
  sim::Rng a(7);
  sim::Rng b(7);
  EXPECT_EQ(SampleArrivals(rate, 1000, a), SampleArrivals(rate, 1000, b));
}

TEST(DiurnalRateTest, CodingPeaksInBusinessHours) {
  DiurnalRate rate = DiurnalRate::CodingPreset(1.0);
  // Tuesday 10 AM vs Tuesday 3 AM.
  const double work = rate.RateAt(1 * 86400 + 10 * 3600);
  const double night = rate.RateAt(1 * 86400 + 3 * 3600);
  EXPECT_GT(work, night * 10);
}

TEST(DiurnalRateTest, CodingWeekendsQuiet) {
  DiurnalRate rate = DiurnalRate::CodingPreset(1.0);
  const double tue = rate.RateAt(1 * 86400 + 10 * 3600);
  const double sat = rate.RateAt(5 * 86400 + 10 * 3600);
  EXPECT_LT(sat, tue * 0.4);
}

TEST(DiurnalRateTest, ConversationalEveningPeak) {
  DiurnalRate rate = DiurnalRate::ConversationalPreset(1.0);
  const double evening = rate.RateAt(2 * 86400 + 19 * 3600);
  const double morning = rate.RateAt(2 * 86400 + 9 * 3600);
  EXPECT_GT(evening, morning);
}

TEST(DiurnalRateTest, RateNeverExceedsMaxRate) {
  for (auto preset : {DiurnalRate::CodingPreset(3.0),
                      DiurnalRate::ConversationalPreset(3.0)}) {
    const double max = preset.MaxRate();
    for (double t = 0; t < 7 * 86400; t += 600) {
      EXPECT_LE(preset.RateAt(t), max + 1e-12) << "t=" << t;
    }
  }
}

TEST(DiurnalRateTest, WrapsWeekly) {
  DiurnalRate rate = DiurnalRate::CodingPreset(1.0);
  EXPECT_DOUBLE_EQ(rate.RateAt(10 * 3600),
                   rate.RateAt(7 * 86400 + 10 * 3600));
}

TEST(MmppRateTest, TwoLevels) {
  MmppRate rate(0.01, 1.0, 3600, 300, /*seed=*/3, /*horizon=*/86400);
  int burst_samples = 0;
  int quiet_samples = 0;
  for (double t = 0; t < 86400; t += 10) {
    const double r = rate.RateAt(t);
    EXPECT_TRUE(r == 0.01 || r == 1.0);
    (r == 1.0 ? burst_samples : quiet_samples)++;
  }
  EXPECT_GT(burst_samples, 0);
  EXPECT_GT(quiet_samples, burst_samples);  // mean quiet >> mean burst
}

TEST(MmppRateTest, StartsQuiet) {
  MmppRate rate(0.1, 5.0, 1000, 100, 11, 10000);
  EXPECT_FALSE(rate.InBurst(0.0));
  EXPECT_DOUBLE_EQ(rate.RateAt(0.0), 0.1);
}

TEST(MmppRateTest, ArrivalsConcentrateInBursts) {
  MmppRate rate(0.001, 2.0, 2000, 500, 13, 100000);
  sim::Rng rng(17);
  auto arrivals = SampleArrivals(rate, 100000, rng);
  int in_burst = 0;
  for (double t : arrivals) {
    if (rate.InBurst(t)) ++in_burst;
  }
  EXPECT_GT(static_cast<double>(in_burst) /
                static_cast<double>(arrivals.size()),
            0.95);
}

TEST(SampleArrivalsTest, EmptyWhenHorizonZero) {
  ConstantRate rate(5.0);
  sim::Rng rng(1);
  EXPECT_TRUE(SampleArrivals(rate, 0.0, rng).empty());
}

TEST(SampleArrivalsTest, ZeroRateYieldsNoArrivals) {
  ConstantRate zero(0.0);
  DiurnalRate dead = DiurnalRate::CodingPreset(0.0);
  sim::Rng rng(1);
  EXPECT_TRUE(SampleArrivals(zero, 86400, rng).empty());
  EXPECT_TRUE(SampleArrivals(dead, 86400, rng).empty());
  // No draws were spent on the empty curves.
  sim::Rng fresh(1);
  EXPECT_EQ(rng.NextU64(), fresh.NextU64());
}

constexpr double kInf = std::numeric_limits<double>::infinity();

double Before(double t) { return std::nextafter(t, -kInf); }

// Every switch time of `rate` below `horizon`, found by walking its pieces.
std::vector<double> SwitchTimes(const MmppRate& rate, double horizon) {
  std::vector<double> ends;
  for (double t = 0; t < horizon;) {
    const double end = rate.PieceAt(t).end;
    if (end >= horizon) break;
    ends.push_back(end);
    t = end;
  }
  return ends;
}

TEST(RatePieceTest, MmppPieceAgreesWithRateAtAroundEverySwitch) {
  const double horizon = 30 * 86400.0;
  MmppRate rate(0.01, 2.0, 3600, 300, /*seed=*/5, horizon);
  const std::vector<double> switches = SwitchTimes(rate, horizon);
  ASSERT_GT(switches.size(), 100u);
  for (std::size_t i = 0; i < switches.size(); ++i) {
    const double s = switches[i];
    // At the switch the next period starts; just before it the old one
    // still holds and ends exactly at s.
    const RatePiece at = rate.PieceAt(s);
    EXPECT_EQ(at.rate, rate.RateAt(s)) << "switch " << i;
    EXPECT_GT(at.end, s) << "switch " << i;
    const RatePiece before = rate.PieceAt(Before(s));
    EXPECT_EQ(before.rate, rate.RateAt(Before(s))) << "switch " << i;
    EXPECT_EQ(before.end, s) << "switch " << i;
    EXPECT_NE(at.rate, before.rate) << "switch " << i;
    EXPECT_EQ(rate.InBurst(s), i % 2 == 0) << "switch " << i;
  }
}

TEST(RatePieceTest, MmppPieceHoldsAcrossItsInterval) {
  const double horizon = 10 * 86400.0;
  MmppRate rate(0.02, 1.0, 1800, 600, /*seed=*/9, horizon);
  sim::Rng rng(21);
  for (int i = 0; i < 2000; ++i) {
    const double t = rng.Uniform(0, horizon);
    const RatePiece piece = rate.PieceAt(t);
    ASSERT_EQ(piece.rate, rate.RateAt(t)) << "t=" << t;
    ASSERT_GT(piece.end, t);
    ASSERT_LT(piece.end, kInf);  // the switch times reach past the horizon
    EXPECT_EQ(rate.RateAt(Before(piece.end)), piece.rate) << "t=" << t;
    EXPECT_NE(rate.RateAt(piece.end), piece.rate) << "t=" << t;
    for (int k = 0; k < 4; ++k) {
      const double u = rng.Uniform(t, piece.end);
      EXPECT_EQ(rate.RateAt(u), piece.rate) << "t=" << t << " u=" << u;
    }
  }
}

TEST(RatePieceTest, MmppPiecePastLastSwitchIsUnbounded) {
  MmppRate rate(0.1, 1.0, 100, 10, /*seed=*/3, /*horizon=*/50);
  const RatePiece piece = rate.PieceAt(1e9);
  EXPECT_EQ(piece.rate, rate.RateAt(1e9));
  EXPECT_EQ(piece.end, kInf);
}

// Thinning at MaxRate(), asking RateAt for every candidate: the oracle
// the MMPP's exact sampler is held to.
std::vector<double> Thinned(const RateCurve& rate, double horizon,
                            sim::Rng& rng) {
  std::vector<double> arrivals;
  const double max_rate = rate.MaxRate();
  for (double t = rng.Exponential(max_rate); t < horizon;
       t += rng.Exponential(max_rate)) {
    if (rng.NextDouble() * max_rate < rate.RateAt(t)) arrivals.push_back(t);
  }
  return arrivals;
}

// The integral of the rate over [0, horizon): the mean arrival count.
double ExpectedCount(const MmppRate& rate, double horizon) {
  double count = 0;
  for (double t = 0; t < horizon;) {
    const RatePiece piece = rate.PieceAt(t);
    count += piece.rate * (std::min(piece.end, horizon) - t);
    t = piece.end;
  }
  return count;
}

// Two-sample Kolmogorov-Smirnov statistic: sup |F_a(x) - F_b(x)|.
double KsStatistic(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  double d = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] == x) ++i;
    while (j < b.size() && b[j] == x) ++j;
    d = std::max(d, std::abs(static_cast<double>(i) / na -
                             static_cast<double>(j) / nb));
  }
  return d;
}

struct MmppShape {
  double quiet_rps;
  double burst_rps;
  double mean_quiet_s;
  double mean_burst_s;
  double horizon_s;
};

// Runs the exact sampler and thinning on the same curves: six models (six
// switch-time seeds) at each of 24 seeds, each sampler with its own
// stream. Given the curves, each model's total count over the seeds is
// Poisson with the rate's integral as its mean, so the exact total must
// agree with thinning's and with that mean (z-tests), and the pooled
// inter-arrival gaps must pass a two-sample KS test, all at alpha = 0.01.
void ExpectExactMatchesThinning(const MmppShape& shape) {
  constexpr int kModels = 6;
  constexpr std::uint64_t kSeeds = 24;
  constexpr double kZ = 2.5758;   // two-sided, alpha = 0.01
  constexpr double kKs = 1.6276;  // c(alpha) = sqrt(-ln(alpha / 2) / 2)
  std::vector<double> exact_gaps;
  std::vector<double> thinned_gaps;
  const auto add_gaps = [](const std::vector<double>& arrivals,
                           std::vector<double>& gaps) {
    for (std::size_t k = 1; k < arrivals.size(); ++k) {
      gaps.push_back(arrivals[k] - arrivals[k - 1]);
    }
  };
  for (int m = 0; m < kModels; ++m) {
    SCOPED_TRACE(m);
    double expected = 0;
    double exact_count = 0;
    double thinned_count = 0;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      const MmppRate rate(shape.quiet_rps, shape.burst_rps, shape.mean_quiet_s,
                          shape.mean_burst_s, seed * 131 + m, shape.horizon_s);
      sim::Rng exact_rng(1000 * seed + m);
      sim::Rng thinned_rng(1000 * seed + 500 + m);
      const std::vector<double> exact =
          SampleArrivals(rate, shape.horizon_s, exact_rng);
      const std::vector<double> thinned =
          Thinned(rate, shape.horizon_s, thinned_rng);
      ASSERT_TRUE(std::is_sorted(exact.begin(), exact.end()));
      if (!exact.empty()) {
        ASSERT_GE(exact.front(), 0.0);
        ASSERT_LT(exact.back(), shape.horizon_s);
      }
      if (shape.quiet_rps == 0) {
        for (double t : exact) ASSERT_TRUE(rate.InBurst(t)) << "t=" << t;
      }
      expected += ExpectedCount(rate, shape.horizon_s);
      exact_count += static_cast<double>(exact.size());
      thinned_count += static_cast<double>(thinned.size());
      add_gaps(exact, exact_gaps);
      add_gaps(thinned, thinned_gaps);
    }
    ASSERT_GT(expected, 10000);
    EXPECT_LE(std::abs(exact_count - thinned_count),
              kZ * std::sqrt(exact_count + thinned_count))
        << "exact " << exact_count << ", thinned " << thinned_count;
    EXPECT_LE(std::abs(exact_count - expected), kZ * std::sqrt(expected))
        << "exact " << exact_count << ", expected " << expected;
  }
  const double n = static_cast<double>(exact_gaps.size());
  const double k = static_cast<double>(thinned_gaps.size());
  EXPECT_LE(KsStatistic(exact_gaps, thinned_gaps),
            kKs * std::sqrt((n + k) / (n * k)))
      << n << " and " << k << " gaps";
}

TEST(MmppExactSamplerTest, MatchesThinningOnTheFig3Month) {
  ExpectExactMatchesThinning({.quiet_rps = 0.00012,
                              .burst_rps = 0.02,
                              .mean_quiet_s = 5 * 3600,
                              .mean_burst_s = 1200,
                              .horizon_s = 30 * 86400.0});
}

TEST(MmppExactSamplerTest, MatchesThinningWithSilentQuietPeriods) {
  ExpectExactMatchesThinning({.quiet_rps = 0,
                              .burst_rps = 0.05,
                              .mean_quiet_s = 3600,
                              .mean_burst_s = 600,
                              .horizon_s = 7 * 86400.0});
}

TEST(MmppExactSamplerTest, DrawsOncePerArrivalAndOncePerPeriod) {
  const double horizon = 30 * 86400.0;
  const MmppRate rate(0.00012, 0.02, 5 * 3600, 1200, /*seed=*/7, horizon);
  std::size_t periods = 1;
  for (double t = 0; (t = rate.PieceAt(t).end) < horizon;) ++periods;
  sim::Rng rng(3);
  const std::size_t arrivals = SampleArrivals(rate, horizon, rng).size();
  // Every draw is one exponential, one NextU64: count them by replaying
  // the stream up to the sampler's next value.
  const std::uint64_t next = rng.NextU64();
  sim::Rng fresh(3);
  std::size_t draws = 0;
  while (fresh.NextU64() != next) ++draws;
  EXPECT_EQ(draws, arrivals + periods);
}

TEST(MmppExactSamplerTest, SilentQuietPeriodsDrawNothing) {
  // quiet_rps = 0 throughout the horizon: no burst, no draw.
  const MmppRate rate(0, 1.0, 1e9, 100, /*seed=*/1, 86400);
  sim::Rng rng(5);
  EXPECT_TRUE(SampleArrivals(rate, 86400, rng).empty());
  sim::Rng fresh(5);
  EXPECT_EQ(rng.NextU64(), fresh.NextU64());
}

#if GTEST_HAS_DEATH_TEST
TEST(MmppRateDeathTest, RejectsNonPositiveMeanDwell) {
  // Both means 0 would grow the switch list until memory runs out.
  EXPECT_DEATH({ MmppRate r(0.0, 1.0, 0, 0, 1, 86400); }, "mean dwell");
  EXPECT_DEATH({ MmppRate r(0.0, 1.0, 0, 300, 1, 86400); }, "mean dwell");
  EXPECT_DEATH({ MmppRate r(0.0, 1.0, 3600, -1, 1, 86400); }, "mean dwell");
  EXPECT_DEATH({ MmppRate r(0.0, 1.0, kInf, 300, 1, 86400); }, "mean dwell");
  EXPECT_DEATH({ MmppRate r(0.0, 1.0, 3600, std::nan(""), 1, 86400); },
               "mean dwell");
}

TEST(SampleArrivalsDeathTest, RejectsNegativeNanOrInfiniteBound) {
  sim::Rng rng(1);
  ConstantRate negative(-1.0);
  EXPECT_DEATH(SampleArrivals(negative, 10, rng), "rate curve bound");
  ConstantRate nan(std::nan(""));
  EXPECT_DEATH(SampleArrivals(nan, 10, rng), "rate curve bound");
  // An infinite bound makes every gap 0, so time would never advance.
  ConstantRate infinite(kInf);
  EXPECT_DEATH(SampleArrivals(infinite, 10, rng), "rate curve bound");
}
#endif  // GTEST_HAS_DEATH_TEST

}  // namespace
}  // namespace swapserve::workload
