#include "workload/arrival.h"

#include <gtest/gtest.h>

#include <cmath>
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

TEST(RatePieceTest, ConstantIsOnePieceForever) {
  ConstantRate rate(2.5);
  const RatePiece piece = rate.PieceAt(123.0);
  EXPECT_EQ(piece.rate, 2.5);
  EXPECT_EQ(piece.end, kInf);
}

TEST(RatePieceTest, DiurnalPieceHoldsAtTOnly) {
  DiurnalRate rate = DiurnalRate::ConversationalPreset(1.0);
  for (double t : {0.0, 3599.5, 3600.0, 86400.0 * 3 + 1234.5}) {
    const RatePiece piece = rate.PieceAt(t);
    EXPECT_EQ(piece.rate, rate.RateAt(t)) << "t=" << t;
    EXPECT_EQ(piece.end, std::nextafter(t, kInf)) << "t=" << t;
  }
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
