// Request arrival processes.
//
// Fig. 1 and Fig. 3 need realistic arrival shapes: Poisson for steady load,
// a two-state MMPP for the bursts the introduction motivates, and a
// diurnal rate curve matching the Azure traces' weekday/business-hours
// pattern. Non-homogeneous sampling uses thinning by default, so any
// RateCurve works. The MMPP samples exactly instead: exponential gaps at each dwell
// period's own rate, restarted at every switch. A year of Fig. 3-shaped
// bursts then costs one draw per arrival plus one per period, where
// thinning at the burst rate drew ~14 candidates per arrival
// (BM_TraceGenerationMmppYear, six such models over 360 days: 121-150 ms
// thinned, 34-35 ms exact on a 4-core x86-64 VM).

#pragma once

#include <memory>
#include <vector>

#include "sim/random.h"

namespace swapserve::workload {

// A rate that holds on [t, end) for the t it was asked about.
struct RatePiece {
  double rate = 0;
  double end = 0;
};

// Time-varying arrival rate in requests/second; t is seconds since the
// trace start (t=0 is midnight Monday).
class RateCurve {
 public:
  virtual ~RateCurve() = default;
  virtual double RateAt(double t_seconds) const = 0;
  // A bound used by thinning; must satisfy RateAt(t) <= MaxRate() for all t.
  virtual double MaxRate() const = 0;

 protected:
  // Arrival times on [0, horizon_s) in ascending order, for a curve whose
  // MaxRate() is positive and finite. The default thins a Poisson process
  // at MaxRate() (Ogata's algorithm): every candidate draws one
  // exponential gap and one uniform and asks RateAt once.
  virtual std::vector<double> Arrivals(double horizon_s, sim::Rng& rng) const;

  friend std::vector<double> SampleArrivals(const RateCurve& rate,
                                            double horizon_s, sim::Rng& rng);
};

class ConstantRate final : public RateCurve {
 public:
  explicit ConstantRate(double rps) : rps_(rps) {}
  double RateAt(double) const override { return rps_; }
  double MaxRate() const override { return rps_; }

 private:
  double rps_;
};

// Weekly diurnal pattern: per-weekday scale x hour-of-day shape.
// Two presets mirror Fig. 1's workload classes.
class DiurnalRate final : public RateCurve {
 public:
  DiurnalRate(double base_rps, std::vector<double> hour_shape,
              std::vector<double> day_scale);

  // Business-hours-peaked weekday curve (programming assistants).
  static DiurnalRate CodingPreset(double base_rps);
  // Flatter daytime curve with an evening peak, active weekends (chat).
  static DiurnalRate ConversationalPreset(double base_rps);

  double RateAt(double t_seconds) const override;
  double MaxRate() const override;

 private:
  double base_rps_;
  std::vector<double> hour_shape_;  // 24 entries
  std::vector<double> day_scale_;   // 7 entries, [0]=Monday
};

// Two-state Markov-modulated Poisson process: long quiet periods broken by
// bursts — the §1 "unpredictable bursts of inference requests".
class MmppRate final : public RateCurve {
 public:
  // Alternates exponential-length quiet/burst dwell periods. The switch
  // times are pre-sampled from `seed` so RateAt is a deterministic
  // function of time. Both mean dwell times must be positive and finite.
  MmppRate(double quiet_rps, double burst_rps, double mean_quiet_s,
           double mean_burst_s, std::uint64_t seed, double horizon_s);

  double RateAt(double t_seconds) const override;
  double MaxRate() const override { return burst_rps_; }
  // One dwell period: the rate at t, held until the next switch time (or
  // forever past the last one).
  RatePiece PieceAt(double t_seconds) const;
  bool InBurst(double t_seconds) const;

 private:
  // Exact: within each dwell period, exponential gaps at that period's
  // rate, starting afresh at the period's start (the process is
  // memoryless, so this has thinning's distribution). A zero-rate period
  // draws nothing.
  std::vector<double> Arrivals(double horizon_s,
                               sim::Rng& rng) const override;

  // Index of the first switch time after t: odd inside a burst.
  std::size_t PeriodAt(double t_seconds) const;

  double quiet_rps_;
  double burst_rps_;
  std::vector<double> switch_times_;  // alternating quiet->burst->quiet...
};

// Sample arrival times on [0, horizon), ascending, with the curve's own
// sampler (thinning unless the curve overrides Arrivals). Deterministic in
// `rng`. A curve whose MaxRate() is 0 yields no arrivals and draws
// nothing.
std::vector<double> SampleArrivals(const RateCurve& rate, double horizon_s,
                                   sim::Rng& rng);

}  // namespace swapserve::workload
