// Request arrival processes.
//
// Fig. 1 and Fig. 3 need realistic arrival shapes: Poisson for steady load,
// a two-state MMPP for the bursts the introduction motivates, and a
// diurnal rate curve matching the Azure traces' weekday/business-hours
// pattern. Non-homogeneous sampling uses thinning, so any RateCurve works;
// piecewise-constant curves also report their pieces, so thinning asks
// for the rate once per piece instead of once per candidate.

#pragma once

#include <cmath>
#include <limits>
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
  // RateAt(t) and the end of the interval on which it holds. By default
  // the answer is valid at t only; piecewise-constant curves override it.
  virtual RatePiece PieceAt(double t_seconds) const {
    return {RateAt(t_seconds),
            std::nextafter(t_seconds, std::numeric_limits<double>::infinity())};
  }
};

class ConstantRate final : public RateCurve {
 public:
  explicit ConstantRate(double rps) : rps_(rps) {}
  double RateAt(double) const override { return rps_; }
  double MaxRate() const override { return rps_; }
  RatePiece PieceAt(double) const override {
    return {rps_, std::numeric_limits<double>::infinity()};
  }

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
  // function of time (required for thinning). Both mean dwell times must
  // be positive and finite.
  MmppRate(double quiet_rps, double burst_rps, double mean_quiet_s,
           double mean_burst_s, std::uint64_t seed, double horizon_s);

  double RateAt(double t_seconds) const override;
  double MaxRate() const override { return burst_rps_; }
  // One dwell period: the rate at t, held until the next switch time.
  RatePiece PieceAt(double t_seconds) const override;
  bool InBurst(double t_seconds) const;

 private:
  // Index of the first switch time after t: odd inside a burst.
  std::size_t PeriodAt(double t_seconds) const;

  double quiet_rps_;
  double burst_rps_;
  std::vector<double> switch_times_;  // alternating quiet->burst->quiet...
};

// Sample arrival times on [0, horizon) for an arbitrary rate curve
// (thinning / Ogata's algorithm). Deterministic in `rng`: every candidate
// draws one exponential gap and one uniform, and the curve is asked again
// only when a candidate passes the current piece's end. A curve whose
// MaxRate() is 0 yields no arrivals.
std::vector<double> SampleArrivals(const RateCurve& rate, double horizon_s,
                                   sim::Rng& rng);

}  // namespace swapserve::workload
