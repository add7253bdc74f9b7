#include "workload/arrival.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/status.h"

namespace swapserve::workload {

DiurnalRate::DiurnalRate(double base_rps, std::vector<double> hour_shape,
                         std::vector<double> day_scale)
    : base_rps_(base_rps),
      hour_shape_(std::move(hour_shape)),
      day_scale_(std::move(day_scale)) {
  SWAP_CHECK_MSG(hour_shape_.size() == 24, "hour shape needs 24 entries");
  SWAP_CHECK_MSG(day_scale_.size() == 7, "day scale needs 7 entries");
}

DiurnalRate DiurnalRate::CodingPreset(double base_rps) {
  // Strong 8 AM - 5 PM ramp (the paper's Fig. 1 zoom window), near-dead
  // overnight, weekends quiet: programming assistants follow work hours.
  std::vector<double> hours = {
      0.04, 0.03, 0.02, 0.02, 0.03, 0.06,  // 00-05
      0.12, 0.30, 0.62, 0.90, 1.00, 0.96,  // 06-11
      0.80, 0.88, 0.98, 0.95, 0.85, 0.65,  // 12-17
      0.42, 0.28, 0.20, 0.14, 0.09, 0.06,  // 18-23
  };
  std::vector<double> days = {1.0, 1.02, 1.0, 0.98, 0.92, 0.25, 0.18};
  return DiurnalRate(base_rps, std::move(hours), std::move(days));
}

DiurnalRate DiurnalRate::ConversationalPreset(double base_rps) {
  // Flatter daytime plateau with an evening peak; weekends stay active.
  std::vector<double> hours = {
      0.18, 0.12, 0.09, 0.08, 0.09, 0.14,  // 00-05
      0.26, 0.42, 0.58, 0.68, 0.74, 0.78,  // 06-11
      0.80, 0.78, 0.76, 0.78, 0.82, 0.88,  // 12-17
      0.95, 1.00, 0.98, 0.85, 0.60, 0.34,  // 18-23
  };
  std::vector<double> days = {1.0, 1.0, 1.0, 1.0, 1.0, 0.85, 0.82};
  return DiurnalRate(base_rps, std::move(hours), std::move(days));
}

double DiurnalRate::RateAt(double t_seconds) const {
  if (t_seconds < 0) t_seconds = 0;
  const double day_f = t_seconds / 86400.0;
  const int day = static_cast<int>(day_f) % 7;
  const double hour_f = (day_f - std::floor(day_f)) * 24.0;
  const int hour = static_cast<int>(hour_f);
  // Linear interpolation between hour buckets keeps the curve smooth.
  const int next_hour = (hour + 1) % 24;
  const double frac = hour_f - hour;
  const double shape =
      hour_shape_[hour] * (1 - frac) + hour_shape_[next_hour] * frac;
  return base_rps_ * day_scale_[day] * shape;
}

double DiurnalRate::MaxRate() const {
  const double max_shape =
      *std::max_element(hour_shape_.begin(), hour_shape_.end());
  const double max_day =
      *std::max_element(day_scale_.begin(), day_scale_.end());
  // +1 hour-interp slack is unnecessary (interp stays within bucket max).
  return base_rps_ * max_shape * max_day;
}

MmppRate::MmppRate(double quiet_rps, double burst_rps, double mean_quiet_s,
                   double mean_burst_s, std::uint64_t seed, double horizon_s)
    : quiet_rps_(quiet_rps), burst_rps_(burst_rps) {
  SWAP_CHECK_MSG(burst_rps >= quiet_rps, "burst rate below quiet rate");
  // A zero mean makes zero-length periods; two of them never reach the
  // horizon.
  SWAP_CHECK_MSG(mean_quiet_s > 0 && std::isfinite(mean_quiet_s) &&
                     mean_burst_s > 0 && std::isfinite(mean_burst_s),
                 "MMPP mean dwell times must be positive and finite");
  sim::Rng rng(seed);
  double t = 0;
  bool burst = false;
  while (t < horizon_s) {
    t += rng.Exponential(1.0 / (burst ? mean_burst_s : mean_quiet_s));
    switch_times_.push_back(t);
    burst = !burst;
  }
}

std::size_t MmppRate::PeriodAt(double t_seconds) const {
  // switch_times_[0] ends the first quiet period; count switches <= t.
  const auto it = std::upper_bound(switch_times_.begin(),
                                   switch_times_.end(), t_seconds);
  return static_cast<std::size_t>(it - switch_times_.begin());
}

bool MmppRate::InBurst(double t_seconds) const {
  return PeriodAt(t_seconds) % 2 == 1;
}

double MmppRate::RateAt(double t_seconds) const {
  return InBurst(t_seconds) ? burst_rps_ : quiet_rps_;
}

RatePiece MmppRate::PieceAt(double t_seconds) const {
  // Every t' in [t, switch_times_[idx]) has the same upper bound idx.
  const std::size_t idx = PeriodAt(t_seconds);
  return {idx % 2 == 1 ? burst_rps_ : quiet_rps_,
          idx < switch_times_.size()
              ? switch_times_[idx]
              : std::numeric_limits<double>::infinity()};
}

std::vector<double> MmppRate::Arrivals(double horizon_s,
                                       sim::Rng& rng) const {
  std::vector<double> arrivals;
  // Period i ends at switch i (quiet when i is even); the period after the
  // last switch never ends.
  double start = 0;
  for (std::size_t i = 0; start < horizon_s; ++i) {
    const bool last = i == switch_times_.size();
    const double end =
        last ? horizon_s : std::min(switch_times_[i], horizon_s);
    const double rate = i % 2 == 1 ? burst_rps_ : quiet_rps_;
    if (rate > 0) {
      for (double t = start + rng.Exponential(rate); t < end;
           t += rng.Exponential(rate)) {
        arrivals.push_back(t);
      }
    }
    if (last) break;
    start = switch_times_[i];
  }
  return arrivals;
}

std::vector<double> RateCurve::Arrivals(double horizon_s,
                                        sim::Rng& rng) const {
  std::vector<double> arrivals;
  const double max_rate = MaxRate();
  for (double t = rng.Exponential(max_rate); t < horizon_s;
       t += rng.Exponential(max_rate)) {
    if (rng.NextDouble() * max_rate < RateAt(t)) arrivals.push_back(t);
  }
  return arrivals;
}

std::vector<double> SampleArrivals(const RateCurve& rate, double horizon_s,
                                   sim::Rng& rng) {
  const double max_rate = rate.MaxRate();
  SWAP_CHECK_MSG(max_rate >= 0 && std::isfinite(max_rate),
                 "rate curve bound must be finite and non-negative");
  if (max_rate == 0) return {};
  return rate.Arrivals(horizon_s, rng);
}

}  // namespace swapserve::workload
