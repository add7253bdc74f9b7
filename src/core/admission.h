// SLO-aware admission control (§16).
//
// Sits in front of the per-backend queue: before a request is enqueued the
// controller estimates how long it would wait — current demand (queued plus
// in-service requests) times an EWMA of observed per-request service time,
// plus a configurable penalty when the backend would have to swap in first
// — and sheds the request (429-style RESOURCE_EXHAUSTED) when the estimate
// exceeds its SLO-class queue-delay budget. Shedding up front turns
// certain-to-time-out requests into immediate, cheap rejections the client
// can retry elsewhere, instead of letting them rot in the queue and expire
// after consuming a slot (the §4.1 deadline path).
//
// The controller is deterministic: estimates use only simulation-visible
// state (queue depth, engine residency, completed-request timings), never
// wall-clock or randomness. It is only constructed when
// admission.enabled = true, so default configs keep the exact pre-admission
// Accept() path.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>

#include "core/backend.h"
#include "core/config.h"

namespace swapserve::core {

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config)
      : config_(std::move(config)) {}

  struct Decision {
    bool admit = true;
    double estimated_delay_s = 0;  // predicted queueing delay
    double budget_s = 0;           // the budget it was compared against
  };

  // Estimate the queueing delay `request` would see on `backend` and
  // compare it against the request's SLO-class budget. Pure: no state is
  // mutated, so a shed leaves the estimator exactly as it was.
  Decision Check(const Backend& backend,
                 const InferenceRequest& request) const;

  // Feed one completed request's service time (serve start -> completion,
  // excluding queue wait) into the per-model EWMA.
  void ObserveService(const std::string& model, double service_s);

  // Queue-delay budget for an SLO class (default budget when the class has
  // no explicit entry, including the empty class).
  double BudgetFor(std::string_view slo_class) const;

  // Current EWMA service estimate for a model (the prior until observed).
  double ServiceEstimate(const std::string& model) const;

  // Per-tenant admit/shed tallies, for tests and status surfaces.
  struct TenantStats {
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
  };
  const std::map<std::string, TenantStats, std::less<>>& tenant_stats()
      const {
    return tenant_stats_;
  }
  // Called by the request handler after it acts on a Decision, so the
  // stats reflect what was actually enqueued vs shed.
  void RecordOutcome(std::string_view tenant, bool admitted);

  const AdmissionConfig& config() const { return config_; }

 private:
  AdmissionConfig config_;
  std::map<std::string, double> ewma_service_s_;  // per model
  std::map<std::string, TenantStats, std::less<>> tenant_stats_;
};

}  // namespace swapserve::core
