#include "core/admission.h"

namespace swapserve::core {

double AdmissionController::BudgetFor(std::string_view slo_class) const {
  auto it = config_.class_budget_s.find(slo_class);
  return it == config_.class_budget_s.end() ? config_.default_budget_s
                                            : it->second;
}

double AdmissionController::ServiceEstimate(const std::string& model) const {
  auto it = ewma_service_s_.find(model);
  return it == ewma_service_s_.end() ? config_.initial_service_s
                                     : it->second;
}

void AdmissionController::ObserveService(const std::string& model,
                                         double service_s) {
  // The first observation blends with the configured prior, not replaces
  // it — a single outlier completion must not swing the estimator.
  auto [it, inserted] =
      ewma_service_s_.try_emplace(model, config_.initial_service_s);
  it->second = config_.ewma_alpha * service_s +
               (1.0 - config_.ewma_alpha) * it->second;
}

AdmissionController::Decision AdmissionController::Check(
    const Backend& backend, const InferenceRequest& request) const {
  Decision d;
  d.budget_s = BudgetFor(request.slo_class);
  // Requests ahead of this one: everything queued plus everything being
  // served (continuous batching keeps per-token latency roughly flat, but
  // the queue only drains as relays finish).
  const double ahead = static_cast<double>(backend.Demand());
  d.estimated_delay_s = ahead * ServiceEstimate(backend.name());
  if (backend.engine->state() != engine::BackendState::kRunning) {
    d.estimated_delay_s += config_.swap_penalty_s;
  }
  d.admit = d.estimated_delay_s <= d.budget_s;
  return d;
}

void AdmissionController::RecordOutcome(std::string_view tenant,
                                        bool admitted) {
  auto it = tenant_stats_.lower_bound(tenant);
  if (it == tenant_stats_.end() || it->first != tenant) {
    it = tenant_stats_.emplace_hint(it, std::string(tenant), TenantStats{});
  }
  TenantStats& stats = it->second;
  if (admitted) {
    ++stats.admitted;
  } else {
    ++stats.shed;
  }
}

}  // namespace swapserve::core
