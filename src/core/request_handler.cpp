#include "core/request_handler.h"

#include <utility>

#include "util/log.h"

namespace swapserve::core {

void RequestHandler::RegisterBackend(Backend* backend) {
  SWAP_CHECK(backend != nullptr);
  auto [it, inserted] = backends_.emplace(backend->name(), backend);
  SWAP_CHECK_MSG(inserted, "duplicate backend registration");
}

Status ModelNotServed(std::string_view model) {
  return NotFound(std::string("model ").append(model).append(" is not served"));
}

Backend* RequestHandler::FindBackend(std::string_view model_id) {
  auto it = backends_.find(model_id);
  return it == backends_.end() ? nullptr : it->second;
}

Result<ResponseChannelPtr> RequestHandler::Accept(
    const InferenceRequest& request) {
  Backend* backend = FindBackend(request.model);
  if (backend == nullptr) return ModelNotServed(request.model);
  return Accept(*backend, request);
}

Result<ResponseChannelPtr> RequestHandler::Accept(
    Backend& backend, const InferenceRequest& request) {
  // From here on the model's name is the backend's.
  const std::string& model = backend.name();

  // SLO-aware admission (§16): shed before the request touches the queue
  // when its estimated queueing delay exceeds the SLO-class budget. The
  // "request.admit" chaos point can force a shed the estimator would not
  // have taken (fail-only; the synchronous path ignores stalls).
  if (admission_ != nullptr) {
    AdmissionController::Decision decision =
        admission_->Check(backend, request);
    std::string shed_reason;
    if (!decision.admit) {
      shed_reason = "estimated queue delay " +
                    std::to_string(decision.estimated_delay_s) +
                    "s exceeds budget " + std::to_string(decision.budget_s) +
                    "s";
    } else {
      fault::FaultDecision f = fault::Evaluate(fault_, "request.admit", model);
      if (!f.status.ok()) shed_reason = f.status.message();
    }
    if (!shed_reason.empty()) {
      admission_->RecordOutcome(request.tenant, /*admitted=*/false);
      metrics_.RecordShed(model, request.slo_class);
      obs::Instant(obs_, "shed:admission", "handler", model,
                   {{"slo_class", request.slo_class.empty()
                                      ? "default"
                                      : request.slo_class}});
      return ResourceExhausted("admission: " + model + ": " + shed_reason);
    }
    admission_->RecordOutcome(request.tenant, /*admitted=*/true);
  }

  // Metadata stamps (§4.1): arrival time and backend utilization tracking.
  // Only the numbers are queued; the names stay with the caller.
  auto channel = std::make_shared<ResponseChannel>(sim_, /*capacity=*/128);
  QueuedRequest item{.request = request, .response = channel};
  RequestParams& params = item.request;
  if (params.id == 0) params.id = NextRequestId();
  params.arrival_time_s = sim_.Now().ToSeconds();
  if (params.deadline_s == 0 && global_.response_timeout_s > 0) {
    params.deadline_s = params.arrival_time_s + global_.response_timeout_s;
  }
  backend.last_accessed = sim_.Now();

  const RequestId id = params.id;
  if (!backend.queue->TrySend(std::move(item))) {
    metrics_.RecordRejected(model);
    obs::Instant(obs_, "reject:queue_full", "handler", model,
                 {{"request_id", id}});
    return ResourceExhausted("queue for " + model + " is full");
  }
  if (obs_ != nullptr) {
    backend.QueueDepthGauge(*obs_).Set(
        static_cast<double>(backend.queue->size()));
  }
  if (arrival_hook_) arrival_hook_(backend);
  SWAP_LOG(kDebug, "handler") << "accepted request " << id << " for "
                              << model;
  return channel;
}

}  // namespace swapserve::core
