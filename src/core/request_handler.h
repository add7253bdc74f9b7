// The request handler (§3.1 circle 2, §4.1): accepts validated requests,
// creates the response channel, stamps metadata, updates the backend's
// last-accessed time, and enqueues to the model-specific queue with
// capacity-based admission control.

#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "core/admission.h"
#include "core/backend.h"
#include "core/config.h"
#include "core/metrics.h"
#include "core/types.h"
#include "fault/fault_injector.h"
#include "sim/simulation.h"
#include "util/status.h"

namespace swapserve::core {

// NOT_FOUND for a model no backend serves.
Status ModelNotServed(std::string_view model);

class RequestHandler {
 public:
  RequestHandler(sim::Simulation& sim, GlobalConfig global, Metrics& metrics)
      : sim_(sim), global_(std::move(global)), metrics_(metrics) {}

  void RegisterBackend(Backend* backend);
  Backend* FindBackend(std::string_view model_id);

  // Accept an already-validated request: returns the response channel the
  // caller streams from, or RESOURCE_EXHAUSTED when the backend queue is
  // full (HTTP 429 in the real system). The request's names are read here
  // and nowhere later: only its RequestParams are queued.
  [[nodiscard]] Result<ResponseChannelPtr> Accept(
      const InferenceRequest& request);
  // The same for a request already routed to `backend`; request.model is
  // not read.
  [[nodiscard]] Result<ResponseChannelPtr> Accept(
      Backend& backend, const InferenceRequest& request);

  RequestId NextRequestId() { return next_request_id_++; }
  const GlobalConfig& global() const { return global_; }
  const std::map<std::string, Backend*, std::less<>>& backends() const {
    return backends_;
  }

  // Emit admission instants + per-model queue-depth gauges (nullable).
  void BindObservability(obs::Observability* obs) {
    obs_ = obs;
    for (auto& [name, backend] : backends_) {
      backend->queue_depth_gauge = nullptr;
    }
  }

  // SLO-aware admission control (nullable; §16). When bound, Accept()
  // sheds requests whose estimated queueing delay exceeds their SLO-class
  // budget before they touch the queue.
  void BindAdmission(AdmissionController* admission) {
    admission_ = admission;
  }
  // Chaos hook for the "request.admit" fault point (nullable; fail-only —
  // Accept is synchronous, stalls are ignored). Only consulted when an
  // admission controller is bound.
  void BindFaultInjector(fault::FaultInjector* injector) {
    fault_ = injector;
  }

  // Fired after a request is queued for a backend — the earliest demand
  // signal, used to start promoting a demoted snapshot before the
  // scheduler even looks at the backend.
  void SetArrivalHook(std::function<void(Backend&)> hook) {
    arrival_hook_ = std::move(hook);
  }

 private:
  obs::Observability* obs_ = nullptr;
  AdmissionController* admission_ = nullptr;
  fault::FaultInjector* fault_ = nullptr;
  sim::Simulation& sim_;
  GlobalConfig global_;
  Metrics& metrics_;
  std::function<void(Backend&)> arrival_hook_;
  RequestId next_request_id_ = 1;
  std::map<std::string, Backend*, std::less<>> backends_;
};

}  // namespace swapserve::core
