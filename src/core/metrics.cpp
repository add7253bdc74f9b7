#include "core/metrics.h"

namespace swapserve::core {
namespace {

constexpr const char* kRequestsTotal = "swapserve_requests_total";
constexpr const char* kTtftSeconds = "swapserve_request_ttft_seconds";
constexpr const char* kLatencySeconds = "swapserve_request_latency_seconds";
constexpr const char* kSwapWaitSeconds = "swapserve_swap_wait_seconds";
constexpr const char* kOutputTokens = "swapserve_output_tokens_total";
constexpr const char* kSwapsTotal = "swapserve_swaps_total";
constexpr const char* kSwapLatency = "swapserve_swap_latency_seconds";

obs::Counter& RequestsCounter(obs::Observability& obs,
                              const std::string& model,
                              std::string_view outcome) {
  obs::Counter& counter = obs.metrics.GetCounter(
      kRequestsTotal, {{"model", model}, {"outcome", outcome}});
  // A zero count means this call created the series (and maybe the
  // family): attach the help text then, not on every request.
  if (counter.value() == 0) {
    obs.metrics.SetHelp(kRequestsTotal,
                        "Requests by model and terminal outcome");
  }
  return counter;
}

void CountRequest(obs::Observability* obs, const std::string& model,
                  std::string_view outcome) {
  if (obs == nullptr) return;
  RequestsCounter(*obs, model, outcome).Increment();
}

}  // namespace

Metrics::ModelHandle& Metrics::SwapHandle(const std::string& model) {
  auto it = models_.lower_bound(model);
  if (it == models_.end() || it->first != model) {
    it = models_.try_emplace(it, model);
    it->second.name_ = &it->first;
  }
  return it->second;
}

Metrics::ModelHandle& Metrics::Handle(const std::string& model) {
  ModelHandle& handle = SwapHandle(model);
  if (handle.samples_ == nullptr) handle.samples_ = &per_model_[model];
  return handle;
}

void Metrics::RecordCompleted(ModelHandle& model, double ttft_s,
                              double total_s, double swap_wait_s,
                              std::int64_t output_tokens) {
  ModelMetrics& mm = *model.samples_;
  ++mm.completed;
  mm.output_tokens += output_tokens;
  mm.ttft_s.Add(ttft_s);
  mm.swap_wait_s.Add(swap_wait_s);
  if (swap_wait_s > 0) {
    ++mm.served_after_swap_in;
  } else {
    ++mm.served_resident;
  }

  if (obs_ == nullptr) return;
  ModelInstruments& h = model.series_;
  if (h.requests == nullptr) {
    const obs::Labels labels = {{"model", model.model()}};
    h.requests = &RequestsCounter(*obs_, model.model(), "completed");
    h.ttft = &obs_->metrics.GetHistogram(kTtftSeconds, labels);
    h.latency = &obs_->metrics.GetHistogram(kLatencySeconds, labels);
    h.swap_wait = &obs_->metrics.GetHistogram(kSwapWaitSeconds, labels);
    h.output_tokens = &obs_->metrics.GetCounter(kOutputTokens, labels);
  }
  h.requests->Increment();
  h.ttft->Observe(ttft_s);
  h.latency->Observe(total_s);
  h.swap_wait->Observe(swap_wait_s);
  h.output_tokens->Increment(static_cast<double>(output_tokens));
}

void Metrics::RecordFailed(ModelHandle& model) {
  ++model.samples_->failed;
  if (obs_ == nullptr) return;
  if (model.series_.failed == nullptr) {
    model.series_.failed = &RequestsCounter(*obs_, model.model(), "failed");
  }
  model.series_.failed->Increment();
}

void Metrics::RecordExpired(ModelHandle& model) {
  ++model.samples_->expired;
  if (obs_ == nullptr) return;
  if (model.series_.expired == nullptr) {
    model.series_.expired = &RequestsCounter(*obs_, model.model(), "expired");
  }
  model.series_.expired->Increment();
}

void Metrics::RecordRejected(const std::string& model) {
  ++per_model_[model].rejected;
  CountRequest(obs_, model, "rejected");
}

void Metrics::RecordShed(const std::string& model,
                         std::string_view slo_class) {
  ++per_model_[model].shed;
  CountRequest(obs_, model, "shed");
  obs::IncCounter(obs_, "swapserve_admission_shed_total",
                  {{"model", model},
                   {"slo_class", slo_class.empty() ? "default" : slo_class}});
}

void Metrics::RecordSwapOut(ModelHandle& model, double latency_s,
                            bool preemption) {
  ++swap_outs;
  if (preemption) ++preemptions;
  swap_out_latency_s.Add(latency_s);
  if (obs_ == nullptr) return;
  const std::string_view trigger = preemption ? "preemption" : "explicit";
  obs::IncCounter(obs_,
                  preemption ? swaps_.out_preemption : swaps_.out_explicit,
                  kSwapsTotal, {{"direction", "out"}, {"trigger", trigger}});
  obs::Observe(obs_, model.series_.swap_out_latency, kSwapLatency,
               {{"direction", "out"}, {"model", model.model()}}, latency_s);
}

void Metrics::RecordSwapIn(ModelHandle& model, double latency_s) {
  ++swap_ins;
  swap_in_latency_s.Add(latency_s);
  if (obs_ == nullptr) return;
  obs::IncCounter(obs_, swaps_.in_demand, kSwapsTotal,
                  {{"direction", "in"}, {"trigger", "demand"}});
  obs::Observe(obs_, model.series_.swap_in_latency, kSwapLatency,
               {{"direction", "in"}, {"model", model.model()}}, latency_s);
}

void Metrics::RecordPrefetch(ModelHandle& model) {
  ++prefetches;
  obs::IncCounter(obs_, model.series_.prefetches,
                  "swapserve_prefetches_total", {{"model", model.model()}});
}

void Metrics::RecordSwapRetry(ModelHandle& model) {
  ++swap_retries;
  obs::IncCounter(obs_, model.series_.swap_retries,
                  "swapserve_swap_retries_total", {{"model", model.model()}});
}

void Metrics::RecordRequeue(ModelHandle& model) {
  ++requeues;
  obs::IncCounter(obs_, model.series_.requeues, "swapserve_requeues_total",
                  {{"model", model.model()}});
}

void Metrics::RecordRecovery(const std::string& model,
                             const std::string& kind, double latency_s) {
  ++recoveries;
  recovery_latency_s.Add(latency_s);
  obs::IncCounter(obs_, "swapserve_recovery_total",
                  {{"model", model}, {"kind", kind}});
  obs::Observe(obs_, "swapserve_recovery_seconds", {{"model", model}},
               latency_s);
}

void Metrics::RecordQuarantine(const std::string& model) {
  ++quarantines;
  obs::IncCounter(obs_, "swapserve_quarantine_total", {{"model", model}});
}

std::uint64_t Metrics::TotalCompleted() const {
  std::uint64_t total = 0;
  for (const auto& [model, m] : per_model_) total += m.completed;
  return total;
}

std::uint64_t Metrics::TotalRejected() const {
  std::uint64_t total = 0;
  for (const auto& [model, m] : per_model_) total += m.rejected;
  return total;
}

std::uint64_t Metrics::TotalShed() const {
  std::uint64_t total = 0;
  for (const auto& [model, m] : per_model_) total += m.shed;
  return total;
}

std::uint64_t Metrics::TotalFailed() const {
  std::uint64_t total = 0;
  for (const auto& [model, m] : per_model_) total += m.failed;
  return total;
}

std::uint64_t Metrics::TotalExpired() const {
  std::uint64_t total = 0;
  for (const auto& [model, m] : per_model_) total += m.expired;
  return total;
}

std::int64_t Metrics::TotalOutputTokens() const {
  std::int64_t total = 0;
  for (const auto& [model, m] : per_model_) total += m.output_tokens;
  return total;
}

Samples Metrics::AllTtft() const {
  Samples all;
  for (const auto& [model, m] : per_model_) {
    for (double v : m.ttft_s.values()) all.Add(v);
  }
  return all;
}

}  // namespace swapserve::core
