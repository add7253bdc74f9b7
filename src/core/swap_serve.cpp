#include "core/swap_serve.h"

#include <algorithm>
#include <utility>

#include "core/sse.h"
#include "engine/factory.h"
#include "util/log.h"

namespace swapserve::core {
namespace {

// Swap-in retries and request requeues share one backoff shape derived
// from the recovery config.
fault::RetryPolicy MakeRetryPolicy(const RecoveryConfig& recovery) {
  fault::RetryPolicy policy;
  policy.max_attempts = recovery.swap_retry_attempts;
  policy.initial_backoff = sim::Seconds(recovery.backoff_initial_s);
  policy.max_backoff = sim::Seconds(recovery.backoff_max_s);
  return policy;
}

// Per-component retry seeds derive from the fault seed, so one config knob
// reproduces the whole chaos run (and fault-free runs never draw).
std::uint64_t DeriveSeed(std::uint64_t seed, std::string_view component) {
  return fault::StableHashCombine(seed, fault::StableHash(component));
}

// Every snapshot path runs through the NVMe-backed tier, so a server
// cannot be built without a storage device.
hw::StorageDevice& RequireStorage(const Hardware& hardware) {
  SWAP_CHECK(hardware.storage != nullptr);
  return *hardware.storage;
}

}  // namespace

SwapServe::SwapServe(sim::Simulation& sim, Config config,
                     const model::ModelCatalog& catalog, Hardware hardware,
                     SwapServeOptions options)
    : sim_(sim),
      config_(std::move(config)),
      hardware_(hardware),
      options_(options),
      obs_(sim),
      fault_injector_(sim, config_.fault.seed),
      snapshot_store_(GiB(config_.global.snapshot_budget_gib)),
      tier_manager_(sim, snapshot_store_, RequireStorage(hardware_),
                    ckpt::SnapshotTierManager::Options{
                        .host_capacity = MiB(config_.global.host_cache_mib)}),
      ckpt_engine_(sim, snapshot_store_, tier_manager_),
      task_manager_(sim, hardware_.gpus),
      controller_(sim, ckpt_engine_, task_manager_, metrics_,
                  options.preemption_policy),
      scheduler_(sim, task_manager_, controller_),
      handler_(sim, config_.global, metrics_),
      router_(handler_),
      admin_(sim, scheduler_, controller_, metrics_) {
  SWAP_CHECK(hardware_.runtime != nullptr);
  SWAP_CHECK_MSG(
      config_.Validate(catalog, static_cast<int>(hardware_.gpus.size()))
          .ok(),
      "SwapServe constructed with invalid config; call Config::Validate");
  task_manager_.set_delegate(&controller_);
  scheduler_.ConfigureRecovery(MakeRetryPolicy(config_.recovery),
                               DeriveSeed(config_.fault.seed, "scheduler"));
  scheduler_.BindMetrics(&metrics_);

  // Fault injection: the injector is always constructed and bound (an
  // unarmed one never draws from its stream, so fault-free runs are
  // byte-identical), and armed only when the config carries rules.
  if (config_.fault.enabled()) {
    fault_injector_.Configure(config_.fault.plan);
  }
  fault_injector_.BindObservability(&obs_);

  // SLO-aware admission (§16): the controller only exists when enabled, so
  // default configs never consult it and stay byte-identical. The fault
  // injector hook ("request.admit") is likewise only evaluated when an
  // admission controller is bound.
  if (config_.admission.enabled) {
    admission_ = std::make_unique<AdmissionController>(config_.admission);
    handler_.BindAdmission(admission_.get());
    handler_.BindFaultInjector(&fault_injector_);
  }
  snapshot_store_.BindFaultInjector(&fault_injector_);
  tier_manager_.BindFaultInjector(&fault_injector_);
  ckpt_engine_.BindFaultInjector(&fault_injector_);
  for (hw::GpuDevice* gpu : hardware_.gpus) {
    gpu->BindFaultInjector(&fault_injector_);
  }

  // One Observability threads through every layer; components stay usable
  // without it (tests construct them directly).
  metrics_.BindObservability(&obs_);
  snapshot_store_.BindObservability(&obs_);
  tier_manager_.BindObservability(&obs_);
  ckpt_engine_.BindObservability(&obs_);
  task_manager_.BindObservability(&obs_);
  controller_.BindObservability(&obs_);
  scheduler_.BindObservability(&obs_);
  handler_.BindObservability(&obs_);
  router_.BindObservability(&obs_);
  admin_.set_observability(&obs_);
  for (hw::GpuDevice* gpu : hardware_.gpus) gpu->BindObservability(&obs_);
  hardware_.storage->BindObservability(&obs_);

  for (const ModelEntry& entry : config_.models) {
    model::ModelSpec spec = catalog.Find(entry.model_id).value();
    engine::EngineEnv env{
        .sim = &sim_,
        .gpu = hardware_.gpus[static_cast<std::size_t>(entry.gpu)],
        .storage = hardware_.storage,
        .runtime = hardware_.runtime,
        .tp_group = {},
    };
    if (entry.tp > 1) {
      for (int i = 0; i < entry.tp; ++i) {
        env.tp_group.push_back(
            hardware_.gpus[static_cast<std::size_t>(entry.gpu + i)]);
      }
    }
    engine::EngineOptions eng_options{
        .gpu_memory_utilization = entry.gpu_memory_utilization,
        .sleep_mode = entry.sleep_mode,
        .enforce_eager = false,
    };
    const engine::EngineKind kind =
        engine::ParseEngineKind(entry.engine).value();
    auto backend = std::make_unique<Backend>(
        sim_, entry, spec,
        engine::CreateEngine(kind, env, spec, eng_options, entry.model_id),
        config_.global.queue_capacity, config_.recovery);
    backend->engine->BindFaultInjector(&fault_injector_);
    backend->breaker.BindObservability(&obs_, entry.model_id);
    controller_.RegisterBackend(backend.get());
    handler_.RegisterBackend(backend.get());
    backends_.push_back(std::move(backend));
  }

  // Demand-aware prefetch promotes demoted snapshots; an unbounded tier
  // never demotes, so there it issues nothing.
  if (config_.global.snapshot_prefetch) {
    prefetcher_ = std::make_unique<SnapshotPrefetcher>(
        tier_manager_, handler_.backends(), metrics_);
    handler_.SetArrivalHook(
        [this](Backend& b) { prefetcher_->NoteArrival(b); });
    scheduler_.SetPrefetchHook(
        [this](Backend& b) { prefetcher_->NoteSwapInStart(b); });
  }

  monitor_ = std::make_unique<hw::GpuMonitor>(
      sim_, hardware_.gpus, sim::Seconds(config_.global.monitor_interval_s));
  monitor_->BindObservability(&obs_);
}

sim::Task<Status> SwapServe::Initialize() {
  if (initialized_) co_return FailedPrecondition("already initialized");

  // §3.2: bring each backend up in turn — cold start (container + engine +
  // model), snapshot, leave paused. Sequential by design: large backends
  // (vLLM claims ~72 GB) cannot co-initialize on one GPU.
  for (const std::unique_ptr<Backend>& backend : backends_) {
    if (backend->config.standby) {
      // Cluster standby: no cold start here — adopt the checkpoint the
      // replicator installs (container paused, process checkpointed,
      // kSwappedOut). Snapshot metadata arrives via the cluster layer.
      SWAP_CO_RETURN_IF_ERROR(backend->engine->AdoptCheckpoint());
      SWAP_LOG(kInfo, "swapserve")
          << backend->name() << " brought up as a standby replica";
      continue;
    }
    const sim::SimTime t0 = sim_.Now();
    // Claim the whole device group while this backend initializes.
    std::vector<TaskManager::Reservation> reservations;
    for (hw::GpuId id : backend->GpuIds()) {
      Result<TaskManager::Reservation> reservation =
          co_await task_manager_.Reserve(
              id, hardware_.gpus[static_cast<std::size_t>(id)]->capacity(),
              backend->owner());
      if (!reservation.ok()) co_return reservation.status();
      reservations.push_back(std::move(*reservation));
    }

    Result<engine::InitBreakdown> breakdown =
        co_await backend->engine->ColdStart();
    reservations.clear();
    if (!breakdown.ok()) co_return breakdown.status();
    if ((sim_.Now() - t0).ToSeconds() > backend->config.init_timeout_s) {
      co_return DeadlineExceeded(
          "initialization of " + backend->name() + " took " +
          (sim_.Now() - t0).ToString() + " (timeout " +
          std::to_string(backend->config.init_timeout_s) + "s)");
    }

    if (!options_.keep_resident_after_init) {
      SWAP_CO_RETURN_IF_ERROR(
          co_await controller_.SwapOut(*backend, /*preemption=*/false));
    }
    SWAP_LOG(kInfo, "swapserve")
        << backend->name() << " initialized in "
        << breakdown->Total().ToString() << " and "
        << (options_.keep_resident_after_init ? "kept resident"
                                              : "snapshotted");
  }

  for (const std::unique_ptr<Backend>& backend : backends_) {
    workers_.push_back(std::make_unique<ModelWorker>(
        sim_, *backend, scheduler_, metrics_));
    workers_.back()->BindObservability(&obs_);
    workers_.back()->ConfigureRecovery(
        MakeRetryPolicy(config_.recovery),
        config_.recovery.request_retry_attempts,
        DeriveSeed(config_.fault.seed, "worker." + backend->name()));
    workers_.back()->ConfigureStreaming(config_.global.stream_tokens,
                                        config_.global.stream_chunk_tokens);
    workers_.back()->BindAdmission(admission_.get());
    workers_.back()->Start();
  }
  monitor_->Start();
  if (config_.global.idle_swap_out_s > 0) {
    idle_reaper_ = std::make_unique<IdleReaper>(
        sim_, controller_, sim::Seconds(config_.global.idle_swap_out_s),
        sim::Seconds(std::max(1.0, config_.global.idle_swap_out_s / 4)));
    idle_reaper_->Start();
  }
  initialized_ = true;
  co_return Status::Ok();
}

void SwapServe::PauseWorkers() {
  for (const std::unique_ptr<ModelWorker>& w : workers_) w->Pause();
}

void SwapServe::ResumeWorkers() {
  for (const std::unique_ptr<ModelWorker>& w : workers_) w->Resume();
}

void SwapServe::Shutdown() {
  for (const std::unique_ptr<Backend>& backend : backends_) {
    backend->queue->Close();
  }
  monitor_->Stop();
  if (idle_reaper_ != nullptr) idle_reaper_->Stop();
}

namespace {

// Fold one response chunk into the caller's summary; an error chunk's text
// is read from its channel.
void Fold(const ResponseChunk& chunk, const ResponseChannel& channel,
          ChatResult& result) {
  switch (chunk.kind) {
    case ResponseChunk::Kind::kFirstToken:
    case ResponseChunk::Kind::kTokens:
      result.output_tokens += chunk.token_count;
      break;
    case ResponseChunk::Kind::kDone:
      result.ok = true;
      result.ttft_s = chunk.ttft_s;
      result.total_s = chunk.total_s;
      result.swap_wait_s = chunk.swap_wait_s;
      break;
    case ResponseChunk::Kind::kError:
      result.ok = false;
      result.error = channel.error;
      break;
  }
}

}  // namespace

ChatResult Refused(const Status& status) {
  ChatResult failed;
  failed.ok = false;
  failed.error = status.ToString();
  return failed;
}

sim::Task<ChatResult> Ready(ChatResult result) { co_return result; }

sim::Task<ChatResult> SwapServe::CollectResponse(ResponseChannelPtr channel) {
  ChatResult result;
  while (std::optional<ResponseChunk> chunk = co_await channel->Recv()) {
    Fold(*chunk, *channel, result);
  }
  co_return result;
}

// swaplint-ok(coro-ref-param): not a coroutine; the name is resolved before the task exists
sim::Task<ChatResult> SwapServe::ChatAndWait(std::string_view model_id,
                                             std::int64_t prompt_tokens,
                                             std::int64_t max_tokens) {
  Backend* backend = handler_.FindBackend(model_id);
  if (backend == nullptr) return Ready(Refused(ModelNotServed(model_id)));
  return ServeAndWait(*backend, prompt_tokens, max_tokens);
}

// swaplint-ok(coro-ref-param): backends live as long as their SwapServe
sim::Task<ChatResult> SwapServe::ServeAndWait(Backend& backend,
                                              std::int64_t prompt_tokens,
                                              std::int64_t max_tokens) {
  InferenceRequest request;
  request.prompt_tokens = prompt_tokens;
  request.max_tokens = max_tokens;
  Result<ResponseChannelPtr> channel = handler_.Accept(backend, request);
  if (!channel.ok()) co_return Refused(channel.status());
  // CollectResponse's loop, on this frame: no second coroutine to start
  // and no second hand-off of the result.
  ChatResult result;
  while (std::optional<ResponseChunk> chunk = co_await (*channel)->Recv()) {
    Fold(*chunk, **channel, result);
  }
  co_return result;
}

// swaplint-ok(coro-ref-param): sse_events is caller-owned; awaited to completion before read
sim::Task<ChatResult> SwapServe::ChatAndStream(
    std::string model_id, std::int64_t prompt_tokens,
    std::int64_t max_tokens, std::vector<std::string>* sse_events) {
  InferenceRequest request;
  request.model = model_id;
  request.prompt_tokens = prompt_tokens;
  request.max_tokens = max_tokens;
  request.stream = true;
  request.id = handler_.NextRequestId();
  SseEncoder encoder(request.id, model_id);
  Result<ResponseChannelPtr> channel = handler_.Accept(request);
  if (!channel.ok()) co_return Refused(channel.status());
  const ResponseChannel& stream = **channel;
  ChatResult result;
  while (std::optional<ResponseChunk> chunk = co_await (*channel)->Recv()) {
    if (sse_events != nullptr) {
      sse_events->push_back(encoder.Encode(*chunk, stream.error));
    }
    Fold(*chunk, stream, result);
  }
  if (sse_events != nullptr) sse_events->push_back(SseEncoder::Done());
  co_return result;
}

Backend* SwapServe::backend(const std::string& model_id) {
  for (const std::unique_ptr<Backend>& b : backends_) {
    if (b->name() == model_id) return b.get();
  }
  return nullptr;
}

std::vector<Backend*> SwapServe::backends() {
  std::vector<Backend*> out;
  out.reserve(backends_.size());
  for (const std::unique_ptr<Backend>& b : backends_) out.push_back(b.get());
  return out;
}

std::size_t SwapServe::InFlight() const {
  std::size_t total = 0;
  for (const std::unique_ptr<Backend>& b : backends_) {
    total += b->queue->size();
  }
  for (const std::unique_ptr<ModelWorker>& w : workers_) {
    total += static_cast<std::size_t>(w->active_relays());
  }
  return total;
}

}  // namespace swapserve::core
