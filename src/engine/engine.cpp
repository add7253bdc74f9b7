#include "engine/engine.h"

#include <algorithm>
#include <utility>

#include "util/log.h"

namespace swapserve::engine {

std::string_view EngineKindName(EngineKind k) {
  switch (k) {
    case EngineKind::kVllm: return "vllm";
    case EngineKind::kOllama: return "ollama";
    case EngineKind::kSglang: return "sglang";
    case EngineKind::kTrtllm: return "trtllm";
  }
  return "?";
}

std::string EngineImageName(EngineKind k) {
  switch (k) {
    case EngineKind::kVllm: return "vllm/vllm-openai:v0.9.2";
    case EngineKind::kOllama: return "ollama/ollama:v0.9.6";
    case EngineKind::kSglang: return "lmsysorg/sglang:v0.4.9";
    case EngineKind::kTrtllm: return "nvcr.io/nvidia/tensorrt-llm:v1.0rc0";
  }
  return "?";
}

std::string_view BackendStateName(BackendState s) {
  switch (s) {
    case BackendState::kUninitialized: return "uninitialized";
    case BackendState::kInitializing: return "initializing";
    case BackendState::kRunning: return "running";
    case BackendState::kSwappedOut: return "swapped-out";
    case BackendState::kSwapping: return "swapping";
    case BackendState::kCrashed: return "crashed";
    case BackendState::kStopped: return "stopped";
  }
  return "?";
}

InferenceEngine::InferenceEngine(EngineKind kind, EngineEnv env,
                                 model::ModelSpec model, EngineOptions options,
                                 std::string backend_name)
    : kind_(kind),
      env_(std::move(env)),
      model_(std::move(model)),
      options_(options),
      name_(backend_name),
      process_(*env_.sim, name()),
      prefill_efficiency_(
          model::EnginePrefillEfficiency(std::string(EngineKindName(kind)))),
      decode_efficiency_(
          model::EngineDecodeEfficiency(std::string(EngineKindName(kind)))) {
  SWAP_CHECK(env_.sim != nullptr && env_.gpu != nullptr &&
             env_.storage != nullptr && env_.runtime != nullptr);
  if (env_.tp_group.empty()) {
    env_.tp_group.push_back(env_.gpu);
  } else {
    SWAP_CHECK_MSG(env_.tp_group.front() == env_.gpu,
                   "tp_group must start with the primary GPU");
  }
}

Status InferenceEngine::AllocateSharded(Bytes total,
                                        std::string_view purpose) {
  const std::span<hw::GpuDevice* const> gpus = Gpus();
  const auto n = static_cast<std::int64_t>(gpus.size());
  const Bytes per_shard(total.count() / n);
  Bytes remainder = total - per_shard * n;
  std::vector<std::pair<hw::GpuDevice*, hw::AllocationId>> done;
  for (std::size_t i = 0; i < gpus.size(); ++i) {
    Bytes shard = per_shard;
    if (i == 0) shard += remainder;
    Result<hw::AllocationId> id = gpus[i]->Allocate(name_, shard, purpose);
    if (!id.ok()) {
      for (auto& [dev, alloc] : done) SWAP_CHECK(dev->Free(alloc).ok());
      return id.status();
    }
    done.push_back({gpus[i], *id});
  }
  return Status::Ok();
}

sim::Task<Result<InitBreakdown>> InferenceEngine::ColdStart() {
  if (state_ != BackendState::kUninitialized) {
    co_return FailedPrecondition("cold start: backend " + name() + " is " +
                                 std::string(BackendStateName(state_)));
  }
  SetState(BackendState::kInitializing);

  Result<container::Container*> created =
      env_.runtime->Create(name(), EngineImageName(kind()));
  if (!created.ok()) {
    SetState(BackendState::kStopped);
    co_return created.status();
  }
  container_ = *created;

  const sim::SimTime t0 = sim().Now();
  Status s = co_await container_->Start();
  if (!s.ok()) {
    SetState(BackendState::kStopped);
    co_return s;
  }
  const sim::SimDuration container_time = sim().Now() - t0;

  Result<InitBreakdown> breakdown = co_await InitializeEngine();
  if (!breakdown.ok()) {
    SetState(BackendState::kStopped);
    co_return breakdown.status();
  }
  breakdown->container_start = container_time;
  SetState(BackendState::kRunning);
  SWAP_LOG(kInfo, "engine")
      << name_ << " cold start complete in "
      << breakdown->Total().ToString() << " ("
      << GpuResidentBytes().ToString() << " resident)";
  co_return breakdown;
}

Status InferenceEngine::AdoptCheckpoint() {
  if (state_ != BackendState::kUninitialized) {
    return FailedPrecondition("adopt: backend " + name() + " is " +
                              std::string(BackendStateName(state_)));
  }
  Result<container::Container*> created =
      env_.runtime->Create(name(), EngineImageName(kind()));
  if (!created.ok()) {
    SetState(BackendState::kStopped);
    return created.status();
  }
  container_ = *created;
  Status s = container_->AdoptPaused();
  if (!s.ok()) {
    SetState(BackendState::kStopped);
    return s;
  }
  s = process_.AdoptCheckpointed();
  if (!s.ok()) {
    SetState(BackendState::kStopped);
    return s;
  }
  AdoptEngineState();
  SetState(BackendState::kSwappedOut);
  SWAP_LOG(kInfo, "engine")
      << name_ << " adopted a replicated checkpoint ("
      << GpuResidentBytes().ToString() << " to restore)";
  return Status::Ok();
}

sim::Task<Result<GenerationResult>> InferenceEngine::Generate(
    GenerationRequest req) {
  if (state_ != BackendState::kRunning) {
    co_return Unavailable("backend " + name() + " is " +
                          std::string(BackendStateName(state_)));
  }
  SWAP_CHECK_MSG(req.prompt_tokens > 0, "empty prompt");
  ++active_requests_;
  ++total_requests_;
  // Stale-coroutine guard: if the process crashes while this request is in
  // flight, MarkCrashed bumps the epoch and zeroes active_requests_; the
  // resumed coroutine must then bail out without touching the counters.
  const std::uint64_t epoch = restart_epoch_;
  const sim::SimTime start = sim().Now();

  {
    fault::FaultDecision f = fault::Evaluate(fault_, "engine.crash", name_);
    if (!f.status.ok()) {
      MarkCrashed(f.status.message());
      co_return f.status;
    }
  }
  {
    // A hang stalls the request without burning compute until the rule's
    // stall_s elapses; a crash during the stall fails it on resume.
    fault::FaultDecision f = fault::Evaluate(fault_, "engine.hang", name_);
    if (f.stall.ns() > 0) co_await sim().Delay(f.stall);
    if (restart_epoch_ != epoch) {
      co_return Internal("backend " + name() + " crashed mid-request");
    }
  }

  // Tensor parallelism scales compute and weight-streaming bandwidth by
  // the group size, derated for all-reduce communication per layer.
  const std::span<hw::GpuDevice* const> gpus = Gpus();
  const auto tp = static_cast<double>(gpus.size());
  const double tp_comm_derate = 1.0 + 0.12 * (tp - 1.0);

  // Prefill: compute-bound. 2 * params * tokens FLOPs at a fraction of
  // the device's dense FP16 peak.
  const double prefill_flops =
      2.0 * model_.params_billion * 1e9 *
      static_cast<double>(req.prompt_tokens);
  const double prefill_s =
      prefill_flops * tp_comm_derate /
      (tp * gpu().spec().fp16_tflops * 1e12 * prefill_efficiency_);
  {
    const hw::GpuDevice::BusyScope busy(gpus);
    co_await sim().Delay(sim::Seconds(prefill_s));
  }
  if (restart_epoch_ != epoch) {
    co_return Internal("backend " + name() + " crashed mid-request");
  }
  const sim::SimDuration ttft = sim().Now() - start;

  // Decode: memory-bandwidth-bound. Each step streams the (sharded)
  // weights once; concurrent requests share the pass (continuous
  // batching), so per-request token latency stays ~constant while
  // aggregate throughput scales with the batch.
  const double token_s =
      static_cast<double>(model_.WeightBytes().count()) * tp_comm_derate /
      (tp * gpu().spec().hbm_bandwidth.bytes_per_sec() *
       decode_efficiency_);
  if (req.output_tokens > 0) {
    const hw::GpuDevice::BusyScope busy(gpus);
    if (!req.on_tokens) {
      // Non-streaming: one event for the whole decode, exactly the
      // schedule older builds produced.
      co_await sim().Delay(
          sim::Seconds(token_s * static_cast<double>(req.output_tokens)));
    } else {
      const std::int64_t chunk = std::max<std::int64_t>(
          1, req.stream_chunk_tokens);
      std::int64_t remaining = req.output_tokens;
      while (remaining > 0) {
        const std::int64_t n = std::min(chunk, remaining);
        co_await sim().Delay(sim::Seconds(token_s * static_cast<double>(n)));
        if (restart_epoch_ != epoch) {
          co_return Internal("backend " + name() + " crashed mid-request");
        }
        remaining -= n;
        req.on_tokens(n);
      }
    }
  }
  if (restart_epoch_ != epoch) {
    co_return Internal("backend " + name() + " crashed mid-request");
  }

  --active_requests_;
  co_return GenerationResult{
      .prompt_tokens = req.prompt_tokens,
      .output_tokens = req.output_tokens,
      .time_to_first_token = ttft,
      .total_time = sim().Now() - start,
  };
}

void InferenceEngine::SetState(BackendState to) {
  const bool residency_changed =
      (state_ == BackendState::kRunning) != (to == BackendState::kRunning);
  state_ = to;
  if (residency_changed && on_residency_) on_residency_();
}

void InferenceEngine::MarkCrashed(std::string_view reason) {
  if (state_ == BackendState::kCrashed) return;
  // The driver releases every device allocation of a dead process.
  Bytes freed(0);
  for (hw::GpuDevice* dev : Gpus()) freed += dev->FreeAllOwnedBy(name_);
  process_.ResetAfterCrash();
  SetState(BackendState::kCrashed);
  active_requests_ = 0;
  ++restart_epoch_;
  ++crash_count_;
  SWAP_LOG(kWarning, "engine")
      << name_ << " crashed (" << reason << "); driver released "
      << freed.ToString() << ", epoch " << restart_epoch_;
}

sim::Task<Result<InitBreakdown>> InferenceEngine::Restart() {
  if (state_ != BackendState::kCrashed) {
    co_return FailedPrecondition("restart: backend " + name() + " is " +
                                 std::string(BackendStateName(state_)));
  }
  SWAP_CHECK(container_ != nullptr);
  SetState(BackendState::kInitializing);
  // engine.restart: the replacement process can itself fail to come up
  // (bad node, wedged driver); repeated failures trip the breaker.
  fault::FaultDecision f = fault::Evaluate(fault_, "engine.restart", name_);
  if (f.stall.ns() > 0) co_await sim().Delay(f.stall);
  if (state_ != BackendState::kInitializing) {
    // An external MarkCrashed (node power loss) landed mid-restart; leave
    // the crashed state alone for whoever owns recovery now.
    co_return Unavailable("restart: " + name() + " crashed mid-restart");
  }
  if (!f.status.ok()) {
    SetState(BackendState::kCrashed);
    co_return f.status;
  }
  // A crash while swapped out leaves the cgroup frozen; thaw it so the
  // replacement process can boot.
  if (container_->state() == container::ContainerState::kPaused) {
    Status s = co_await container_->Unpause();
    if (state_ != BackendState::kInitializing) {
      co_return Unavailable("restart: " + name() + " crashed mid-restart");
    }
    if (!s.ok()) {
      SetState(BackendState::kCrashed);
      co_return s;
    }
  }
  Result<InitBreakdown> breakdown = co_await InitializeEngine();
  if (state_ != BackendState::kInitializing) {
    // Crashed again mid-boot; release whatever the aborted initialization
    // claimed after the crash handler's sweep.
    for (hw::GpuDevice* dev : Gpus()) dev->FreeAllOwnedBy(name_);
    co_return Unavailable("restart: " + name() + " crashed mid-restart");
  }
  if (!breakdown.ok()) {
    // Initialization may have died after claiming some device memory
    // (e.g. weights landed, KV-arena allocation failed); release it so a
    // retry starts from a clean slate.
    for (hw::GpuDevice* dev : Gpus()) dev->FreeAllOwnedBy(name_);
    SetState(BackendState::kCrashed);
    co_return breakdown.status();
  }
  SetState(BackendState::kRunning);
  SWAP_LOG(kInfo, "engine")
      << name_ << " restarted after crash in "
      << breakdown->Total().ToString() << " ("
      << GpuResidentBytes().ToString() << " resident)";
  co_return breakdown;
}

Status InferenceEngine::ReadoptCheckpoint() {
  if (state_ != BackendState::kCrashed ||
      container_->state() != container::ContainerState::kPaused) {
    return FailedPrecondition("readopt: backend " + name() + " is " +
                              std::string(BackendStateName(state_)));
  }
  SWAP_RETURN_IF_ERROR(process_.AdoptCheckpointed());
  SetState(BackendState::kSwappedOut);
  return Status::Ok();
}

Status InferenceEngine::MarkSwapping() {
  if (state_ != BackendState::kRunning &&
      state_ != BackendState::kSwappedOut) {
    return FailedPrecondition("swap: backend " + name() + " is " +
                              std::string(BackendStateName(state_)));
  }
  SetState(BackendState::kSwapping);
  return Status::Ok();
}

Status InferenceEngine::MarkSwappedOut() {
  if (state_ != BackendState::kSwapping) {
    return FailedPrecondition("mark swapped-out: backend " + name() + " is " +
                              std::string(BackendStateName(state_)));
  }
  SetState(BackendState::kSwappedOut);
  return Status::Ok();
}

Status InferenceEngine::MarkRunning() {
  if (state_ != BackendState::kSwapping) {
    return FailedPrecondition("mark running: backend " + name() + " is " +
                              std::string(BackendStateName(state_)));
  }
  SetState(BackendState::kRunning);
  return Status::Ok();
}

}  // namespace swapserve::engine
