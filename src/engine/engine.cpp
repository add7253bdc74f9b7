#include "engine/engine.h"

#include <algorithm>
#include <utility>

#include "sim/combinators.h"
#include "util/log.h"

namespace swapserve::engine {
namespace {

bool IsA100(const hw::GpuSpec& spec) {
  return spec.name.find("A100") != std::string::npos;
}

}  // namespace

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

InferenceEngine::InferenceEngine(const model::EngineProfile& profile,
                                 EngineEnv env, model::ModelSpec model,
                                 EngineOptions options,
                                 std::string backend_name)
    : profile_(profile),
      env_(std::move(env)),
      model_(std::move(model)),
      options_(options),
      name_(backend_name),
      container_(*env_.sim, name(), profile.boot.create_start,
                 profile.boot.entrypoint_boot),
      process_(*env_.sim, name()),
      swap_models_(IsA100(env_.gpu->spec()) ? profile.a100 : profile.h100),
      weights_loaded_(!profile.unload.has_value()) {
  SWAP_CHECK(env_.sim != nullptr && env_.gpu != nullptr &&
             env_.storage != nullptr);
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

  const sim::SimTime t0 = sim().Now();
  Status s = co_await container_.Start();
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
  Status s = container_.AdoptPaused();
  if (!s.ok()) {
    SetState(BackendState::kStopped);
    return s;
  }
  s = process_.AdoptCheckpointed();
  if (!s.ok()) {
    SetState(BackendState::kStopped);
    return s;
  }
  // The replicated checkpoint was taken after PrepareForCheckpoint on the
  // home node: replay the accounting it left behind.
  kv_arena_ = KvArenaBytes();
  sleeping_ = profile_.sleep_mode.has_value() && options_.sleep_mode;
  weights_loaded_ = true;
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
      (tp * gpu().spec().fp16_tflops * 1e12 * profile_.prefill_efficiency);
  const sim::SimTime first_token_at = sim().Now() + sim::Seconds(prefill_s);
  const sim::SimDuration ttft = first_token_at - start;

  // Decode: memory-bandwidth-bound. Each step streams the (sharded)
  // weights once; concurrent requests share the pass (continuous
  // batching), so per-request token latency stays ~constant while
  // aggregate throughput scales with the batch. One sleep covers prefill
  // and decode, ending where a prefill Delay followed by one decode Delay
  // (or one Delay per streamed chunk) would.
  const double token_s =
      static_cast<double>(model_.WeightBytes().count()) * tp_comm_derate /
      (tp * gpu().spec().hbm_bandwidth.bytes_per_sec() *
       profile_.decode_efficiency);
  sim::SimTime end = first_token_at;
  if (req.output_tokens > 0) {
    if (req.stream == nullptr) {
      end += sim::Seconds(token_s * static_cast<double>(req.output_tokens));
    } else {
      const TokenSchedule schedule{
          .first_token_at = first_token_at,
          .token_s = token_s,
          .chunk_tokens = std::max<std::int64_t>(1, req.stream_chunk_tokens),
          .total_tokens = req.output_tokens,
      };
      end = schedule.End();
      req.stream->Begin(schedule);
    }
  }
  {
    const hw::GpuDevice::BusyScope busy(gpus);
    sim::Simulation::DelayAwaiter timer = sim().WaitUntil(end);
    Sleeper sleeper{&timer, first_token_at, end, req.stream};
    const bool sleeps = timer.delay.ns() > 0;
    if (sleeps) Track(sleeper);
    co_await timer;
    // A crash unlinked every sleeper it moved.
    if (sleeps && restart_epoch_ == epoch) Untrack(sleeper);
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

sim::Task<Result<InitBreakdown>> InferenceEngine::InitializeEngine() {
  const model::InitPhases phases =
      profile_.init_phases(model_, storage().link().bandwidth());
  Result<sim::SimDuration> load = co_await LoadWeights(phases);
  if (!load.ok()) co_return load.status();

  co_await sim().Delay(phases.compile);
  co_await sim().Delay(phases.cuda_graphs);
  co_await sim().Delay(phases.other);

  // Claim the KV arena on every GPU in the tensor-parallel group.
  if (profile_.kv_utilization_cap) {
    const Bytes arena = KvArenaBytes();
    Status kv = AllocateSharded(arena, profile_.kv_purpose);
    if (!kv.ok()) co_return kv;
    kv_arena_ = arena;
  }

  co_return InitBreakdown{
      .container_start = sim::SimDuration(0),  // filled by ColdStart
      .weight_load = *load,
      .compile = phases.compile,
      .cuda_graphs = phases.cuda_graphs,
      .other = phases.setup + phases.other,
  };
}

sim::Task<Result<sim::SimDuration>> InferenceEngine::LoadWeights(
    model::InitPhases phases) {
  co_await sim().Delay(phases.setup);
  const sim::SimTime start = sim().Now();
  sim::SimDuration reported;
  switch (profile_.weight_path) {
    case model::WeightPath::kReadThenCalibrated: {
      // The physical read uses the storage link (so concurrent cold starts
      // contend); the calibrated duration covers H2D + dequant cost.
      co_await storage().ReadSharded(model_.WeightBytes(),
                                     model_.ShardCount());
      const sim::SimDuration read_time = sim().Now() - start;
      if (phases.weight_load > read_time) {
        co_await sim().Delay(phases.weight_load - read_time);
      }
      reported = phases.weight_load;
      break;
    }
    case model::WeightPath::kReadThenH2d:
      co_await storage().ReadSharded(model_.WeightBytes(),
                                     model_.ShardCount());
      co_await sim().Delay(phases.weight_load);
      reported = sim().Now() - start;
      break;
    case model::WeightPath::kPipelined: {
      // Total time is the slower of the two paths. The copy estimate is
      // queue-aware: setup latency and bytes already in flight on the H2D
      // channel delay us too.
      const sim::SimDuration h2d_time =
          gpu().pcie().h2d().EstimatedTransferTime(model_.WeightBytes());
      co_await sim::WhenAll(
          sim(),
          storage().ReadSharded(model_.WeightBytes(), model_.ShardCount()),
          sim::DelayFor(sim(), h2d_time) /* copy engine */);
      reported = sim().Now() - start;
      break;
    }
  }
  Status alloc = AllocateSharded(profile_.ResidentBytes(model_),
                                 profile_.weights_purpose);
  if (!alloc.ok()) co_return alloc;
  weights_loaded_ = true;
  co_return reported;
}

Bytes InferenceEngine::KvArenaBytes() const {
  if (!profile_.kv_utilization_cap) return Bytes(0);
  const double utilization = std::min(options_.gpu_memory_utilization,
                                      *profile_.kv_utilization_cap);
  const auto target = Bytes(static_cast<std::int64_t>(
      static_cast<double>(gpu().capacity().count()) * utilization *
      tp_degree()));
  return std::max(Bytes(0), target - model_.WeightBytes());
}

Bytes InferenceEngine::DirtyBytes() const {
  const Bytes weights =
      weights_loaded_ ? profile_.ResidentBytes(model_) : Bytes(0);
  // Asleep: only the weights hold state. Awake: the KV arena contents
  // (paged blocks + CUDA graph pools) must be checkpointed too.
  return sleeping_ ? weights : weights + kv_arena_;
}

Bytes InferenceEngine::CleanBytes() const {
  return sleeping_ ? kv_arena_ : Bytes(0);
}

sim::Task<Status> InferenceEngine::PrepareForCheckpoint() {
  if (!profile_.sleep_mode || !options_.sleep_mode || sleeping_) {
    co_return Status::Ok();
  }
  // In-flight requests have already drained (the controller write-locks
  // first).
  co_await sim().Delay(profile_.sleep_mode->sleep);
  sleeping_ = true;
  co_return Status::Ok();
}

sim::Task<Status> InferenceEngine::AfterRestore() {
  if (!sleeping_) co_return Status::Ok();
  co_await sim().Delay(profile_.sleep_mode->wake);
  sleeping_ = false;
  co_return Status::Ok();
}

sim::Task<Status> InferenceEngine::UnloadModel() {
  if (!profile_.unload) {
    co_return FailedPrecondition("unload: " + std::string(profile_.name) +
                                 " cannot unload its model");
  }
  if (state() != BackendState::kRunning) {
    co_return FailedPrecondition("unload: backend " + name() + " is " +
                                 std::string(BackendStateName(state())));
  }
  if (!weights_loaded_) co_return Status::Ok();
  if (active_requests_ > 0) {
    co_return FailedPrecondition("unload: backend " + name() +
                                 " has active requests");
  }
  co_await sim().Delay(*profile_.unload);
  for (hw::GpuDevice* dev : Gpus()) dev->FreeAllOwnedBy(name_);
  weights_loaded_ = false;
  co_return Status::Ok();
}

sim::Task<Status> InferenceEngine::LoadModel() {
  if (!profile_.unload) {
    co_return FailedPrecondition("load: " + std::string(profile_.name) +
                                 " cannot unload its model");
  }
  if (state() != BackendState::kRunning) {
    co_return FailedPrecondition("load: backend " + name() + " is " +
                                 std::string(BackendStateName(state())));
  }
  if (weights_loaded_) co_return Status::Ok();
  Result<sim::SimDuration> load = co_await LoadWeights(
      profile_.init_phases(model_, storage().link().bandwidth()));
  co_return load.status();
}

void InferenceEngine::SetState(BackendState to) {
  const bool residency_changed =
      (state_ == BackendState::kRunning) != (to == BackendState::kRunning);
  state_ = to;
  if (residency_changed && on_residency_) on_residency_();
}

void InferenceEngine::Track(Sleeper& s) {
  s.prev = sleepers_tail_;
  s.next = nullptr;
  (sleepers_tail_ != nullptr ? sleepers_tail_->next : sleepers_head_) = &s;
  sleepers_tail_ = &s;
}

void InferenceEngine::Untrack(Sleeper& s) {
  (s.prev != nullptr ? s.prev->next : sleepers_head_) = s.next;
  (s.next != nullptr ? s.next->prev : sleepers_tail_) = s.prev;
}

void InferenceEngine::MarkCrashed(std::string_view reason) {
  if (state_ == BackendState::kCrashed) return;
  // Wake every sleeping request where its epoch check used to be, before
  // anything else is queued at this instant. A crash at the prefill end
  // itself counts as before it.
  for (Sleeper* s = sleepers_head_; s != nullptr; s = s->next) {
    const sim::SimTime wake =
        s->stream != nullptr               ? s->stream->Cut()
        : sim().Now() <= s->first_token_at ? s->first_token_at
                                           : s->end;
    if (wake != s->end) sim().Reschedule(*s->timer, wake);
  }
  sleepers_head_ = sleepers_tail_ = nullptr;
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
  if (container_.state() == container::ContainerState::kPaused) {
    Status s = co_await container_.Unpause();
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
      container_.state() != container::ContainerState::kPaused) {
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
