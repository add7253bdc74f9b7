#include "core/engine_controller.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "util/log.h"

namespace swapserve::core {

std::string_view PreemptionPolicyName(PreemptionPolicy p) {
  switch (p) {
    case PreemptionPolicy::kDemandAware: return "demand-aware";
    case PreemptionPolicy::kLruOnly: return "lru-only";
    case PreemptionPolicy::kRandom: return "random";
    case PreemptionPolicy::kLargestFirst: return "largest-first";
  }
  return "?";
}

EngineController::EngineController(sim::Simulation& sim,
                                   ckpt::CheckpointEngine& ckpt,
                                   TaskManager& task_manager,
                                   Metrics& metrics, PreemptionPolicy policy,
                                   std::uint64_t seed)
    : sim_(sim),
      ckpt_(ckpt),
      task_manager_(task_manager),
      metrics_(metrics),
      policy_(policy),
      rng_(seed) {}

void EngineController::RegisterBackend(Backend* backend) {
  SWAP_CHECK(backend != nullptr);
  backends_.push_back(backend);
  backend->engine->BindCrashSignal(&crash_signal_);
}

// swaplint-ok(coro-ref-param): backend outlives the frame (registered)
sim::Task<Status> EngineController::SwapOut(Backend& backend,
                                            bool preemption) {
  // Write-lock: stops new forwarding and waits for in-flight requests.
  auto exclusive = co_await backend.lock.AcquireExclusive();
  if (backend.engine->state() != engine::BackendState::kRunning) {
    co_return Status::Ok();  // lost the race; already out
  }
  const sim::SimTime start = sim_.Now();
  obs::Span span =
      obs::StartSpan(obs_, "controller.swap_out", "controller",
                     backend.name());
  span.AddArg("trigger", preemption ? "preemption" : "explicit");
  SWAP_CO_RETURN_IF_ERROR(backend.engine->MarkSwapping());

  // Engine-specific optimization (vLLM sleep) shrinks the dirty set.
  Status prep = co_await backend.engine->PrepareForCheckpoint();
  if (backend.engine->state() == engine::BackendState::kCrashed) {
    // A node crash (power loss) marked the engine crashed while we were
    // suspended; the state machine no longer belongs to this swap.
    co_return Unavailable("swap-out " + backend.name() +
                          " aborted: engine crashed mid-swap");
  }
  if (!prep.ok()) {
    SWAP_CHECK(backend.engine->MarkRunning().ok());
    co_return prep;
  }

  ckpt::SwapOutRequest req{
      .container = backend.engine->container(),
      .process = &backend.engine->process(),
      .gpu = nullptr,
      .gpus = backend.engine->Gpus(),
      .owner = backend.name(),
      .clean_bytes = backend.engine->CleanBytes(),
      .dirty_bytes = backend.engine->DirtyBytes(),
      .checkpoint = backend.engine->CheckpointCharacteristics(),
      .restore = backend.engine->RestoreCharacteristics(),
  };
  const Bytes resident = req.clean_bytes + req.dirty_bytes;
  std::optional<Result<ckpt::SwapOutResult>> out;
  if (pipeline_.enabled) {
    out = co_await RunPipelinedSwapOut(req, nullptr);
  } else {
    out = co_await ckpt_.SwapOut(req);
  }
  Result<ckpt::SwapOutResult>& result = *out;
  if (backend.engine->state() == engine::BackendState::kCrashed) {
    // The machine died mid-checkpoint: any bytes that landed are torn, so
    // the snapshot must not survive as a phantom copy.
    if (result.ok()) {
      SWAP_WARN_IF_ERROR(ckpt_.DropSnapshot(result->snapshot), "controller");
    }
    co_return Unavailable("swap-out " + backend.name() +
                          " aborted: engine crashed mid-swap");
  }
  if (!result.ok()) {
    SWAP_CHECK(backend.engine->MarkRunning().ok());
    co_return result.status();
  }

  backend.snapshot = result->snapshot;
  backend.has_snapshot = true;
  backend.resident_bytes = resident;
  SWAP_CHECK(backend.engine->MarkSwappedOut().ok());

  metrics_.RecordSwapOut(backend.name(), (sim_.Now() - start).ToSeconds(),
                         preemption);
  for (hw::GpuId id : backend.GpuIds()) {
    task_manager_.NotifyMemoryReleased(id);
  }
  SWAP_LOG(kInfo, "controller")
      << "swapped out " << backend.name() << " (" << resident.ToString()
      << (preemption ? ", preempted)" : ")");
  co_return Status::Ok();
}

// swaplint-ok(coro-ref-param): backend outlives the frame (registered)
sim::Task<Status> EngineController::SwapIn(Backend& backend) {
  auto exclusive = co_await backend.lock.AcquireExclusive();
  if (backend.engine->state() == engine::BackendState::kRunning) {
    co_return Status::Ok();
  }
  if (!backend.has_snapshot) {
    co_return FailedPrecondition("swap-in " + backend.name() +
                                 ": no snapshot");
  }
  const sim::SimTime start = sim_.Now();
  obs::Span span = obs::StartSpan(obs_, "controller.swap_in", "controller",
                                  backend.name());
  SWAP_CO_RETURN_IF_ERROR(backend.engine->MarkSwapping());

  Result<ckpt::SwapInResult> result = co_await ckpt_.SwapIn(
      backend.snapshot, *backend.engine->container(),
      backend.engine->process(), backend.engine->Gpus());
  if (backend.engine->state() == engine::BackendState::kCrashed) {
    // A node crash landed while the restore was on the wire. A restore
    // that technically finished still consumed the checkpoint handle.
    if (result.ok()) {
      backend.has_snapshot = false;
      backend.snapshot = 0;
    }
    co_return Unavailable("swap-in " + backend.name() +
                          " aborted: engine crashed mid-restore");
  }
  if (!result.ok()) {
    if (result.status().code() == StatusCode::kDataLoss) {
      co_return co_await ColdRestoreFallback(backend, result.status());
    }
    SWAP_CHECK(backend.engine->MarkSwappedOut().ok());
    co_return result.status();
  }
  backend.has_snapshot = false;
  backend.snapshot = 0;

  Status after = co_await backend.engine->AfterRestore();
  if (backend.engine->state() == engine::BackendState::kCrashed) {
    co_return Unavailable("swap-in " + backend.name() +
                          " aborted: engine crashed mid-restore");
  }
  if (!after.ok()) co_return after;
  SWAP_CHECK(backend.engine->MarkRunning().ok());
  backend.health.last_resident = sim_.Now();

  metrics_.RecordSwapIn(backend.name(), (sim_.Now() - start).ToSeconds());
  SWAP_LOG(kInfo, "controller")
      << "swapped in " << backend.name() << " in "
      << (sim_.Now() - start).ToString();
  co_return Status::Ok();
}

// swaplint-ok(coro-ref-param): backend outlives the frame (registered)
sim::Task<Status> EngineController::ColdRestoreFallback(Backend& backend,
                                                        Status cause) {
  const sim::SimTime start = sim_.Now();
  SWAP_LOG(kWarning, "controller")
      << "snapshot of " << backend.name()
      << " is corrupt; falling back to cold start: " << cause;
  obs::Instant(obs_, "cold_fallback:" + backend.name(), "controller",
               backend.name(), {{"cause", cause.message()}});
  SWAP_WARN_IF_ERROR(ckpt_.DropSnapshot(backend.snapshot), "controller");
  backend.has_snapshot = false;
  backend.snapshot = 0;
  // The checkpointed process can never be resumed; declare it dead so the
  // checkpoint handle and state machine reset, then rebuild in-place.
  backend.engine->MarkCrashed("corrupt snapshot: " + cause.message());
  Result<engine::InitBreakdown> restart = co_await backend.engine->Restart();
  if (!restart.ok()) {
    // Backend stays kCrashed; the supervisor takes over from here.
    co_return restart.status();
  }
  backend.health.last_resident = sim_.Now();
  metrics_.RecordRecovery(backend.name(), "cold_fallback",
                          (sim_.Now() - start).ToSeconds());
  SWAP_LOG(kInfo, "controller")
      << backend.name() << " rebuilt from cold start in "
      << (sim_.Now() - start).ToString();
  co_return Status::Ok();
}

sim::Task<Result<ckpt::SwapOutResult>> EngineController::RunPipelinedSwapOut(
    ckpt::SwapOutRequest req, std::function<void()> on_staged) {
  // Announce what this eviction will free so a head reservation that does
  // not fit waits for the chunked frees instead of failing.
  std::map<hw::GpuId, Bytes> announced;
  for (hw::GpuDevice* gpu : req.gpus) {
    const Bytes b = gpu->UsedBy(req.owner);
    announced[gpu->id()] = b;
    task_manager_.AnnouncePendingRelease(gpu->id(), b);
  }
  ckpt::SwapOutPipeline pipe;
  pipe.chunk_bytes = pipeline_.chunk_bytes;
  pipe.priority = hw::TransferPriority::kBackground;
  pipe.on_staged = std::move(on_staged);
  pipe.on_freed = [this, &announced](hw::GpuId gpu, Bytes b) {
    const Bytes credit = std::min(announced[gpu], b);
    announced[gpu] -= credit;
    task_manager_.NotifyMemoryReleased(gpu, credit);
  };
  Result<ckpt::SwapOutResult> result =
      co_await ckpt_.SwapOut(std::move(req), std::move(pipe));
  // Balance the announcement: anything not freed (failure before the commit
  // point) is withdrawn so waiting heads do not hang on a dead promise.
  for (auto& [gpu, left] : announced) {
    if (left.count() > 0) task_manager_.WithdrawPendingRelease(gpu, left);
  }
  co_return result;
}

ckpt::SwapInPipeline EngineController::MakeGatedSwapInPipeline(
    std::map<hw::GpuId, std::vector<TaskManager::Reservation>>& held) {
  ckpt::SwapInPipeline pipe;
  pipe.chunk_bytes = pipeline_.chunk_bytes;
  pipe.priority = hw::TransferPriority::kUrgent;
  pipe.acquire = [this, &held](hw::GpuId gpu,
                               Bytes bytes) -> sim::Task<Status> {
    Result<TaskManager::Reservation> r =
        co_await task_manager_.Reserve(gpu, bytes, "swap-in-chunk");
    if (!r.ok()) co_return r.status();
    held[gpu].push_back(std::move(*r));
    co_return Status::Ok();
  };
  // Called right after the chunk's device allocation, same event: the
  // reservation's bytes are handed over with no window in between.
  pipe.release = [&held](hw::GpuId gpu, Bytes /*bytes*/) {
    std::vector<TaskManager::Reservation>& v = held[gpu];
    SWAP_CHECK_MSG(!v.empty(), "chunk release without reservation");
    v.back().Release();
    v.pop_back();
  };
  return pipe;
}

// swaplint-ok(coro-ref-param): backend outlives the frame (registered)
sim::Task<Status> EngineController::PipelinedSwapIn(Backend& backend) {
  if (!pipeline_.enabled) {
    co_return FailedPrecondition("pipelined swap is disabled");
  }
  auto exclusive = co_await backend.lock.AcquireExclusive();
  if (backend.engine->state() == engine::BackendState::kRunning) {
    co_return Status::Ok();
  }
  if (!backend.has_snapshot) {
    co_return FailedPrecondition("swap-in " + backend.name() +
                                 ": no snapshot");
  }
  const sim::SimTime start = sim_.Now();
  obs::Span span = obs::StartSpan(obs_, "controller.swap_in", "controller",
                                  backend.name());
  span.AddArg("mode", "pipelined");
  SWAP_CO_RETURN_IF_ERROR(backend.engine->MarkSwapping());

  std::map<hw::GpuId, std::vector<TaskManager::Reservation>> held;
  Result<ckpt::SwapInResult> result = co_await ckpt_.SwapIn(
      backend.snapshot, *backend.engine->container(),
      backend.engine->process(), backend.engine->Gpus(),
      MakeGatedSwapInPipeline(held));
  held.clear();  // abort path may leave granted-but-unused reservations
  if (backend.engine->state() == engine::BackendState::kCrashed) {
    if (result.ok()) {
      backend.has_snapshot = false;
      backend.snapshot = 0;
    }
    co_return Unavailable("swap-in " + backend.name() +
                          " aborted: engine crashed mid-restore");
  }
  if (!result.ok()) {
    if (result.status().code() == StatusCode::kDataLoss) {
      co_return co_await ColdRestoreFallback(backend, result.status());
    }
    SWAP_CHECK(backend.engine->MarkSwappedOut().ok());
    co_return result.status();
  }
  backend.has_snapshot = false;
  backend.snapshot = 0;

  Status after = co_await backend.engine->AfterRestore();
  if (backend.engine->state() == engine::BackendState::kCrashed) {
    co_return Unavailable("swap-in " + backend.name() +
                          " aborted: engine crashed mid-restore");
  }
  if (!after.ok()) co_return after;
  SWAP_CHECK(backend.engine->MarkRunning().ok());
  backend.health.last_resident = sim_.Now();

  metrics_.RecordSwapIn(backend.name(), (sim_.Now() - start).ToSeconds());
  obs::Observe(obs_, "swapserve_pipeline_stall_seconds",
               {{"model", backend.name()}}, result->stall.ToSeconds());
  SWAP_LOG(kInfo, "controller")
      << "swapped in " << backend.name() << " (pipelined) in "
      << (sim_.Now() - start).ToString() << ", stalled "
      << result->stall.ToString();
  co_return Status::Ok();
}

// swaplint-ok(coro-ref-param): backend outlives the frame (registered)
sim::Task<Result<SwapOverResult>> EngineController::SwapOver(Backend& out,
                                                             Backend& in) {
  if (!pipeline_.enabled) {
    co_return FailedPrecondition("swap-over requires pipelined swap");
  }
  SWAP_CHECK_MSG(&out != &in, "swap-over of a backend with itself");
  // Lock both in name order so two crossed swap-overs cannot ABBA-deadlock.
  Backend* lock_a = &out;
  Backend* lock_b = &in;
  if (lock_b->name() < lock_a->name()) std::swap(lock_a, lock_b);
  auto guard_a = co_await lock_a->lock.AcquireExclusive();
  auto guard_b = co_await lock_b->lock.AcquireExclusive();

  if (out.engine->state() != engine::BackendState::kRunning) {
    co_return FailedPrecondition("swap-over: " + out.name() +
                                 " is not running");
  }
  if (in.engine->state() != engine::BackendState::kSwappedOut ||
      !in.has_snapshot) {
    co_return FailedPrecondition("swap-over: " + in.name() +
                                 " has no snapshot to restore");
  }
  // Dedupe against concurrent swap-in triggers for the incoming side.
  in.swap_in_progress = true;
  in.swap_done.Reset();
  auto finish_in = [&in] {
    in.swap_in_progress = false;
    in.swap_done.Set();
  };

  const sim::SimTime start = sim_.Now();
  obs::Span span = obs::StartSpan(obs_, "controller.swap_over", "controller",
                                  out.name());
  span.AddArg("out", out.name());
  span.AddArg("in", in.name());

  Status mark = out.engine->MarkSwapping();
  if (!mark.ok()) {
    finish_in();
    co_return mark;
  }
  Status prep = co_await out.engine->PrepareForCheckpoint();
  if (out.engine->state() == engine::BackendState::kCrashed) {
    // A node crash marked the engine crashed while we were suspended; the
    // state machine no longer belongs to this swap.
    finish_in();
    co_return Unavailable("swap-over: " + out.name() +
                          " crashed mid-swap");
  }
  if (!prep.ok()) {
    SWAP_CHECK(out.engine->MarkRunning().ok());
    finish_in();
    co_return prep;
  }

  ckpt::SwapOutRequest req{
      .container = out.engine->container(),
      .process = &out.engine->process(),
      .gpu = nullptr,
      .gpus = out.engine->Gpus(),
      .owner = out.name(),
      .clean_bytes = out.engine->CleanBytes(),
      .dirty_bytes = out.engine->DirtyBytes(),
      .checkpoint = out.engine->CheckpointCharacteristics(),
      .restore = out.engine->RestoreCharacteristics(),
  };
  const Bytes out_resident = req.clean_bytes + req.dirty_bytes;

  // Launch the outgoing side; the incoming side starts the moment the
  // checkpoint passes its commit point (snapshot staged in host RAM),
  // then races ahead chunk-by-chunk behind the freed-bytes watermark.
  sim::SimEvent staged(sim_);
  bool staged_ok = false;
  sim::SimEvent out_done(sim_);
  std::optional<Result<ckpt::SwapOutResult>> out_result;
  sim::SimTime out_end = start;
  // Captures reference this frame, which awaits out_done on every path
  // below; Spawn keeps the closure alive in the driver frame.
  // swaplint-ok(spawn-ref-capture): frame blocks on out_done before exit
  sim::Spawn([&, req]() -> sim::Task<> {
    out_result = co_await RunPipelinedSwapOut(req, [&] {
      staged_ok = true;
      staged.Set();
    });
    out_end = sim_.Now();
    staged.Set();  // wake the waiter even when staging failed
    out_done.Set();
  });
  co_await staged.Wait();

  if (!staged_ok) {
    // Out side failed before its commit point; it rolled the engine's
    // container/process back itself, and RunPipelinedSwapOut withdrew the
    // announcement. Nothing was restored yet.
    co_await out_done.Wait();
    if (out.engine->state() == engine::BackendState::kCrashed) {
      // The crash handler owns the state machine now.
      finish_in();
      co_return Unavailable("swap-over: " + out.name() +
                            " crashed mid-swap");
    }
    SWAP_CHECK(out.engine->MarkRunning().ok());
    finish_in();
    co_return out_result->status();
  }

  // A node crash can land while the staging await was parked; a torn-down
  // incoming engine must not be marked swapping or restored into.
  Result<ckpt::SwapInResult> in_result = Unavailable(
      "swap-over: " + in.name() + " crashed before restore");
  sim::SimTime in_ready = sim_.Now();
  std::map<hw::GpuId, std::vector<TaskManager::Reservation>> held;
  if (in.engine->state() != engine::BackendState::kCrashed) {
    SWAP_CHECK(in.engine->MarkSwapping().ok());
    in_result = co_await ckpt_.SwapIn(
        in.snapshot, *in.engine->container(), in.engine->process(),
        in.engine->Gpus(), MakeGatedSwapInPipeline(held));
    in_ready = sim_.Now();
    held.clear();
  }
  co_await out_done.Wait();

  // Past the commit point the checkpoint cannot fail; finalize the
  // outgoing side unconditionally.
  SWAP_CHECK_MSG(out_result->ok(),
                 "swap-out failed past its commit point");
  if (out.engine->state() == engine::BackendState::kCrashed) {
    // The machine died after the commit point: the staged bytes are torn,
    // so the snapshot must not survive as a phantom copy (same contract as
    // SwapOut). The incoming side may have restored fine; fall through to
    // its normal handling via the crash checks below.
    SWAP_WARN_IF_ERROR(ckpt_.DropSnapshot((**out_result).snapshot),
                       "controller");
  } else {
    out.snapshot = (**out_result).snapshot;
    out.has_snapshot = true;
    out.resident_bytes = out_resident;
    SWAP_CHECK(out.engine->MarkSwappedOut().ok());
    metrics_.RecordSwapOut(out.name(), (out_end - start).ToSeconds(),
                           /*preemption=*/true);
  }

  if (in.engine->state() == engine::BackendState::kCrashed) {
    // A restore that technically finished still consumed the handle.
    if (in_result.ok()) {
      in.has_snapshot = false;
      in.snapshot = 0;
    }
    finish_in();
    co_return Unavailable("swap-over: " + in.name() +
                          " crashed mid-restore");
  }
  if (!in_result.ok()) {
    SWAP_CHECK(in.engine->MarkSwappedOut().ok());
    finish_in();
    co_return in_result.status();
  }
  in.has_snapshot = false;
  in.snapshot = 0;
  Status after = co_await in.engine->AfterRestore();
  if (in.engine->state() == engine::BackendState::kCrashed) {
    finish_in();
    co_return Unavailable("swap-over: " + in.name() +
                          " crashed mid-restore");
  }
  if (!after.ok()) {
    finish_in();
    co_return after;
  }
  SWAP_CHECK(in.engine->MarkRunning().ok());
  in.health.last_resident = sim_.Now();
  metrics_.RecordSwapIn(in.name(), (in_ready - start).ToSeconds());
  finish_in();

  const ckpt::SwapOutResult& od = **out_result;
  const ckpt::SwapInResult& ir = *in_result;
  sim::SimDuration overlap{};
  const sim::SimTime ov_start = std::max(od.d2h_start, ir.h2d_start);
  const sim::SimTime ov_end = std::min(od.d2h_end, ir.h2d_end);
  if (ov_end > ov_start) overlap = ov_end - ov_start;

  SwapOverResult over{
      .elapsed = in_ready - start,
      .out_elapsed = out_end - start,
      .overlap = overlap,
      .stall = ir.stall,
  };
  metrics_.RecordSwapOver(out.name(), in.name(), over.elapsed.ToSeconds(),
                          overlap.ToSeconds());
  const obs::LabelSet pair = {{"out", out.name()}, {"in", in.name()}};
  obs::Observe(obs_, "swapserve_swap_overlap_seconds", pair,
               overlap.ToSeconds());
  const double d2h_s = (od.d2h_end - od.d2h_start).ToSeconds();
  if (d2h_s > 0) {
    obs::Observe(obs_, "swapserve_swap_overlap_ratio", pair,
                 overlap.ToSeconds() / d2h_s);
  }
  obs::Observe(obs_, "swapserve_pipeline_stall_seconds",
               {{"model", in.name()}}, ir.stall.ToSeconds());
  span.AddArg("overlap_s", std::to_string(overlap.ToSeconds()));
  span.AddArg("stall_s", std::to_string(ir.stall.ToSeconds()));
  SWAP_LOG(kInfo, "controller")
      << "swap-over " << out.name() << " -> " << in.name() << ": ready in "
      << over.elapsed.ToString() << " (overlap " << overlap.ToString()
      << ", stall " << ir.stall.ToString() << ")";
  co_return over;
}

std::vector<Backend*> EngineController::PreemptionCandidates(
    hw::GpuId gpu, const std::string& requester) {
  std::vector<Backend*> out;
  for (Backend* b : backends_) {
    if (!b->OnGpu(gpu)) continue;
    if (b->name() == requester) continue;
    if (b->engine->state() != engine::BackendState::kRunning) continue;
    if (b->lock.write_locked()) continue;  // already being swapped
    out.push_back(b);
  }
  switch (policy_) {
    case PreemptionPolicy::kDemandAware:
      std::stable_sort(out.begin(), out.end(),
                       [](const Backend* a, const Backend* b) {
                         if (a->Demand() != b->Demand()) {
                           return a->Demand() < b->Demand();
                         }
                         return a->last_accessed < b->last_accessed;
                       });
      break;
    case PreemptionPolicy::kLruOnly:
      std::stable_sort(out.begin(), out.end(),
                       [](const Backend* a, const Backend* b) {
                         return a->last_accessed < b->last_accessed;
                       });
      break;
    case PreemptionPolicy::kRandom:
      // Fisher-Yates with the controller's deterministic stream.
      for (std::size_t i = out.size(); i > 1; --i) {
        std::swap(out[i - 1],
                  out[static_cast<std::size_t>(rng_.UniformInt(
                      0, static_cast<std::int64_t>(i) - 1))]);
      }
      break;
    case PreemptionPolicy::kLargestFirst:
      std::stable_sort(out.begin(), out.end(),
                       [](const Backend* a, const Backend* b) {
                         return a->engine->GpuResidentBytes() >
                                b->engine->GpuResidentBytes();
                       });
      break;
  }
  return out;
}

sim::Task<Bytes> EngineController::ReclaimMemory(
    hw::GpuId gpu, Bytes needed, std::string requester) {
  Bytes freed(0);
  std::vector<std::string> failed;  // skip victims that refused to swap out
  while (freed < needed) {
    std::vector<Backend*> candidates = PreemptionCandidates(gpu, requester);
    std::erase_if(candidates, [&failed](const Backend* b) {
      return std::find(failed.begin(), failed.end(), b->name()) !=
             failed.end();
    });
    if (candidates.empty()) break;
    Backend* victim = candidates.front();
    // Memory this eviction frees on *this* GPU: the victim's shard.
    const Bytes victim_resident =
        Bytes(victim->engine->GpuResidentBytes().count() /
              victim->engine->tp_degree());
    obs::Instant(obs_, "preempt:" + victim->name(), "controller",
                 "gpu" + std::to_string(gpu),
                 {{"victim", victim->name()},
                  {"requester", requester},
                  {"victim_demand", std::to_string(victim->Demand())},
                  {"frees_bytes", std::to_string(victim_resident.count())},
                  {"needed_bytes", std::to_string(needed.count())}});
    SWAP_LOG(kInfo, "controller")
        << "preempting " << victim->name() << " (demand "
        << victim->Demand() << ", " << victim_resident.ToString()
        << ") to make room for " << requester;
    Status s = co_await SwapOut(*victim, /*preemption=*/true);
    if (s.ok()) {
      freed += victim_resident;
    } else {
      SWAP_LOG(kWarning, "controller")
          << "preemption of " << victim->name() << " failed: " << s;
      failed.push_back(victim->name());
    }
  }
  co_return freed;
}

}  // namespace swapserve::core
