#include "core/engine_controller.h"

#include <algorithm>
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
  backend->engine->BindResidencyHandler([this] {
    residency_signal_.Pulse();
    if (on_residency_) on_residency_();
  });
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

  const std::span<hw::GpuDevice* const> gpus = backend.engine->Gpus();
  ckpt::SwapOutRequest req{
      .container = backend.engine->container(),
      .process = &backend.engine->process(),
      .gpu = nullptr,
      .gpus = {gpus.begin(), gpus.end()},
      .owner = backend.name(),
      .clean_bytes = backend.engine->CleanBytes(),
      .dirty_bytes = backend.engine->DirtyBytes(),
      .checkpoint = backend.engine->CheckpointCharacteristics(),
      .restore = backend.engine->RestoreCharacteristics(),
  };
  const Bytes resident = req.clean_bytes + req.dirty_bytes;
  Result<ckpt::SwapOutResult> result = co_await ckpt_.SwapOut(req);
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
  if (backend.engine->state() == engine::BackendState::kCrashed &&
      (!backend.has_snapshot ||
       !backend.engine->ReadoptCheckpoint().ok())) {
    co_return co_await RestartCrashed(backend, "restart");
  }
  if (!backend.has_snapshot) {
    co_return FailedPrecondition("swap-in " + backend.name() +
                                 ": no snapshot");
  }
  const sim::SimTime start = sim_.Now();
  obs::Span span = obs::StartSpan(obs_, "controller.swap_in", "controller",
                                  backend.name());
  SWAP_CO_RETURN_IF_ERROR(backend.engine->MarkSwapping());

  const std::span<hw::GpuDevice* const> gpus = backend.engine->Gpus();
  Result<ckpt::SwapInResult> result = co_await ckpt_.SwapIn(
      backend.snapshot, *backend.engine->container(),
      backend.engine->process(), {gpus.begin(), gpus.end()});
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
      // The checksum mismatch means the host copy is unusable and the
      // checkpointed process can never be resumed: declare it dead and
      // rebuild it from scratch.
      SWAP_LOG(kWarning, "controller")
          << "snapshot of " << backend.name()
          << " is corrupt; falling back to cold start: " << result.status();
      obs::Instant(obs_, {"cold_fallback:", backend.name()}, "controller",
                   backend.name(), {{"cause", result.status().message()}});
      backend.engine->MarkCrashed("corrupt snapshot: " +
                                  result.status().message());
      co_return co_await RestartCrashed(backend, "cold_fallback");
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

  metrics_.RecordSwapIn(backend.name(), (sim_.Now() - start).ToSeconds());
  SWAP_LOG(kInfo, "controller")
      << "swapped in " << backend.name() << " in "
      << (sim_.Now() - start).ToString();
  co_return Status::Ok();
}

// swaplint-ok(coro-ref-param): backend outlives the frame (registered)
sim::Task<Status> EngineController::RestartCrashed(Backend& backend,
                                                   const char* kind) {
  const sim::SimTime start = sim_.Now();
  if (backend.has_snapshot) {
    SWAP_WARN_IF_ERROR(ckpt_.DropSnapshot(backend.snapshot), "controller");
    backend.has_snapshot = false;
    backend.snapshot = 0;
  }
  Result<engine::InitBreakdown> restart = co_await backend.engine->Restart();
  if (!restart.ok()) {
    // Still kCrashed: the scheduler's retry or breaker takes it from here.
    co_return restart.status();
  }
  const double elapsed = (sim_.Now() - start).ToSeconds();
  metrics_.RecordRecovery(backend.name(), kind, elapsed);
  obs::Instant(obs_, {"recovered:", backend.name()}, "controller",
               backend.name(), {{"kind", kind}, {"elapsed_s", elapsed}});
  SWAP_LOG(kInfo, "controller")
      << backend.name() << " restarted from scratch (" << kind << ") in "
      << (sim_.Now() - start).ToString();
  co_return Status::Ok();
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
    obs::Instant(obs_, {"preempt:", victim->name()}, "controller",
                 task_manager_.trace_track(gpu),
                 {{"victim", victim->name()},
                  {"requester", requester},
                  {"victim_demand", victim->Demand()},
                  {"frees_bytes", victim_resident.count()},
                  {"needed_bytes", needed.count()}});
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
