#include "ckpt/checkpoint_engine.h"

#include <algorithm>
#include <utility>

#include "ckpt/snapshot_tier.h"
#include "sim/combinators.h"
#include "util/inline_vector.h"
#include "util/log.h"

namespace swapserve::ckpt {
namespace {

// Split `total` into `n` shards; shard 0 absorbs the remainder.
Bytes Shard(Bytes total, std::size_t n, std::size_t rank) {
  const Bytes per(total.count() / static_cast<std::int64_t>(n));
  if (rank == 0) {
    return per + (total - per * static_cast<std::int64_t>(n));
  }
  return per;
}

constexpr const char* kPhaseSeconds = "swapserve_ckpt_phase_seconds";

}  // namespace

sim::Task<Result<SwapOutResult>> CheckpointEngine::SwapOut(
    SwapOutRequest req) {
  SWAP_CHECK(req.container != nullptr && req.process != nullptr);
  SWAP_CHECK(!req.gpus.empty() || req.gpu != nullptr);
  // `req` lives in this frame, so a one-device group can borrow its `gpu`.
  const std::span<hw::GpuDevice* const> gpus =
      req.gpus.empty() ? std::span<hw::GpuDevice* const>(&req.gpu, 1)
                       : req.gpus;
  const sim::SimTime start = sim_.Now();
  obs::Span swap_span =
      obs::StartSpan(obs_, "ckpt.swap_out", "ckpt", req.owner);
  swap_span.AddArg("dirty_bytes", req.dirty_bytes.count());
  swap_span.AddArg("clean_bytes", req.clean_bytes.count());

  // Injected checkpoint failure fires before the freeze, so the backend is
  // still running and the caller's rollback is a pure state unwind.
  {
    fault::FaultDecision f =
        fault::Evaluate(fault_, "ckpt.swap_out", req.owner);
    if (f.stall.ns() > 0) co_await sim_.Delay(f.stall);
    if (!f.status.ok()) co_return f.status;
  }

  // 1. Freeze the container cgroup: CPU side stops issuing CUDA work.
  {
    obs::Span phase = obs::StartSpan(obs_, "freeze", "ckpt", req.owner);
    Status s = co_await req.container->Pause();
    if (!s.ok()) co_return s;
  }

  // 2. cuda-checkpoint lock: drain in-flight kernels.
  {
    obs::Span phase = obs::StartSpan(obs_, "lock", "ckpt", req.owner);
    Status s = co_await req.process->Lock(sim::Millis(50));
    if (!s.ok()) {
      SWAP_WARN_IF_ERROR(co_await req.container->Unpause(), "ckpt");
      co_return s;
    }
  }

  // 3. Stage dirty pages into host RAM (reserve budget first so a full
  //    store fails before bytes move). Shards drain device->host in
  //    parallel across the group, so the wall time is one shard's.
  Snapshot snap;
  snap.owner = req.owner;
  snap.clean_bytes = req.clean_bytes;
  snap.dirty_bytes = req.dirty_bytes;
  snap.created_at_s = sim_.Now().ToSeconds();
  snap.tp_degree = static_cast<int>(gpus.size());
  snap.restore = req.restore;
  // A bounded host cache may have to spill cold snapshots to NVMe before
  // this one fits; the admission holds the bytes until Put lands them.
  Status admitted = co_await tier_.AdmitHostBytes(req.dirty_bytes);
  if (!admitted.ok()) {
    SWAP_WARN_IF_ERROR(co_await req.process->Unlock(), "ckpt");
    SWAP_WARN_IF_ERROR(co_await req.container->Unpause(), "ckpt");
    co_return admitted;
  }
  Result<SnapshotId> put = store_.Put(std::move(snap));
  if (!put.ok()) {
    tier_.CancelAdmission(req.dirty_bytes);
    SWAP_WARN_IF_ERROR(co_await req.process->Unlock(), "ckpt");
    SWAP_WARN_IF_ERROR(co_await req.container->Unpause(), "ckpt");
    co_return put.status();
  }
  tier_.OnPut(*put);

  {
    obs::Span phase = obs::StartSpan(obs_, "d2h", "ckpt", req.owner);
    const sim::SimTime phase_start = sim_.Now();
    co_await sim_.Delay(req.checkpoint.fixed);
    if (req.dirty_bytes.count() > 0) {
      InlineVector<sim::Task<>, hw::kInlineGroupSize> drains;
      for (std::size_t rank = 0; rank < gpus.size(); ++rank) {
        const Bytes shard = Shard(req.dirty_bytes, gpus.size(), rank);
        if (shard.count() == 0) continue;
        hw::TransferOptions opts;
        opts.priority = hw::TransferPriority::kBackground;
        opts.bandwidth = req.checkpoint.d2h_bw;
        opts.setup = sim::SimDuration(0);  // CheckpointModel carries fixed
        drains.push_back(
            gpus[rank]->pcie().d2h().TransferChunked(shard, opts));
      }
      co_await sim::WhenAll(sim_, drains);
    }
    obs::Observe(obs_, phase_seconds_.d2h, kPhaseSeconds, {{"phase", "d2h"}},
                 (sim_.Now() - phase_start).ToSeconds());
  }
  if (!req.process->MarkCheckpointed().ok()) {
    // A node crash reset the process to running while the D2H drain was on
    // the wire. The staged bytes are torn; drop them so the snapshot cannot
    // survive as a phantom copy, and leave recovery to the crash handler.
    SWAP_WARN_IF_ERROR(DropSnapshot(*put), "ckpt");
    co_return Unavailable("swap-out " + req.owner.str() +
                          " aborted: process crashed mid-checkpoint");
  }

  // 4. The driver frees the backend's memory on every group member.
  Bytes freed(0);
  {
    obs::Span phase = obs::StartSpan(obs_, "release", "ckpt", req.owner);
    for (hw::GpuDevice* gpu : gpus) freed += gpu->FreeAllOwnedBy(req.owner);
    phase.AddArg("freed_bytes", freed.count());
  }

  SWAP_LOG(kDebug, "ckpt") << "swap-out " << req.owner << ": freed "
                           << freed.ToString() << " across " << gpus.size()
                           << " GPU(s), snapshot "
                           << req.dirty_bytes.ToString() << " dirty";
  ++swap_outs_;
  co_return SwapOutResult{
      .snapshot = *put,
      .gpu_freed = freed,
      .elapsed = sim_.Now() - start,
  };
}

// swaplint-ok(coro-ref-param): container/process/gpus belong to the engine
sim::Task<Result<SwapInResult>> CheckpointEngine::SwapIn(
    SnapshotId snapshot_id, container::Container& container,
    CudaCheckpointProcess& process, std::span<hw::GpuDevice* const> gpus) {
  SWAP_CHECK_MSG(!gpus.empty(), "swap-in needs at least one GPU");
  const sim::SimTime start = sim_.Now();
  // The restore reads the snapshot across many awaits, and consumes it at
  // the end: work on a copy.
  const Snapshot* stored = store_.Find(snapshot_id);
  if (stored == nullptr) {
    co_return NotFound("snapshot " + std::to_string(snapshot_id));
  }
  Snapshot snap = *stored;
  // A remote placeholder has no local payload yet: pull it over the fabric
  // first. Fetch failures are retryable (the placeholder is retained);
  // in-flight corruption lands as a flipped checksum and surfaces at the
  // Verify below, riding the existing DATA_LOSS cold-fallback path.
  if (snap.tier == SnapshotTier::kRemote) {
    if (!remote_fetch_) {
      co_return FailedPrecondition(
          "swap-in " + snap.owner.str() + ": snapshot " +
          std::to_string(snapshot_id) +
          " is remote and no fetch path is bound");
    }
    SWAP_CO_RETURN_IF_ERROR(co_await remote_fetch_(snapshot_id));
    stored = store_.Find(snapshot_id);
    if (stored == nullptr) {
      co_return NotFound("snapshot " + std::to_string(snapshot_id));
    }
    snap = *stored;
  }
  // A corrupt snapshot surfaces here as DATA_LOSS: not retryable, the
  // caller must drop it and fall back to a cold start.
  SWAP_CO_RETURN_IF_ERROR(store_.Verify(snapshot_id));
  SWAP_CHECK_MSG(static_cast<int>(gpus.size()) == snap.tp_degree,
                 "swap-in device group does not match checkpoint topology");
  // Injected restore failure fires before any device memory is touched;
  // the snapshot is retained, so the swap-in can simply be retried.
  {
    fault::FaultDecision f =
        fault::Evaluate(fault_, "ckpt.swap_in", snap.owner);
    if (f.stall.ns() > 0) co_await sim_.Delay(f.stall);
    if (!f.status.ok()) co_return f.status;
  }
  // Stage the payload host-side before touching device memory: a demoted
  // snapshot is promoted from NVMe (or streamed directly when promotion
  // fails), then checksum-verified. On Ok the snapshot is pinned against
  // demotion until it is consumed below or the restore fails.
  Status staged = co_await tier_.EnsureRestorable(snapshot_id);
  if (!staged.ok()) co_return staged;
  // Unwind the tier pin on any post-staging failure so the snapshot is
  // demotable again while the caller decides whether to retry.
  auto fail = [&](Status status) {
    tier_.Unpin(snapshot_id);
    return status;
  };
  obs::Span swap_span =
      obs::StartSpan(obs_, "ckpt.swap_in", "ckpt", snap.owner);
  swap_span.AddArg("dirty_bytes", snap.dirty_bytes.count());
  swap_span.AddArg("clean_bytes", snap.clean_bytes.count());

  const Bytes total = snap.clean_bytes + snap.dirty_bytes;

  // 1. Re-acquire device memory on every group member. The task
  //    manager's reservations should make this infallible; a failure is
  //    a scheduling bug surfaced as a hard error (with rollback).
  {
    InlineVector<std::pair<hw::GpuDevice*, hw::AllocationId>,
                 hw::kInlineGroupSize>
        allocs;
    obs::Span phase = obs::StartSpan(obs_, "reserve", "ckpt", snap.owner);
    phase.AddArg("bytes", total.count());
    for (std::size_t rank = 0; rank < gpus.size(); ++rank) {
      Result<hw::AllocationId> alloc = gpus[rank]->Allocate(
          snap.owner, Shard(total, gpus.size(), rank), "restored-state");
      if (!alloc.ok()) {
        for (auto& [dev, id] : allocs) SWAP_CHECK(dev->Free(id).ok());
        co_return fail(alloc.status());
      }
      allocs.push_back({gpus[rank], *alloc});
    }
  }

  // 2. Copy dirty shards back over each member's H2D link, then remap
  //    clean reservations, in parallel across the group; timing comes
  //    from the per-engine restore model captured at checkpoint time.
  //    The copy and remap terms of RestoreModel are paced as separate
  //    phases so the trace attributes the wait; the fixed term (CUDA
  //    context restore + API health check) is paid once, at unlock.
  {
    obs::Span phase = obs::StartSpan(obs_, "h2d", "ckpt", snap.owner);
    phase.AddArg("bytes", snap.dirty_bytes.count());
    const sim::SimTime h2d_start = sim_.Now();
    if (snap.dirty_bytes.count() > 0) {
      InlineVector<sim::Task<>, hw::kInlineGroupSize> copies;
      for (std::size_t rank = 0; rank < gpus.size(); ++rank) {
        const Bytes shard = Shard(snap.dirty_bytes, gpus.size(), rank);
        if (shard.count() == 0) continue;
        hw::TransferOptions opts;
        opts.bandwidth = snap.restore.copy_bw;
        opts.setup = sim::SimDuration(0);  // RestoreModel carries fixed
        copies.push_back(
            gpus[rank]->pcie().h2d().TransferChunked(shard, opts));
      }
      co_await sim::WhenAll(sim_, copies);
    }
    obs::Observe(obs_, phase_seconds_.h2d, kPhaseSeconds, {{"phase", "h2d"}},
                 (sim_.Now() - h2d_start).ToSeconds());
  }
  {
    obs::Span phase = obs::StartSpan(obs_, "remap", "ckpt", snap.owner);
    phase.AddArg("bytes", snap.clean_bytes.count());
    co_await sim_.Delay(sim::Seconds(snap.restore.remap_bw.SecondsFor(
        Shard(snap.clean_bytes, gpus.size(), 0))));
  }

  Status s = process.MarkRestored();
  if (!s.ok()) co_return fail(s);
  {
    obs::Span phase = obs::StartSpan(obs_, "unlock", "ckpt", snap.owner);
    co_await sim_.Delay(snap.restore.fixed);
    s = co_await process.Unlock();
    if (!s.ok()) co_return fail(s);
  }

  // 3. Thaw the cgroup: CPU side resumes exactly where it stopped.
  {
    obs::Span phase = obs::StartSpan(obs_, "thaw", "ckpt", snap.owner);
    s = co_await container.Unpause();
    if (!s.ok()) co_return fail(s);
  }

  // 4. Host staging buffers are released; the snapshot is consumed. The
  //    restore pin is released first: a concurrent prefetch promotion can
  //    defer the entry's erasure to its mover, which only cleans up
  //    pin-free entries.
  tier_.Unpin(snapshot_id);
  SWAP_CHECK(DropSnapshot(snapshot_id).ok());

  SWAP_LOG(kDebug, "ckpt") << "swap-in " << snap.owner << ": restored "
                           << total.ToString() << " across " << gpus.size()
                           << " GPU(s)";
  ++swap_ins_;
  co_return SwapInResult{.elapsed = sim_.Now() - start};
}

Status CheckpointEngine::DropSnapshot(SnapshotId id) {
  tier_.OnDrop(id);
  return store_.Drop(id);
}

sim::SimDuration CheckpointEngine::EstimatedSwapInTime(SnapshotId id) const {
  const Snapshot* snap = store_.Find(id);
  if (snap == nullptr) return sim::SimDuration(0);
  const std::size_t n =
      static_cast<std::size_t>(std::max(snap->tp_degree, 1));
  // Rank 0 absorbs the shard remainder, so its copy/remap are the longest;
  // shards restore concurrently across the group.
  sim::SimDuration est =
      snap->restore.fixed +
      sim::Seconds(
          snap->restore.copy_bw.SecondsFor(Shard(snap->dirty_bytes, n, 0))) +
      sim::Seconds(
          snap->restore.remap_bw.SecondsFor(Shard(snap->clean_bytes, n, 0)));
  // A demoted snapshot pays its NVMe promotion before the H2D copy can
  // start; ignoring this term is exactly how swap-in estimates used to
  // undershoot on cold snapshots.
  est += tier_.EstimatedPromotionTime(id);
  // A remote placeholder additionally pays the cross-node fetch (source
  // NVMe read, if demoted there, plus the fabric transfer) before any
  // local staging can begin — the same undershoot, one tier further out.
  if (snap->tier == SnapshotTier::kRemote && remote_estimate_) {
    est += remote_estimate_(id);
  }
  return est;
}

}  // namespace swapserve::ckpt
