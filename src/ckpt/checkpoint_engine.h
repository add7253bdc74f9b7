// The combined CRIUgpu-style hot-swap mechanism: cgroup freezer +
// cuda-checkpoint + snapshot store (paper §3, §4.2 "Model Preemption").
//
// Swap-out:  freeze cgroup -> cuda-checkpoint lock -> drain dirty pages to
//            host (D2H) -> release all device memory -> container paused.
// Swap-in:   re-reserve device memory -> copy dirty pages back (H2D) ->
//            remap clean pages -> cuda-checkpoint unlock -> thaw cgroup ->
//            API health check.
//
// The engine is policy-free: per-backend timing characteristics arrive with
// each request, captured from calibration (vLLM's sleep mode shrinks dirty
// bytes; Ollama's whole resident set is dirty).

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "ckpt/cuda_checkpoint.h"
#include "ckpt/snapshot_store.h"
#include "container/container.h"
#include "fault/fault_injector.h"
#include "hw/gpu_device.h"
#include "hw/link.h"
#include "model/calibration.h"
#include "obs/observability.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "util/status.h"

namespace swapserve::ckpt {

class SnapshotTierManager;

struct SwapOutRequest {
  container::Container* container = nullptr;
  CudaCheckpointProcess* process = nullptr;
  hw::GpuDevice* gpu = nullptr;
  // Tensor-parallel device group (§6); empty = just `gpu`. Each device
  // holds an even shard, checkpointed/restored in parallel.
  std::vector<hw::GpuDevice*> gpus;
  std::string owner;
  Bytes clean_bytes{0};  // reserved pages with no meaningful contents
  Bytes dirty_bytes{0};  // pages that must round-trip through host RAM
  model::CheckpointModel checkpoint;
  model::RestoreModel restore;
};

struct SwapOutResult {
  SnapshotId snapshot = 0;
  Bytes gpu_freed{0};
  sim::SimDuration elapsed;
};

struct SwapInResult {
  sim::SimDuration elapsed;
};

class CheckpointEngine {
 public:
  // Every snapshot goes through `tier`: swap-outs admit their dirty bytes
  // against its host cache (demoting LRU victims when it is bounded) before
  // Put, and swap-ins stage demoted snapshots back via EnsureRestorable
  // before the H2D copy. An unbounded tier never demotes.
  CheckpointEngine(sim::Simulation& sim, SnapshotStore& store,
                   SnapshotTierManager& tier)
      : sim_(sim), store_(store), tier_(tier) {}

  // Suspend the backend and free its GPU memory. On failure the container
  // and process are rolled back to running. Shards drain over each group
  // member's D2H link concurrently, at background priority; device memory
  // is released once the drain completes.
  sim::Task<Result<SwapOutResult>> SwapOut(SwapOutRequest req);

  // Resume a backend from its snapshot. GPU memory for clean+dirty bytes
  // must fit across the device group; the caller (task manager)
  // guarantees this via reservations, but the engine still fails loudly if
  // the invariant is violated.
  // container/process are owned by the task manager's ModelTask, which
  // outlives the swap-in frame by construction.
  // swaplint-ok(coro-ref-param): container/process outlive the frame
  sim::Task<Result<SwapInResult>> SwapIn(
      SnapshotId snapshot_id, container::Container& container,
      CudaCheckpointProcess& process, std::vector<hw::GpuDevice*> gpus);

  // Retire a snapshot, keeping the tier manager's placement ledger in sync
  // (deferred retire of mid-move entries). All drops — consumption at
  // swap-in, cold-restore fallback, shutdown GC — must go through here, not
  // SnapshotStore::Drop.
  [[nodiscard]] Status DropSnapshot(SnapshotId id);

  // Queue-aware wall-clock estimate for SwapIn(id): tier staging (the NVMe
  // promotion a demoted snapshot must pay before its H2D copy can start) +
  // dirty copy + clean remap + the fixed restore term. Shards restore in
  // parallel, so the transfer terms are rank 0's (the largest shard).
  sim::SimDuration EstimatedSwapInTime(SnapshotId id) const;

  SnapshotStore& store() { return store_; }
  std::uint64_t swap_out_count() const { return swap_outs_; }
  std::uint64_t swap_in_count() const { return swap_ins_; }

  // Emit per-phase trace spans (§3 state machine: freeze/lock/d2h/release
  // out, reserve/h2d/remap/unlock/thaw in) and phase-latency histograms
  // (nullable).
  void BindObservability(obs::Observability* obs) {
    obs_ = obs;
    phase_seconds_ = {};
  }

  // Nullable. Fault points: "ckpt.swap_out" (before the freeze; container
  // and process stay running), "ckpt.swap_in" (after the snapshot lookup;
  // snapshot retained, so the failure is retryable).
  void BindFaultInjector(fault::FaultInjector* injector) {
    fault_ = injector;
  }

  // Cluster seam. `fetch` resolves a kRemote placeholder by streaming the
  // payload over the fabric (on success the snapshot is host-resident);
  // `estimate` is its queue-aware cost, added to EstimatedSwapInTime so
  // placement sees the true price of restoring off-node. Unbound (the
  // single-node default), remote snapshots fail swap-in loudly.
  using RemoteFetch = std::function<sim::Task<Status>(SnapshotId)>;
  using RemoteEstimate = std::function<sim::SimDuration(SnapshotId)>;
  void BindRemoteTier(RemoteFetch fetch, RemoteEstimate estimate) {
    remote_fetch_ = std::move(fetch);
    remote_estimate_ = std::move(estimate);
  }

 private:
  obs::Observability* obs_ = nullptr;
  // swapserve_ckpt_phase_seconds{phase}, resolved on the first write.
  struct PhaseSeconds {
    obs::HistogramMetric* d2h = nullptr;
    obs::HistogramMetric* h2d = nullptr;
  } phase_seconds_;
  fault::FaultInjector* fault_ = nullptr;
  RemoteFetch remote_fetch_;
  RemoteEstimate remote_estimate_;
  sim::Simulation& sim_;
  SnapshotStore& store_;
  SnapshotTierManager& tier_;
  std::uint64_t swap_outs_ = 0;
  std::uint64_t swap_ins_ = 0;
};

}  // namespace swapserve::ckpt
