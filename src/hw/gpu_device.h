// Simulated GPU device: memory allocation tracking and busy-time accounting.
//
// The scheduler layer (the paper's contribution) observes a GPU through
// exactly two signals — how much memory is allocated and how busy the SMs
// are — so that is what this device models. Kernels themselves are not
// simulated; engines account compute time via BusyScope around their
// modelled generation delays.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault_injector.h"
#include "hw/gpu_spec.h"
#include "hw/link.h"
#include "obs/observability.h"
#include "sim/simulation.h"
#include "util/name.h"
#include "util/status.h"
#include "util/units.h"

namespace swapserve::hw {

using GpuId = int;
using AllocationId = std::uint64_t;

// A device group (a tensor-parallel backend's GPUs) of up to this many
// devices keeps its per-device swap bookkeeping (transfers to join,
// allocations to roll back, reservations to hold) inside the swap's
// coroutine frame; a larger group spills those lists to the heap.
inline constexpr std::size_t kInlineGroupSize = 8;

class GpuMonitor;

class GpuDevice {
 public:
  GpuDevice(sim::Simulation& sim, GpuId id, GpuSpec spec);
  GpuDevice(const GpuDevice&) = delete;
  GpuDevice& operator=(const GpuDevice&) = delete;

  GpuId id() const { return id_; }
  const GpuSpec& spec() const { return spec_; }

  // The device's host link: independent D2H and H2D DMA channels at the
  // spec's effective copy rates. Swap traffic routes through here so an
  // eviction drain and a restore stream overlap; tensor-parallel groups
  // stripe across their members' links concurrently.
  DuplexLink& pcie() { return pcie_; }

  // Publish memory-occupancy gauges to the telemetry registry (nullable).
  void BindObservability(obs::Observability* obs);
  // Nullable. Fault points: "hw.acquire" fails Allocate (fail-only —
  // allocation is synchronous, so a stall cannot be honoured here);
  // "hw.link" stalls transfers on both DMA channels (see Link).
  void BindFaultInjector(fault::FaultInjector* injector);
  Bytes capacity() const { return spec_.memory; }
  Bytes used() const { return used_; }
  Bytes free() const { return spec_.memory - used_; }

  struct Allocation {
    AllocationId id;
    Name owner;
    Bytes size;
    std::string purpose;
  };

  // Named device-memory allocation; fails with RESOURCE_EXHAUSTED when the
  // request does not fit. `owner` identifies the backend (for accounting and
  // debugging), `purpose` is a short free-form tag ("weights", "kv-arena",
  // ...).
  Result<AllocationId> Allocate(Name owner, Bytes size,
                                std::string_view purpose);
  Status Free(AllocationId id);
  // Release every allocation held by `owner`; returns the bytes freed.
  // This is what a checkpoint operation does: the driver releases all
  // device memory of the checkpointed process at once.
  Bytes FreeAllOwnedBy(Name owner);
  Bytes UsedBy(Name owner) const;
  std::size_t allocation_count() const { return allocations_.size(); }
  // The live allocations in id order, valid until the next Allocate,
  // Free or FreeAllOwnedBy.
  std::span<const Allocation> Allocations() const { return allocations_; }

  // --- compute busy-time accounting ------------------------------------
  // Engines wrap modelled kernel time in Begin/EndCompute (or BusyScope).
  // Overlapping scopes count once: the device is "busy" while at least one
  // compute stream is active, which matches how nvidia-smi utilization is
  // defined.
  void BeginCompute();
  void EndCompute();

  // Cumulative busy time including any currently open interval.
  sim::SimDuration TotalBusy() const { return TotalBusyAt(sim_.Now()); }

  int active_compute_streams() const { return active_compute_; }

  // Marks every device of a group (a tensor-parallel group, or a single
  // device as a one-element span) busy for the scope's lifetime. Devices
  // begin and end compute in span order.
  class [[nodiscard]] BusyScope {
   public:
    explicit BusyScope(std::span<GpuDevice* const> gpus) : gpus_(gpus) {
      for (GpuDevice* gpu : gpus_) gpu->BeginCompute();
    }
    BusyScope(const BusyScope&) = delete;
    BusyScope& operator=(const BusyScope&) = delete;
    ~BusyScope() {
      for (GpuDevice* gpu : gpus_) gpu->EndCompute();
    }

   private:
    std::span<GpuDevice* const> gpus_;
  };

 private:
  friend class GpuMonitor;

  void PublishMemoryGauges();
  // Called before used_ or the busy state (0 <-> 1 active streams)
  // changes: hands the attached monitor every sample due by Now(), taken
  // from the state about to change. One comparison unless a sample is due.
  void BeforeStateChange();
  // TotalBusy() as of `t`, for any t at or after the last busy-state
  // change (the monitor's past sample instants).
  sim::SimDuration TotalBusyAt(sim::SimTime t) const;

  // Resolved on the first publish; reset by BindObservability.
  struct MemoryGauges {
    obs::Gauge* used = nullptr;
    obs::Gauge* capacity = nullptr;
    obs::Gauge* allocations = nullptr;
  };

  obs::Observability* obs_ = nullptr;
  MemoryGauges memory_gauges_;
  fault::FaultInjector* fault_ = nullptr;
  sim::Simulation& sim_;
  GpuId id_;
  GpuSpec spec_;
  DuplexLink pcie_;
  Bytes used_;
  AllocationId next_allocation_id_ = 1;
  // Sorted by id. Ids only grow, so Allocate appends; a device holds a few
  // allocations per resident backend.
  std::vector<Allocation> allocations_;

  int active_compute_ = 0;
  sim::SimTime busy_since_;
  sim::SimDuration accumulated_busy_;

  // The one GpuMonitor sampling this device (set by its constructor) and
  // the instant of its next unwritten sample (kNever while none is due).
  GpuMonitor* monitor_ = nullptr;
  std::size_t monitor_slot_ = 0;
  sim::SimTime sample_due_ = sim::kNever;
};

}  // namespace swapserve::hw
