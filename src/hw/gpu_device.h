// Simulated GPU device: memory allocation tracking and busy-time accounting.
//
// The scheduler layer (the paper's contribution) observes a GPU through
// exactly two signals — how much memory is allocated and how busy the SMs
// are — so that is what this device models. Kernels themselves are not
// simulated; engines account compute time via BusyScope around their
// modelled generation delays.

#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "hw/gpu_spec.h"
#include "hw/link.h"
#include "obs/observability.h"
#include "sim/simulation.h"
#include "util/status.h"
#include "util/units.h"

namespace swapserve::hw {

using GpuId = int;
using AllocationId = std::uint64_t;

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

  // Named device-memory allocation; fails with RESOURCE_EXHAUSTED when the
  // request does not fit. `owner` identifies the backend (for accounting and
  // debugging), `purpose` is a free-form tag ("weights", "kv-cache", ...).
  Result<AllocationId> Allocate(const std::string& owner, Bytes size,
                                const std::string& purpose);
  Status Free(AllocationId id);
  // Release every allocation held by `owner`; returns the bytes freed.
  // This is what a checkpoint operation does: the driver releases all
  // device memory of the checkpointed process at once.
  Bytes FreeAllOwnedBy(const std::string& owner);
  Bytes UsedBy(const std::string& owner) const;
  std::size_t allocation_count() const { return allocations_.size(); }

  struct AllocationInfo {
    AllocationId id;
    std::string owner;
    Bytes size;
    std::string purpose;
  };
  std::vector<AllocationInfo> Allocations() const;

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
  struct Allocation {
    std::string owner;
    Bytes size;
    std::string purpose;
  };

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
  std::map<AllocationId, Allocation> allocations_;

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
