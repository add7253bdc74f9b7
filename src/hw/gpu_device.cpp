#include "hw/gpu_device.h"

#include <utility>

#include "hw/gpu_monitor.h"

namespace swapserve::hw {

GpuDevice::GpuDevice(sim::Simulation& sim, GpuId id, GpuSpec spec)
    : sim_(sim),
      id_(id),
      spec_(std::move(spec)),
      pcie_(sim, "gpu" + std::to_string(id) + "-pcie",
            spec_.h2d_bandwidth, spec_.d2h_bandwidth),
      used_(0) {}

void GpuDevice::BindObservability(obs::Observability* obs) {
  obs_ = obs;
  memory_gauges_ = {};
  pcie_.BindObservability(obs);
  PublishMemoryGauges();
}

void GpuDevice::BindFaultInjector(fault::FaultInjector* injector) {
  fault_ = injector;
  pcie_.BindFaultInjector(injector);
}

void GpuDevice::BeforeStateChange() {
  if (sim_.Now() >= sample_due_) monitor_->CatchUp(monitor_slot_);
}

void GpuDevice::PublishMemoryGauges() {
  if (obs_ == nullptr) return;
  MemoryGauges& g = memory_gauges_;
  if (g.used == nullptr) {
    const std::string gpu = std::to_string(id_);
    const obs::Labels labels = {{"gpu", gpu}};
    g.used = &obs_->metrics.GetGauge("swapserve_gpu_used_bytes", labels);
    g.capacity =
        &obs_->metrics.GetGauge("swapserve_gpu_capacity_bytes", labels);
    g.allocations =
        &obs_->metrics.GetGauge("swapserve_gpu_allocations", labels);
  }
  g.used->Set(static_cast<double>(used_.count()));
  g.capacity->Set(static_cast<double>(spec_.memory.count()));
  g.allocations->Set(static_cast<double>(allocations_.size()));
}

Result<AllocationId> GpuDevice::Allocate(const std::string& owner, Bytes size,
                                         const std::string& purpose) {
  SWAP_CHECK_MSG(size.count() >= 0, "negative allocation");
  {
    fault::FaultDecision f = fault::Evaluate(fault_, "hw.acquire", owner);
    if (!f.status.ok()) return f.status;
  }
  if (used_ + size > spec_.memory) {
    return ResourceExhausted(
        "gpu" + std::to_string(id_) + ": " + owner + " requested " +
        size.ToString() + " (" + purpose + ") but only " +
        (spec_.memory - used_).ToString() + " free");
  }
  BeforeStateChange();
  const AllocationId id = next_allocation_id_++;
  allocations_.emplace(id, Allocation{owner, size, purpose});
  used_ += size;
  PublishMemoryGauges();
  return id;
}

Status GpuDevice::Free(AllocationId id) {
  auto it = allocations_.find(id);
  if (it == allocations_.end()) {
    return NotFound("gpu allocation " + std::to_string(id));
  }
  BeforeStateChange();
  used_ -= it->second.size;
  allocations_.erase(it);
  PublishMemoryGauges();
  return Status::Ok();
}

Bytes GpuDevice::FreeAllOwnedBy(const std::string& owner) {
  BeforeStateChange();
  Bytes freed(0);
  for (auto it = allocations_.begin(); it != allocations_.end();) {
    if (it->second.owner == owner) {
      freed += it->second.size;
      it = allocations_.erase(it);
    } else {
      ++it;
    }
  }
  used_ -= freed;
  PublishMemoryGauges();
  return freed;
}

Bytes GpuDevice::UsedBy(const std::string& owner) const {
  Bytes total(0);
  for (const auto& [id, alloc] : allocations_) {
    if (alloc.owner == owner) total += alloc.size;
  }
  return total;
}

std::vector<GpuDevice::AllocationInfo> GpuDevice::Allocations() const {
  std::vector<AllocationInfo> out;
  out.reserve(allocations_.size());
  for (const auto& [id, alloc] : allocations_) {
    out.push_back({id, alloc.owner, alloc.size, alloc.purpose});
  }
  return out;
}

void GpuDevice::BeginCompute() {
  if (active_compute_ == 0) {
    BeforeStateChange();
    busy_since_ = sim_.Now();
  }
  ++active_compute_;
}

void GpuDevice::EndCompute() {
  SWAP_CHECK_MSG(active_compute_ > 0, "EndCompute without BeginCompute");
  if (active_compute_ == 1) {
    BeforeStateChange();
    accumulated_busy_ += sim_.Now() - busy_since_;
  }
  --active_compute_;
}

sim::SimDuration GpuDevice::TotalBusyAt(sim::SimTime t) const {
  sim::SimDuration total = accumulated_busy_;
  if (active_compute_ > 0) total += t - busy_since_;
  return total;
}

}  // namespace swapserve::hw
