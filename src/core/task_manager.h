// The task manager (§3.1 circles 5-7, §3.4): GPU memory reservations with a
// FIFO priority queue and scoped acquire-release semantics.
//
// Invariants (property-tested):
//  * granted reservations + device allocations never exceed GPU capacity;
//  * grants are strictly FIFO per GPU — a reservation is never bypassed by
//    a younger one, even if the younger one would fit (no starvation);
//  * when the head cannot be satisfied, the demand-aware reclaim delegate
//    (engine controller) is invoked to swap out victims; if nothing can be
//    reclaimed and no reservation is outstanding, the head fails rather
//    than deadlocking the queue.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "hw/gpu_device.h"
#include "obs/observability.h"
#include "sim/simulation.h"
#include "sim/small_ring.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "util/name.h"
#include "util/status.h"
#include "util/units.h"

namespace swapserve::core {

class TaskManager {
 public:
  // Implemented by the engine controller: frees >= `needed` bytes on `gpu`
  // by preempting backends (best effort; returns bytes actually freed).
  class ReclaimDelegate {
   public:
    virtual ~ReclaimDelegate() = default;
    // `requester` is an interned Name, copied by value like any owner: the
    // reclaim coroutine can outlive the waiter that names the requester (a
    // concurrent release may grant the head mid-reclaim and destroy its
    // frame), and a Name stays readable for the life of the process.
    virtual sim::Task<Bytes> ReclaimMemory(hw::GpuId gpu, Bytes needed,
                                           Name requester) = 0;
  };

  // `gpus` are one host's devices in id order, numbered 0..n-1.
  TaskManager(sim::Simulation& sim, std::vector<hw::GpuDevice*> gpus);
  TaskManager(const TaskManager&) = delete;
  TaskManager& operator=(const TaskManager&) = delete;

  void set_delegate(ReclaimDelegate* delegate) { delegate_ = delegate; }

  // Scoped claim on reservable GPU memory. Released explicitly (once the
  // engine's real allocation replaced it) or by destruction.
  class [[nodiscard]] Reservation {
   public:
    Reservation() = default;
    Reservation(Reservation&& o) noexcept
        : manager_(std::exchange(o.manager_, nullptr)),
          gpu_(o.gpu_),
          bytes_(o.bytes_) {}
    Reservation& operator=(Reservation&& o) noexcept {
      if (this != &o) {
        Release();
        manager_ = std::exchange(o.manager_, nullptr);
        gpu_ = o.gpu_;
        bytes_ = o.bytes_;
      }
      return *this;
    }
    ~Reservation() { Release(); }

    void Release() {
      if (manager_ != nullptr) {
        std::exchange(manager_, nullptr)->ReleaseReservation(gpu_, bytes_);
      }
    }
    [[nodiscard]] bool active() const { return manager_ != nullptr; }
    Bytes bytes() const { return bytes_; }

   private:
    friend class TaskManager;
    Reservation(TaskManager* m, hw::GpuId gpu, Bytes bytes)
        : manager_(m), gpu_(gpu), bytes_(bytes) {}
    TaskManager* manager_ = nullptr;
    hw::GpuId gpu_ = 0;
    Bytes bytes_{0};
  };

  // Await a reservation of `bytes` on `gpu`. FIFO; triggers reclaim when
  // the head does not fit. Fails with RESOURCE_EXHAUSTED when the request
  // can never be satisfied.
  sim::Task<Result<Reservation>> Reserve(hw::GpuId gpu, Bytes bytes,
                                         Name owner);

  // Memory that can be reserved right now: device free minus outstanding
  // reservations not yet converted into allocations.
  Bytes Reservable(hw::GpuId gpu) const;
  Bytes OutstandingReserved(hw::GpuId gpu) const;
  std::size_t PendingRequests(hw::GpuId gpu) const;
  const std::vector<hw::GpuDevice*>& gpus() const { return gpus_; }
  // "gpu<N>": the trace track of everything that happens on one GPU.
  std::string_view trace_track(hw::GpuId gpu) const {
    return Queue(gpu).track;
  }

  // Wake the grant loop after external memory-state changes (the engine
  // controller calls this after a swap-out frees device memory).
  void NotifyMemoryReleased(hw::GpuId gpu) { Pump(gpu); }

  // Emit reserve-wait spans, reserved-bytes gauges, and reclaim counters
  // (nullable).
  void BindObservability(obs::Observability* obs) {
    obs_ = obs;
    for (GpuQueue& q : queues_) {
      q.reserved_gauge = nullptr;
      q.queue_depth_gauge = nullptr;
      q.reclaims = nullptr;
    }
  }

 private:
  struct Waiter {
    Name owner;
    Bytes bytes{0};
    sim::SimEvent event;
    bool granted = false;
    Status failure;
    // Identity that survives the waiter's death: the waiter lives in its
    // Reserve coroutine frame, which a concurrent grant can destroy while
    // ReclaimForHead is suspended. Code that resumes after a suspension
    // must re-identify the head by ticket, never by the retained pointer
    // (freed frames can be reallocated at the same address).
    std::uint64_t ticket = 0;
    explicit Waiter(sim::Simulation& sim) : event(sim) {}
  };

  struct GpuQueue {
    hw::GpuDevice* device = nullptr;
    Bytes outstanding{0};
    sim::SmallRing<Waiter*> waiters;
    bool reclaiming = false;
    std::string track;  // "gpu<N>", the trace track of reserve waits
    // Resolved on the first write; reset by BindObservability.
    obs::Gauge* reserved_gauge = nullptr;
    obs::Gauge* queue_depth_gauge = nullptr;
    obs::Counter* reclaims = nullptr;
  };

  void ReleaseReservation(hw::GpuId gpu, Bytes bytes);
  void Pump(hw::GpuId gpu);
  sim::Task<> ReclaimForHead(hw::GpuId gpu);
  GpuQueue& Queue(hw::GpuId gpu);
  const GpuQueue& Queue(hw::GpuId gpu) const;
  void PublishGauges(hw::GpuId gpu);

  obs::Observability* obs_ = nullptr;
  sim::Simulation& sim_;
  std::vector<hw::GpuDevice*> gpus_;
  // One queue per device, indexed by GPU id; built once, never resized,
  // so a GpuQueue& stays valid for the manager's lifetime.
  std::vector<GpuQueue> queues_;
  ReclaimDelegate* delegate_ = nullptr;
  std::uint64_t next_ticket_ = 1;
};

}  // namespace swapserve::core
