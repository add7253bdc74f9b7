#include "core/task_manager.h"

#include <algorithm>
#include <utility>

#include "util/log.h"

namespace swapserve::core {

TaskManager::TaskManager(sim::Simulation& sim,
                         std::vector<hw::GpuDevice*> gpus)
    : sim_(sim), gpus_(std::move(gpus)), queues_(gpus_.size()) {
  SWAP_CHECK_MSG(!gpus_.empty(), "task manager needs at least one GPU");
  for (std::size_t i = 0; i < gpus_.size(); ++i) {
    SWAP_CHECK_MSG(gpus_[i]->id() == static_cast<hw::GpuId>(i),
                   "GPU ids must be 0..n-1 in order");
    queues_[i].device = gpus_[i];
    queues_[i].track = "gpu" + std::to_string(i);
  }
}

TaskManager::GpuQueue& TaskManager::Queue(hw::GpuId gpu) {
  return const_cast<GpuQueue&>(std::as_const(*this).Queue(gpu));
}

const TaskManager::GpuQueue& TaskManager::Queue(hw::GpuId gpu) const {
  SWAP_CHECK_MSG(gpu >= 0 && static_cast<std::size_t>(gpu) < queues_.size(),
                 "unknown GPU id");
  return queues_[static_cast<std::size_t>(gpu)];
}

Bytes TaskManager::Reservable(hw::GpuId gpu) const {
  const GpuQueue& q = Queue(gpu);
  return std::max(Bytes(0), q.device->free() - q.outstanding);
}

Bytes TaskManager::OutstandingReserved(hw::GpuId gpu) const {
  return Queue(gpu).outstanding;
}

std::size_t TaskManager::PendingRequests(hw::GpuId gpu) const {
  return Queue(gpu).waiters.size();
}

sim::Task<Result<TaskManager::Reservation>> TaskManager::Reserve(
    hw::GpuId gpu, Bytes bytes, Name owner) {
  GpuQueue& q = Queue(gpu);
  if (bytes.count() < 0) co_return InvalidArgument("negative reservation");
  if (bytes > q.device->capacity()) {
    co_return ResourceExhausted("reservation of " + bytes.ToString() +
                                " exceeds GPU capacity " +
                                q.device->capacity().ToString());
  }

  Waiter waiter(sim_);
  waiter.owner = owner;
  waiter.bytes = bytes;
  waiter.ticket = next_ticket_++;
  q.waiters.push_back(&waiter);
  obs::Span wait_span =
      obs::StartSpan(obs_, "tm.reserve_wait", "task-mgr", q.track);
  wait_span.AddArg("owner", waiter.owner.str());
  wait_span.AddArg("bytes", bytes.count());
  PublishGauges(gpu);
  Pump(gpu);
  co_await waiter.event.Wait();
  wait_span.AddArg("status", waiter.granted ? "granted" : "failed");
  wait_span.End();

  if (!waiter.granted) co_return waiter.failure;
  co_return Reservation(this, gpu, bytes);
}

void TaskManager::ReleaseReservation(hw::GpuId gpu, Bytes bytes) {
  GpuQueue& q = Queue(gpu);
  SWAP_CHECK_MSG(q.outstanding >= bytes, "reservation over-release");
  q.outstanding -= bytes;
  PublishGauges(gpu);
  Pump(gpu);
}

void TaskManager::PublishGauges(hw::GpuId gpu) {
  if (obs_ == nullptr) return;
  GpuQueue& q = Queue(gpu);
  if (q.reserved_gauge == nullptr) {
    const std::string id = std::to_string(gpu);
    const obs::Labels labels = {{"gpu", id}};
    q.reserved_gauge =
        &obs_->metrics.GetGauge("swapserve_gpu_reserved_bytes", labels);
    q.queue_depth_gauge =
        &obs_->metrics.GetGauge("swapserve_reservation_queue_depth", labels);
  }
  q.reserved_gauge->Set(static_cast<double>(q.outstanding.count()));
  q.queue_depth_gauge->Set(static_cast<double>(q.waiters.size()));
}

void TaskManager::Pump(hw::GpuId gpu) {
  GpuQueue& q = Queue(gpu);
  while (!q.waiters.empty()) {
    Waiter* head = q.waiters.front();
    if (head->bytes <= Reservable(gpu)) {
      q.outstanding += head->bytes;
      head->granted = true;
      q.waiters.pop_front();
      PublishGauges(gpu);
      head->event.Set();
      continue;
    }
    // Head does not fit: reclaim (once) and re-pump when it finishes.
    if (!q.reclaiming) {
      q.reclaiming = true;
      sim_.Go([this, gpu]() -> sim::Task<> {
        co_await ReclaimForHead(gpu);
      });
    }
    break;
  }
}

sim::Task<> TaskManager::ReclaimForHead(hw::GpuId gpu) {
  GpuQueue& q = Queue(gpu);
  SWAP_CHECK(q.reclaiming);
  if (q.waiters.empty()) {
    q.reclaiming = false;
    co_return;
  }
  // Capture the head by ticket, not pointer: the waiter lives inside its
  // Reserve coroutine frame, and a concurrent release can grant it — and
  // destroy that frame — while the reclaim below is suspended. The retained
  // pointer would then dangle (and a recycled frame could even alias it).
  const std::uint64_t head_ticket = q.waiters.front()->ticket;
  const Bytes needed =
      std::max(Bytes(0), q.waiters.front()->bytes - Reservable(gpu));

  Bytes freed(0);
  if (delegate_ != nullptr && needed.count() > 0) {
    // The track is "gpu<N>": its digits are the gpu label.
    obs::IncCounter(obs_, q.reclaims, "swapserve_reclaims_total",
                    {{"gpu", std::string_view(q.track).substr(3)}});
    freed = co_await delegate_->ReclaimMemory(gpu, needed,
                                              q.waiters.front()->owner);
  }
  q.reclaiming = false;

  // The head may already have been satisfied by a concurrent release.
  if (q.waiters.empty() || q.waiters.front()->ticket != head_ticket) {
    Pump(gpu);
    co_return;
  }
  Waiter* head = q.waiters.front();
  if (head->bytes <= Reservable(gpu)) {
    Pump(gpu);
    co_return;
  }
  if (q.outstanding.count() > 0) {
    // Other reservations are still in flight; their release can unblock
    // the head. Pump() re-runs on every release.
    SWAP_LOG(kDebug, "task-manager")
        << "head reservation for " << head->owner << " waits on "
        << q.outstanding.ToString() << " outstanding";
    co_return;
  }
  // Nothing reclaimable, nothing outstanding: the request can never be
  // satisfied. Fail it so the queue keeps moving.
  head->failure = ResourceExhausted(
      "cannot free " + needed.ToString() + " on gpu" + std::to_string(gpu) +
      " for " + head->owner.str() + " (reclaimed " + freed.ToString() +
      ")");
  q.waiters.pop_front();
  head->event.Set();
  Pump(gpu);
}

}  // namespace swapserve::core
