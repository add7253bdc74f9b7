#include "core/snapshot_prefetcher.h"

namespace swapserve::core {

ckpt::SnapshotTierManager::VictimFilter SnapshotPrefetcher::DemandFilter(
    const Backend& target) const {
  // The filter outlives this call (it rides along with the detached
  // promotion coroutine); it borrows the registry and the target backend,
  // which live as long as the serving system. Two pointers of captures fit
  // std::function's inline buffer, so building it does not allocate.
  return [&backends = backends_, target = &target](Name owner) {
    if (owner == target->owner()) return false;  // never self-evict
    auto it = backends.find(owner.str());
    // Unknown owners (snapshots outside the serving registry) are fair
    // game; known ones only when nothing is queued or running for them.
    return it == backends.end() || it->second->Demand() == 0;
  };
}

void SnapshotPrefetcher::Trigger(Backend& backend,
                                 hw::TransferPriority priority) {
  // Most arrivals find nothing to promote: check before building a filter.
  if (!backend.has_snapshot || !tier_.CanPrefetch(backend.snapshot)) return;
  tier_.Prefetch(backend.snapshot, priority, DemandFilter(backend));
  metrics_.RecordPrefetch(backend.MetricsHandle(metrics_));
}

void SnapshotPrefetcher::NoteArrival(Backend& backend) {
  Trigger(backend, hw::TransferPriority::kBackground);
}

void SnapshotPrefetcher::NoteSwapInStart(Backend& backend) {
  Trigger(backend, hw::TransferPriority::kUrgent);
}

}  // namespace swapserve::core
