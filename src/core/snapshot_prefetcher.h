// Demand-aware snapshot prefetch (tiered-store counterpart of the paper's
// demand-aware preemption policy): use the serving layer's demand signals
// to promote a demoted snapshot NVMe->host *before* its swap-in needs it.
//
// Two triggers, increasing urgency:
//   - NoteArrival    (request handler): a request was queued for a swapped
//     out backend — start a background-priority promotion now, while the
//     scheduler is still deciding placement.
//   - NoteSwapInStart (scheduler): the swap-in is committed — escalate to
//     an urgent promotion that overlaps the victim's D2H eviction drain
//     (independent links: the storage device vs the PCIe bus).
//
// The victim filter is where demand-awareness bites: a promotion may only
// demote snapshots of backends with zero current demand, so prefetching one
// hot model cannot thrash another hot model's snapshot out of the cache.

#pragma once

#include <map>
#include <string>

#include "ckpt/snapshot_tier.h"
#include "core/backend.h"
#include "core/metrics.h"

namespace swapserve::core {

class SnapshotPrefetcher {
 public:
  // `backends` is the handler's registry (name -> backend); held by
  // reference and read on every trigger, so late registrations are seen.
  SnapshotPrefetcher(
      ckpt::SnapshotTierManager& tier,
      const std::map<std::string, Backend*, std::less<>>& backends,
      Metrics& metrics)
      : tier_(tier), backends_(backends), metrics_(metrics) {}

  void NoteArrival(Backend& backend);
  void NoteSwapInStart(Backend& backend);

 private:
  // Issue a promotion for the backend's snapshot at `priority` if it is
  // demoted and idle; records the prefetch metric when one is issued.
  void Trigger(Backend& backend, hw::TransferPriority priority);
  ckpt::SnapshotTierManager::VictimFilter DemandFilter(
      const std::string& target) const;

  ckpt::SnapshotTierManager& tier_;
  const std::map<std::string, Backend*, std::less<>>& backends_;
  Metrics& metrics_;
};

}  // namespace swapserve::core
