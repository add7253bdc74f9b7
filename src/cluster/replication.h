// Cross-node snapshot movement.
//
// Every non-home node holds a *placeholder* for each model it can stand in
// for: the snapshot's metadata with tier == kRemote and no local payload.
// The replicator turns placeholders into restorable host-resident copies
// by streaming the dirty bytes over the fabric — eagerly at background
// priority (configured replication factor) or on demand at urgent priority
// when a swap-in hits a placeholder (via CheckpointEngine::BindRemoteTier).
//
// Fault point "cluster.fetch" (owner = snapshot owner, evaluated on the
// destination node's injector): a stall delays the fetch, a failing status
// aborts it before bytes move — except kDataLoss, which lets the transfer
// land and then corrupts the copy, modelling bit rot on the wire that only
// the restore-time checksum catches.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ckpt/snapshot_store.h"
#include "cluster/backend_table.h"
#include "cluster/fabric.h"
#include "cluster/node.h"
#include "hw/link.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "util/status.h"

namespace swapserve::cluster {

// The order in which replication (eager spread at Initialize and repair
// after a holder dies) visits candidate nodes for `model_id`: a ring walk
// from a per-model hash offset, home node excluded. The offset spreads
// replicas across the fleet instead of piling them onto the lowest node
// ids; repair skips ineligible entries (down nodes, existing holders) and
// keeps walking, so a walk landing on a dead node just moves on.
std::vector<int> ReplicaRingOrder(const std::string& model_id, int home,
                                  int nodes);

class SnapshotReplicator {
 public:
  // `backends` (the fleet's table, whose rows name every snapshot owner)
  // must outlive the replicator.
  SnapshotReplicator(sim::Simulation& sim, std::vector<Node*> nodes,
                     Fabric& fabric, BackendTable& backends);
  SnapshotReplicator(const SnapshotReplicator&) = delete;
  SnapshotReplicator& operator=(const SnapshotReplicator&) = delete;

  // Install a metadata-only copy of `src` in node `dst`'s store (tier
  // kRemote, no host RAM charged). Synchronous and free of virtual time —
  // placeholders are bookkeeping, not data movement.
  Result<ckpt::SnapshotId> InstallPlaceholder(int dst,
                                              const ckpt::Snapshot& src);

  // Bring snapshot `dst_id`'s payload to node `dst`. Already-local
  // snapshots return Ok immediately; concurrent fetches of the same
  // (node, snapshot) pair dedupe onto one transfer. The payload source is
  // located by owner across the fleet (host-resident copies preferred; an
  // NVMe-resident source pays its local read first). Dead or blackholed
  // source nodes are never used, and a fetch into a dead node fails
  // kUnavailable — a powered-off machine serves and lands nothing.
  sim::Task<Status> Fetch(int dst, ckpt::SnapshotId dst_id,
                          hw::TransferPriority priority);

  // Queue-aware cost of Fetch (0 for already-local snapshots) — the
  // remote term of EstimatedSwapInTime and the placement cost model.
  sim::SimDuration EstimatedFetchTime(int dst, ckpt::SnapshotId dst_id);

  // Does any other node hold a non-placeholder copy for `owner`?
  bool HasPayloadSource(int dst, std::string_view owner);

  // Replication ledger: fetches admitted but not yet landed. The chaos
  // property test asserts this drains to zero after every run.
  int in_flight() const { return in_flight_; }
  Bytes in_flight_bytes() const { return in_flight_bytes_; }
  std::uint64_t fetches() const { return fetches_; }
  Bytes fetched_bytes() const { return fetched_bytes_; }
  std::uint64_t fetch_failures() const { return fetch_failures_; }

 private:
  struct Pending {
    explicit Pending(sim::Simulation& sim) : done(sim) {}
    sim::SimEvent done;
    Status status = Status::Ok();
  };
  struct Source {
    int node = -1;
    ckpt::SnapshotTier tier = ckpt::SnapshotTier::kHost;
  };

  std::optional<Source> FindSource(int dst, std::string_view owner);
  sim::Task<Status> DoFetch(int dst, ckpt::SnapshotId dst_id,
                            hw::TransferPriority priority);

  sim::Simulation& sim_;
  std::vector<Node*> nodes_;
  Fabric& fabric_;
  BackendTable& backends_;
  std::map<std::pair<int, ckpt::SnapshotId>, std::shared_ptr<Pending>>
      pending_;
  int in_flight_ = 0;
  Bytes in_flight_bytes_{0};
  std::uint64_t fetches_ = 0;
  Bytes fetched_bytes_{0};
  std::uint64_t fetch_failures_ = 0;
};

}  // namespace swapserve::cluster
