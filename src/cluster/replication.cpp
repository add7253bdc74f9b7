#include "cluster/replication.h"

#include "ckpt/snapshot_tier.h"
#include "fault/fault_injector.h"
#include "obs/observability.h"
#include "util/log.h"

namespace swapserve::cluster {

std::vector<int> ReplicaRingOrder(const std::string& model_id, int home,
                                  int nodes) {
  std::vector<int> order;
  if (nodes < 2) return order;  // single-node fleet: nothing to walk
  const int offset =
      1 + static_cast<int>(fault::StableHash(model_id) %
                           static_cast<std::uint64_t>(nodes - 1));
  for (int step = 0; step < nodes; ++step) {
    const int id = (home + offset + step) % nodes;
    if (id != home) order.push_back(id);
  }
  return order;
}

SnapshotReplicator::SnapshotReplicator(sim::Simulation& sim,
                                       std::vector<Node*> nodes,
                                       Fabric& fabric, BackendTable& backends)
    : sim_(sim),
      nodes_(std::move(nodes)),
      fabric_(fabric),
      backends_(backends) {}

Result<ckpt::SnapshotId> SnapshotReplicator::InstallPlaceholder(
    int dst, const ckpt::Snapshot& src) {
  ckpt::Snapshot placeholder = src;
  placeholder.id = 0;  // the destination store assigns its own id
  placeholder.tier = ckpt::SnapshotTier::kRemote;
  return nodes_[dst]->serve().snapshot_store().Put(placeholder);
}

std::optional<SnapshotReplicator::Source> SnapshotReplicator::FindSource(
    int dst, Name owner) {
  std::optional<Source> nvme_fallback;
  for (Node* node : nodes_) {
    if (node->id() == dst) continue;
    // A dead machine serves nothing and a blackholed pair moves nothing:
    // both make this copy invisible until the fault heals (crash detection
    // and partition behaviour share this path with the heartbeats).
    if (!node->alive()) continue;
    if (!fabric_.Reachable(node->id(), dst)) continue;
    const ckpt::Snapshot* found =
        node->serve().snapshot_store().FindByOwner(owner);
    if (found == nullptr) continue;
    if (found->tier == ckpt::SnapshotTier::kHost) {
      return Source{node->id(), found->tier};
    }
    if (found->tier == ckpt::SnapshotTier::kNvme && !nvme_fallback) {
      nvme_fallback = Source{node->id(), found->tier};
    }
  }
  return nvme_fallback;
}

bool SnapshotReplicator::HasPayloadSource(int dst, Name owner) {
  return FindSource(dst, owner).has_value();
}

sim::Task<Status> SnapshotReplicator::Fetch(int dst, ckpt::SnapshotId dst_id,
                                            hw::TransferPriority priority) {
  const auto key = std::make_pair(dst, dst_id);
  if (auto it = pending_.find(key); it != pending_.end()) {
    std::shared_ptr<Pending> pending = it->second;
    co_await pending->done.Wait();
    co_return pending->status;
  }
  auto pending = std::make_shared<Pending>(sim_);
  pending_.emplace(key, pending);
  pending->status = co_await DoFetch(dst, dst_id, priority);
  pending_.erase(key);
  pending->done.Set();
  co_return pending->status;
}

sim::Task<Status> SnapshotReplicator::DoFetch(int dst,
                                              ckpt::SnapshotId dst_id,
                                              hw::TransferPriority priority) {
  Node& node = *nodes_[dst];
  ckpt::SnapshotStore& store = node.serve().snapshot_store();
  if (!node.alive()) {
    ++fetch_failures_;
    co_return Unavailable("cluster fetch: " + node.name() + " is down");
  }
  const ckpt::Snapshot* placeholder = store.Find(dst_id);
  if (placeholder == nullptr) {
    co_return NotFound("snapshot " + std::to_string(dst_id));
  }
  if (placeholder->tier != ckpt::SnapshotTier::kRemote) co_return Status::Ok();
  // The fetch reads the placeholder after its fault stall and transfers,
  // when the store may have dropped it: copy it.
  const ckpt::Snapshot snap = *placeholder;

  std::optional<Source> source = FindSource(dst, snap.owner);
  if (!source) {
    ++fetch_failures_;
    co_return NotFound("cluster fetch: no payload copy of " +
                       snap.owner.str() + " anywhere in the fleet");
  }

  // Ledger: admitted but not yet landed (drains to zero — chaos invariant).
  ++in_flight_;
  in_flight_bytes_ += snap.dirty_bytes;
  const auto settle = [&](Status status) {
    --in_flight_;
    in_flight_bytes_ -= snap.dirty_bytes;
    if (!status.ok()) ++fetch_failures_;
    return status;
  };

  fault::FaultDecision decision = fault::Evaluate(
      &node.serve().fault_injector(), "cluster.fetch", snap.owner);
  if (decision.stall.ns() > 0) co_await sim_.Delay(decision.stall);
  // kDataLoss lands the payload and corrupts it afterwards; anything else
  // aborts before bytes move (retryable — the placeholder survives).
  const bool poison =
      !decision.status.ok() &&
      decision.status.code() == StatusCode::kDataLoss;
  if (!decision.status.ok() && !poison) {
    co_return settle(decision.status);
  }

  // An NVMe-resident source stages its payload through a local read before
  // the bytes can go on the wire; a host-resident source streams directly.
  if (source->tier == ckpt::SnapshotTier::kNvme) {
    co_await nodes_[source->node]->storage().ReadFile(snap.dirty_bytes,
                                                      priority);
  }
  co_await fabric_.Transfer(source->node, dst, snap.dirty_bytes, priority);

  // The destination can die while bytes are on the wire: the transfer
  // consumed fabric time, but nothing lands in a powered-off machine.
  if (!node.alive()) {
    co_return settle(Unavailable("cluster fetch: " + node.name() +
                                 " died mid-transfer"));
  }

  // Land the payload in the destination's host tier. The tier manager
  // admits the bytes first (a bounded cache may evict cold snapshots to
  // NVMe) and registers the entry so later demotions see it.
  ckpt::SnapshotTierManager& tier = *node.serve().tier_manager();
  Status landed = co_await tier.AdmitHostBytes(snap.dirty_bytes);
  if (landed.ok()) {
    landed = store.MarkFetched(dst_id);
    if (landed.ok()) {
      tier.OnPut(dst_id);
    } else {
      tier.CancelAdmission(snap.dirty_bytes);
    }
  }
  if (!landed.ok()) co_return settle(landed);

  ++fetches_;
  fetched_bytes_ += snap.dirty_bytes;
  const int model = backends_.Find(snap.owner);
  SWAP_CHECK_MSG(model >= 0, "fetched a snapshot of a model the fleet does "
                             "not serve: " + snap.owner.str());
  obs::IncCounter(&node.serve().obs(), backends_.cell(model, dst).fetched,
                  "swapserve_cluster_fetch_total",
                  {{"node", node.name()}, {"owner", snap.owner}});
  if (poison) {
    SWAP_LOG(kWarning, "cluster")
        << "cluster.fetch corrupted " << snap.owner << " payload landing on "
        << node.name() << " (checksum will catch it on restore)";
    Status corrupt = store.Corrupt(dst_id);
    if (!corrupt.ok()) co_return settle(corrupt);
  }
  co_return settle(Status::Ok());
}

sim::SimDuration SnapshotReplicator::EstimatedFetchTime(
    int dst, ckpt::SnapshotId dst_id) {
  const ckpt::Snapshot* snap =
      nodes_[dst]->serve().snapshot_store().Find(dst_id);
  if (snap == nullptr || snap->tier != ckpt::SnapshotTier::kRemote) {
    return sim::SimDuration(0);
  }
  std::optional<Source> source = FindSource(dst, snap->owner);
  // No payload anywhere: the fetch would fail and the restore fall back to
  // a cold start, so cost it like one.
  if (!source) return sim::Minutes(10);
  sim::SimDuration est =
      fabric_.EstimatedTransferTime(source->node, dst, snap->dirty_bytes);
  if (source->tier == ckpt::SnapshotTier::kNvme) {
    est += nodes_[source->node]->storage().EstimatedReadTime(
        snap->dirty_bytes);
  }
  return est;
}

}  // namespace swapserve::cluster
