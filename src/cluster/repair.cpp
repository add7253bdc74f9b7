#include "cluster/repair.h"

#include <algorithm>

#include "cluster/health.h"
#include "engine/engine.h"
#include "obs/observability.h"
#include "util/log.h"

namespace swapserve::cluster {

ReplicationRepairer::ReplicationRepairer(sim::Simulation& sim,
                                         std::vector<Node*> nodes,
                                         SnapshotReplicator& replicator,
                                         BackendTable& backends,
                                         std::vector<core::ModelEntry> models,
                                         Options options)
    : sim_(sim),
      nodes_(std::move(nodes)),
      replicator_(replicator),
      backends_(backends),
      models_(std::move(models)),
      options_(options),
      active_(models_.size() * nodes_.size(), false),
      wake_(sim),
      loop_(sim, options_.interval, &wake_,
            {.pass =
                 [this]() -> sim::Task<> {
                   (void)ScanOnce();
                   co_return;
                 },
             .next_work =
                 [this] { return Settled() ? sim::kNever : sim_.Now(); }}) {
  if (options_.monitor == nullptr) return;  // the scan never parks
  options_.monitor->SetWakeHandler([this] { loop_.Poke(); });
  for (Node* node : nodes_) {
    node->serve().controller().SetResidencyHandler([this] { loop_.Poke(); });
    node->serve().snapshot_store().SetDropHandler([this] { loop_.Poke(); });
  }
}

ReplicationRepairer::~ReplicationRepairer() {
  if (options_.monitor == nullptr) return;
  options_.monitor->SetWakeHandler(nullptr);
  for (Node* node : nodes_) {
    node->serve().controller().SetResidencyHandler(nullptr);
    node->serve().snapshot_store().SetDropHandler(nullptr);
  }
}

bool ReplicationRepairer::Eligible(const Node& node) const {
  // A dead machine holds nothing usable; a kDown node may be alive behind
  // a partition but the fleet cannot reach its copies either way.
  return node.alive() && node.membership() != NodeState::kDown;
}

bool ReplicationRepairer::HoldsCopy(int model, Node& node) const {
  if (!Eligible(node)) return false;
  const core::Backend* backend = backends_.backend(model, node.id());
  if (backend == nullptr) return false;
  if (backend->engine->state() == engine::BackendState::kRunning) return true;
  if (backend->has_snapshot) {
    const ckpt::Snapshot* snap =
        node.serve().snapshot_store().Find(backend->snapshot);
    if (snap != nullptr && (snap->tier == ckpt::SnapshotTier::kHost ||
                            snap->tier == ckpt::SnapshotTier::kNvme)) {
      return true;
    }
  }
  return active_[Slot(model, node.id())];
}

int ReplicationRepairer::CountCopies(int model) const {
  int copies = 0;
  for (Node* node : nodes_) {
    if (HoldsCopy(model, *node)) ++copies;
  }
  return copies;
}

int ReplicationRepairer::Target() const {
  int eligible_nodes = 0;
  for (const Node* node : nodes_) {
    if (Eligible(*node)) ++eligible_nodes;
  }
  return std::min(options_.replicate, eligible_nodes);
}

bool ReplicationRepairer::Settled() const {
  if (options_.monitor == nullptr || !options_.monitor->parked()) return false;
  if (in_flight_ > 0) return false;
  const int target = Target();
  for (int model = 0; model < static_cast<int>(models_.size()); ++model) {
    // CountCopies(model) >= target, stopping at the target-th copy.
    int copies = 0;
    for (Node* node : nodes_) {
      if (copies >= target) break;
      if (HoldsCopy(model, *node)) ++copies;
    }
    if (copies < target) return false;
  }
  return true;
}

int ReplicationRepairer::ScanOnce() {
  int launched_now = 0;
  const int n = static_cast<int>(nodes_.size());
  for (int model = 0; model < static_cast<int>(models_.size()); ++model) {
    if (in_flight() >= options_.concurrency) break;
    const core::ModelEntry& m = models_[static_cast<std::size_t>(model)];
    const int target = Target();
    int copies = CountCopies(model);
    if (copies >= target) continue;
    for (int dst : ReplicaRingOrder(m.model_id, m.node, n)) {
      if (copies >= target || in_flight() >= options_.concurrency) break;
      Node& node = *nodes_[dst];
      if (!Eligible(node)) continue;
      BackendTable::Cell& cell = backends_.cell(model, dst);
      core::Backend* standby = cell.backend;
      if (standby == nullptr || !standby->has_snapshot) continue;
      const std::size_t slot = Slot(model, dst);
      if (active_[slot]) continue;
      const ckpt::Snapshot* snap =
          node.serve().snapshot_store().Find(standby->snapshot);
      if (snap == nullptr || snap->tier != ckpt::SnapshotTier::kRemote) {
        continue;
      }
      if (!replicator_.HasPayloadSource(dst, standby->owner())) {
        // Only a running engine (or nothing) survives: see header — the
        // deficit heals at the model's next natural checkpoint.
        break;
      }
      active_[slot] = true;
      ++in_flight_;
      ++launched_;
      if (launch_hook_) launch_hook_(m.model_id, dst);
      ++launched_now;
      obs::IncCounter(&node.serve().obs(), cell.repaired,
                      "swapserve_cluster_repair_total",
                      {{"model", m.model_id}, {"node", node.name()}});
      const ckpt::SnapshotId id = standby->snapshot;
      sim_.Go([this, dst, id, model, slot]() -> sim::Task<> {
        Status s = co_await replicator_.Fetch(
            dst, id, hw::TransferPriority::kBackground);
        active_[slot] = false;
        --in_flight_;
        if (s.ok()) {
          ++completed_;
        } else {
          ++failed_;
          SWAP_LOG(kWarning, "cluster")
              << "replication repair of "
              << models_[static_cast<std::size_t>(model)].model_id
              << " to node" << dst << " failed: " << s.ToString();
        }
      });
      ++copies;
    }
  }
  return launched_now;
}

}  // namespace swapserve::cluster
