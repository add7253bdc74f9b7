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
                                         std::vector<core::ModelEntry> models,
                                         Options options)
    : sim_(sim),
      nodes_(std::move(nodes)),
      replicator_(replicator),
      models_(std::move(models)),
      options_(options),
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

int ReplicationRepairer::CountCopies(const std::string& model_id) const {
  int copies = 0;
  for (const Node* node : nodes_) {
    if (!Eligible(*node)) continue;
    Node& n = const_cast<Node&>(*node);  // backend lookup is non-const
    core::Backend* backend = n.serve().backend(model_id);
    if (backend == nullptr) continue;
    if (backend->engine->state() == engine::BackendState::kRunning) {
      ++copies;
      continue;
    }
    if (backend->has_snapshot) {
      Result<ckpt::Snapshot> snap =
          n.serve().snapshot_store().Get(backend->snapshot);
      if (snap.ok() && (snap->tier == ckpt::SnapshotTier::kHost ||
                        snap->tier == ckpt::SnapshotTier::kNvme)) {
        ++copies;
        continue;
      }
    }
    if (active_.count({model_id, node->id()}) > 0) ++copies;
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
  if (!active_.empty()) return false;
  const int target = Target();
  for (const core::ModelEntry& m : models_) {
    if (CountCopies(m.model_id) < target) return false;
  }
  return true;
}

int ReplicationRepairer::ScanOnce() {
  int launched_now = 0;
  const int n = static_cast<int>(nodes_.size());
  for (const core::ModelEntry& m : models_) {
    if (in_flight() >= options_.concurrency) break;
    const int target = Target();
    int copies = CountCopies(m.model_id);
    if (copies >= target) continue;
    for (int dst : ReplicaRingOrder(m.model_id, m.node, n)) {
      if (copies >= target || in_flight() >= options_.concurrency) break;
      Node& node = *nodes_[dst];
      if (!Eligible(node)) continue;
      core::Backend* standby = node.serve().backend(m.model_id);
      if (standby == nullptr || !standby->has_snapshot) continue;
      if (active_.count({m.model_id, dst}) > 0) continue;
      Result<ckpt::Snapshot> snap =
          node.serve().snapshot_store().Get(standby->snapshot);
      if (!snap.ok() || snap->tier != ckpt::SnapshotTier::kRemote) continue;
      if (!replicator_.HasPayloadSource(dst, m.model_id)) {
        // Only a running engine (or nothing) survives: see header — the
        // deficit heals at the model's next natural checkpoint.
        break;
      }
      active_.insert({m.model_id, dst});
      ++launched_;
      if (launch_hook_) launch_hook_(m.model_id, dst);
      ++launched_now;
      obs::IncCounter(&node.serve().obs(), "swapserve_cluster_repair_total",
                      {{"model", m.model_id}, {"node", node.name()}});
      const std::string model = m.model_id;
      const ckpt::SnapshotId id = standby->snapshot;
      sim_.Go([this, dst, id, model]() -> sim::Task<> {
        Status s = co_await replicator_.Fetch(
            dst, id, hw::TransferPriority::kBackground);
        active_.erase({model, dst});
        if (s.ok()) {
          ++completed_;
        } else {
          ++failed_;
          SWAP_LOG(kWarning, "cluster")
              << "replication repair of " << model << " to node" << dst
              << " failed: " << s.ToString();
        }
      });
      ++copies;
    }
  }
  return launched_now;
}

}  // namespace swapserve::cluster
