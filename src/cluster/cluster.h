// ClusterServe: an N-node fleet of SwapServe machines behind one router.
//
// Each node is a full single-machine deployment (GPUs, NVMe, container
// runtime, scheduler). The fleet layer adds:
//   - per-node config slicing: every model cold-starts once on its home
//     node; other nodes that can fit it get a *standby* entry whose engine
//     adopts a replicated checkpoint instead of initializing (zero time);
//   - metadata placeholders (tier kRemote) + a SnapshotReplicator that
//     streams payloads over the hw::Link fabric, eagerly up to
//     cluster.replicate copies and on demand at swap-in;
//   - locality-aware placement routing each accepted request to the node
//     that can start serving it soonest;
//   - optional live swap migration: a periodic sweep (a sim::GridLoop that
//     never parks) re-scores resident models and moves one (drain ->
//     checkpoint -> fetch -> re-dispatch queued requests) when another node
//     wins by the hysteresis margin;
//   - node-level fault domains and self-healing: a heartbeat-driven
//     HealthMonitor classifies nodes healthy/suspect/down/rejoining; a
//     node declared down has its queued requests drained and re-dispatched
//     to survivors, its home models promoted from replicated snapshots,
//     and its replica holdings re-replicated by the ReplicationRepairer;
//     the node.crash / node.partition / node.restart fault points inject
//     whole-machine outages and fabric partitions from the config plan.
//
// With cluster.nodes == 1 (the default) none of this exists: no fabric,
// no replicator, no migration loop, no monitor, Accept is a pass-through —
// the event stream is byte-identical to a plain SwapServe (golden-gated).

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/backend_table.h"
#include "cluster/fabric.h"
#include "cluster/health.h"
#include "cluster/node.h"
#include "cluster/placement.h"
#include "cluster/repair.h"
#include "cluster/replication.h"
#include "core/config.h"
#include "core/swap_serve.h"
#include "core/types.h"
#include "model/catalog.h"
#include "sim/grid_loop.h"
#include "sim/simulation.h"
#include "util/status.h"

namespace swapserve::cluster {

class ClusterServe {
 public:
  // `config` must already be Validate()d; `catalog` must outlive the
  // cluster (nodes keep references).
  ClusterServe(sim::Simulation& sim, core::Config config,
               const model::ModelCatalog& catalog,
               core::SwapServeOptions options = {});
  ClusterServe(const ClusterServe&) = delete;
  ClusterServe& operator=(const ClusterServe&) = delete;

  // Initialize every node (home models cold-start and snapshot; standby
  // replicas adopt), install placeholders, kick off background
  // replication, and start the migration sweep if configured.
  sim::Task<Status> Initialize();

  // Stop the migration loop and close every node's queues.
  void Shutdown();

  // Route a request to a node by placement score and enqueue it there.
  Result<core::ResponseChannelPtr> Accept(
      const core::InferenceRequest& request);

  // Convenience mirroring SwapServe::ChatAndWait through cluster routing:
  // the name is resolved before the task starts, the request is routed on
  // its first resume.
  // swaplint-ok(coro-ref-param): not a coroutine; the name is resolved before the task exists
  sim::Task<core::ChatResult> ChatAndWait(std::string_view model_id,
                                          std::int64_t prompt_tokens,
                                          std::int64_t max_tokens);

  int nodes() const { return static_cast<int>(nodes_.size()); }
  Node& node(int i) { return *nodes_[i]; }
  // (model, node) -> backend; rows follow the config's model list.
  BackendTable& backends() { return backends_; }
  // Null with a single node (the fleet layer is inert).
  Fabric* fabric() { return fabric_.get(); }
  SnapshotReplicator* replicator() { return replicator_.get(); }
  PlacementPolicy* placement() { return placement_.get(); }
  // Null with a single node or cluster.heartbeat_interval_s == 0.
  HealthMonitor* monitor() { return monitor_.get(); }
  // Null with a single node or cluster.repair_concurrency == 0.
  ReplicationRepairer* repairer() { return repairer_.get(); }
  // Idle unless cluster.migration is on with more than one node.
  sim::GridLoop& migration_loop() { return migration_loop_; }

  // --- fault domain controls (tests, benches, and the node.* sweep) -----
  // Power node `id` off now and back on after `outage` (the reboot then
  // retries every node_restart_s while the node.restart point keeps
  // failing it). No-op if the node is already down.
  void KillNode(int id, sim::SimDuration outage);
  // Cut (degrade == 0) or slow (degrade > 1) the pair for `duration`.
  void PartitionNodes(int a, int b, sim::SimDuration duration,
                      double degrade = 0.0);

  std::uint64_t migrations() const { return migrations_; }
  // Migrations the sweep decided on but a cluster.migrate fault aborted
  // before the drain (the model stayed put; a later sweep may retry).
  std::uint64_t migration_aborts() const { return migration_aborts_; }
  std::uint64_t routed() const { return routed_; }
  // Failover accounting: nodes declared down, queued requests moved to
  // survivors, requests dropped because no survivor could take them (each
  // answered with a terminal error chunk — accepted == completed + failed
  // + redispatch_dropped is the fleet balance invariant), standby
  // promotions spawned, and reboots the node.restart point failed.
  std::uint64_t failovers() const { return failovers_; }
  std::uint64_t redispatched() const { return redispatched_; }
  std::uint64_t redispatch_dropped() const { return redispatch_dropped_; }
  std::uint64_t standby_promotions() const { return standby_promotions_; }
  std::uint64_t node_restart_failures() const {
    return node_restart_failures_;
  }
  bool initialized() const { return initialized_; }

 private:
  // Pick a node for row `model` and enqueue the request on its backend.
  Result<core::ResponseChannelPtr> Route(int model,
                                         const core::InferenceRequest& request);
  // ChatAndWait's task for a resolved row.
  sim::Task<core::ChatResult> RouteAndWait(int model,
                                           std::int64_t prompt_tokens,
                                           std::int64_t max_tokens);
  Status InstallPlaceholders();
  void StartReplication();
  sim::Task<> MigrationSweep();
  sim::Task<> MigrateModel(std::string model, int from, int to);
  void StartFailureDetection();
  // One node.* evaluation round, run from the monitor beat handler;
  // returns the earliest instant a later round could fire.
  sim::SimTime EvaluateNodeFaults();
  // Monitor handlers: drain + re-dispatch a down node's queues, promote
  // its home models on survivors, kick repair; re-adopt/re-fetch when it
  // rejoins (converting totally-lost checkpoints to cold starts).
  void FailOverNode(int id);
  void RejoinNode(int id);
  sim::Task<> PromoteStandby(int model, int avoid);

  sim::Simulation& sim_;
  core::Config config_;
  sim::GridLoop migration_loop_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<Node*> node_ptrs_;
  BackendTable backends_;  // (model, node) -> backend, built once
  std::unique_ptr<Fabric> fabric_;
  std::unique_ptr<SnapshotReplicator> replicator_;
  std::unique_ptr<PlacementPolicy> placement_;
  std::unique_ptr<HealthMonitor> monitor_;
  std::unique_ptr<ReplicationRepairer> repairer_;
  // Pair owner names ("nodeI:nodeJ", i < j) precomputed so the per-beat
  // node.partition evaluation allocates nothing.
  std::vector<std::vector<std::string>> pair_owner_;
  bool initialized_ = false;
  std::uint64_t migrations_ = 0;
  std::uint64_t migration_aborts_ = 0;
  std::uint64_t routed_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t redispatched_ = 0;
  std::uint64_t redispatch_dropped_ = 0;
  std::uint64_t standby_promotions_ = 0;
  std::uint64_t node_restart_failures_ = 0;
};

}  // namespace swapserve::cluster
