#include "cluster/cluster.h"

#include <algorithm>
#include <utility>

#include "fault/fault_injector.h"
#include "obs/observability.h"
#include "sim/sync.h"
#include "util/log.h"

namespace swapserve::cluster {

ClusterServe::ClusterServe(sim::Simulation& sim, core::Config config,
                           const model::ModelCatalog& catalog,
                           core::SwapServeOptions options)
    : sim_(sim),
      config_(std::move(config)) {
  const int n = config_.cluster.nodes;
  for (int id = 0; id < n; ++id) {
    const int gpu_count = config_.NodeGpuCount(id);
    core::Config node_config;
    node_config.global = config_.global;
    node_config.recovery = config_.recovery;
    node_config.fault.plan = config_.fault.plan;
    // Each node gets its own deterministic fault stream; the single-node
    // seed stays underived so existing chaos runs replay unchanged.
    node_config.fault.seed =
        n == 1 ? config_.fault.seed
               : fault::StableHashCombine(
                     config_.fault.seed,
                     fault::StableHash("node" + std::to_string(id)));
    for (const core::ModelEntry& m : config_.models) {
      if (m.node == id) {
        // Within a node's own config the home-node field is meaningless
        // (and would fail the node's single-machine validation).
        core::ModelEntry home = m;
        home.node = 0;
        node_config.models.push_back(std::move(home));
      } else if (n > 1 && m.gpu + m.tp <= gpu_count) {
        // Standby replica: adopts a replicated checkpoint at Initialize
        // instead of cold-starting (skipped where the model cannot fit).
        core::ModelEntry standby = m;
        standby.node = 0;
        standby.standby = true;
        node_config.models.push_back(std::move(standby));
      }
    }
    nodes_.push_back(std::make_unique<Node>(
        sim_, id, gpu_count, std::move(node_config), catalog, options));
    node_ptrs_.push_back(nodes_.back().get());
  }
  backends_ = BackendTable(node_ptrs_, config_.models);
  if (n > 1) {
    fabric_ = std::make_unique<Fabric>(sim_, n, config_.cluster.fabric_gbps,
                                       config_.cluster.fabric_latency_us);
    replicator_ = std::make_unique<SnapshotReplicator>(sim_, node_ptrs_,
                                                       *fabric_, backends_);
    const PlacementMode mode = config_.cluster.placement == "random"
                                   ? PlacementMode::kRandom
                                   : PlacementMode::kLocalityAware;
    placement_ = std::make_unique<PlacementPolicy>(
        mode,
        fault::StableHashCombine(config_.fault.seed,
                                 fault::StableHash("placement")),
        backends_);
    for (auto& node : nodes_) {
      const int dst = node->id();
      node->serve().ckpt_engine().BindRemoteTier(
          [this, dst](ckpt::SnapshotId id) {
            return replicator_->Fetch(dst, id,
                                      hw::TransferPriority::kUrgent);
          },
          [this, dst](ckpt::SnapshotId id) {
            return replicator_->EstimatedFetchTime(dst, id);
          });
    }
    if (config_.cluster.heartbeat_interval_s > 0) {
      HealthMonitor::Options hb;
      hb.interval = sim::Seconds(config_.cluster.heartbeat_interval_s);
      hb.suspect_after = sim::Seconds(config_.cluster.suspect_after_s);
      hb.down_after = sim::Seconds(config_.cluster.down_after_s);
      monitor_ =
          std::make_unique<HealthMonitor>(sim_, node_ptrs_, *fabric_, hb);
      monitor_->SetDownHandler([this](int id) { FailOverNode(id); });
      monitor_->SetRejoinHandler([this](int id) { RejoinNode(id); });
    }
    if (config_.cluster.repair_concurrency > 0) {
      ReplicationRepairer::Options rp;
      rp.replicate = config_.cluster.replicate;
      rp.concurrency = config_.cluster.repair_concurrency;
      rp.interval = sim::Seconds(config_.cluster.repair_interval_s);
      rp.monitor = monitor_.get();
      repairer_ = std::make_unique<ReplicationRepairer>(
          sim_, node_ptrs_, *replicator_, backends_, config_.models, rp);
    }
    pair_owner_.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        pair_owner_[static_cast<std::size_t>(i)].push_back(
            nodes_[i]->name() + ":" + nodes_[j]->name());
      }
    }
  }
}

sim::Task<Status> ClusterServe::Initialize() {
  for (auto& node : nodes_) {
    SWAP_CO_RETURN_IF_ERROR(co_await node->serve().Initialize());
  }
  if (nodes_.size() > 1) {
    SWAP_CO_RETURN_IF_ERROR(InstallPlaceholders());
    StartReplication();
    StartFailureDetection();
  }
  initialized_ = true;
  co_return Status::Ok();
}

Status ClusterServe::InstallPlaceholders() {
  for (const core::ModelEntry& m : config_.models) {
    Node& home = *nodes_[m.node];
    core::Backend* home_backend = home.serve().backend(m.model_id);
    const ckpt::Snapshot* snap =
        home_backend == nullptr
            ? nullptr
            : home.serve().snapshot_store().FindByOwner(
                  home_backend->owner());
    // No home snapshot (keep_resident_after_init): standbys stay empty and
    // placement falls back to the home node until one exists.
    if (snap == nullptr || home_backend == nullptr) continue;
    for (auto& node : nodes_) {
      if (node->id() == m.node) continue;
      core::Backend* standby = node->serve().backend(m.model_id);
      if (standby == nullptr) continue;  // did not fit this node
      SWAP_ASSIGN_OR_RETURN(ckpt::SnapshotId id,
                            replicator_->InstallPlaceholder(node->id(),
                                                            *snap));
      standby->snapshot = id;
      standby->has_snapshot = true;
      standby->resident_bytes = home_backend->resident_bytes;
    }
  }
  return Status::Ok();
}

void ClusterServe::StartReplication() {
  const int n = static_cast<int>(nodes_.size());
  const int copies = std::min(config_.cluster.replicate, n);
  for (const core::ModelEntry& m : config_.models) {
    int holders = 1;  // the home node holds the payload
    // Walk the ring from a per-model offset so replicas spread across the
    // fleet instead of piling onto the lowest node ids (which would leave
    // the rest of the fleet placeholder-only and defeat locality routing).
    // The repairer retraces the same order when a holder dies.
    for (int dst_id : ReplicaRingOrder(m.model_id, m.node, n)) {
      if (holders >= copies) break;
      Node* node = nodes_[dst_id].get();
      core::Backend* standby = node->serve().backend(m.model_id);
      if (standby == nullptr || !standby->has_snapshot) continue;
      ++holders;
      const int dst = node->id();
      const ckpt::SnapshotId id = standby->snapshot;
      const std::string model = m.model_id;
      sim_.Go([this, dst, id, model]() -> sim::Task<> {
        Status s = co_await replicator_->Fetch(
            dst, id, hw::TransferPriority::kBackground);
        if (!s.ok()) {
          SWAP_LOG(kWarning, "cluster")
              << "background replication of " << model << " to node" << dst
              << " failed: " << s.ToString();
        }
      });
    }
  }
}

Result<core::ResponseChannelPtr> ClusterServe::Accept(
    const core::InferenceRequest& request) {
  // Single node: a pass-through, so the event stream stays byte-identical
  // to a plain SwapServe.
  if (nodes_.size() == 1) return nodes_[0]->serve().handler().Accept(request);
  const int model = backends_.Find(request.model);
  if (model < 0) return core::ModelNotServed(request.model);
  return Route(model, request);
}

Result<core::ResponseChannelPtr> ClusterServe::Route(
    int model, const core::InferenceRequest& request) {
  SWAP_ASSIGN_OR_RETURN(int target, placement_->Pick(node_ptrs_, model));
  Node& node = *nodes_[target];
  ++routed_;
  obs::IncCounter(
      &node.serve().obs(), backends_.cell(model, target).routed,
      "swapserve_cluster_routed_total",
      {{"model", backends_.model_id(model)}, {"node", node.name()}});
  return node.serve().handler().Accept(*backends_.backend(model, target),
                                       request);
}

// swaplint-ok(coro-ref-param): not a coroutine; the name is resolved before the task exists
sim::Task<core::ChatResult> ClusterServe::ChatAndWait(
    std::string_view model_id, std::int64_t prompt_tokens,
    std::int64_t max_tokens) {
  if (nodes_.size() == 1) {
    return nodes_[0]->serve().ChatAndWait(model_id, prompt_tokens, max_tokens);
  }
  const int model = backends_.Find(model_id);
  if (model < 0) {
    return core::Ready(core::Refused(core::ModelNotServed(model_id)));
  }
  return RouteAndWait(model, prompt_tokens, max_tokens);
}

sim::Task<core::ChatResult> ClusterServe::RouteAndWait(
    int model, std::int64_t prompt_tokens, std::int64_t max_tokens) {
  core::InferenceRequest request;
  request.prompt_tokens = prompt_tokens;
  request.max_tokens = max_tokens;
  Result<core::ResponseChannelPtr> channel = Route(model, request);
  if (!channel.ok()) co_return core::Refused(channel.status());
  co_return co_await core::SwapServe::CollectResponse(*channel);
}

void ClusterServe::StartFailureDetection() {
  if (monitor_ != nullptr) {
    // The node.* sweep rides the heartbeat timer (one wakeup per beat,
    // membership round first) instead of spawning its own coroutine.
    monitor_->SetBeatHandler([this] { return EvaluateNodeFaults(); });
    monitor_->Start();
  }
  if (repairer_ != nullptr) repairer_->Start();
}

// One evaluation round of the node.* fault points, on the heartbeat
// cadence. For node.crash and node.partition the rule's stall_s is the
// fault's *duration* (outage before the reboot starts / partition length),
// not a pre-delay; node.partition rules with fail=true blackhole the pair,
// stall-only rules degrade it. Each point draws from the involved node's
// own derived stream, so fleets replay deterministically per seed and an
// unarmed plan draws nothing. Returns the earliest instant a later round
// could fire (or draw), which lets the heartbeat park until then.
sim::SimTime ClusterServe::EvaluateNodeFaults() {
  const int n = static_cast<int>(nodes_.size());
  const sim::SimDuration default_duration =
      sim::Seconds(config_.cluster.node_restart_s);
  for (int i = 0; i < n; ++i) {
    if (!nodes_[i]->alive()) continue;
    if (!nodes_[i]->serve().fault_injector().armed()) continue;
    fault::FaultDecision d =
        fault::Evaluate(&nodes_[i]->serve().fault_injector(), "node.crash",
                        nodes_[i]->name());
    if (!d.status.ok()) {
      KillNode(i, d.stall.ns() > 0 ? d.stall : default_duration);
    }
  }
  for (int i = 0; i < n; ++i) {
    if (!nodes_[i]->serve().fault_injector().armed()) continue;
    for (int j = i + 1; j < n; ++j) {
      fault::FaultDecision d = fault::Evaluate(
          &nodes_[i]->serve().fault_injector(), "node.partition",
          pair_owner_[static_cast<std::size_t>(i)]
                     [static_cast<std::size_t>(j - i - 1)]);
      if (d.status.ok() && d.stall.ns() == 0) continue;
      const sim::SimDuration duration =
          d.stall.ns() > 0 ? d.stall : default_duration;
      // fail=true cuts the pair; a stall-only rule degrades it (an 8x
      // slowdown — a congested or flapping path rather than a dead one).
      PartitionNodes(i, j, duration, d.status.ok() ? 8.0 : 0.0);
    }
  }
  sim::SimTime next = sim::kNever;
  for (int i = 0; i < n && next > sim_.Now(); ++i) {
    const fault::FaultInjector& injector = nodes_[i]->serve().fault_injector();
    if (!injector.armed()) continue;
    next = std::min(next, injector.NextArmed("node.crash", nodes_[i]->name()));
    for (const std::string& pair : pair_owner_[static_cast<std::size_t>(i)]) {
      next = std::min(next, injector.NextArmed("node.partition", pair));
    }
  }
  return next;
}

void ClusterServe::KillNode(int id, sim::SimDuration outage) {
  Node& node = *nodes_[id];
  if (!node.alive()) return;  // already down; the pending reboot stands
  node.Crash();
  sim_.Go([this, id, outage]() -> sim::Task<> {
    co_await sim_.Delay(outage);
    // The machine tries to come back; the node.restart point models
    // reboots that fail (bad disk, fsck loop) — each failure waits another
    // restart interval and tries again.
    while (true) {
      fault::FaultDecision d =
          fault::Evaluate(&nodes_[id]->serve().fault_injector(),
                          "node.restart", nodes_[id]->name());
      if (d.stall.ns() > 0) co_await sim_.Delay(d.stall);
      if (d.status.ok()) break;
      ++node_restart_failures_;
      SWAP_LOG(kWarning, "cluster")
          << nodes_[id]->name()
          << " reboot failed: " << d.status.ToString();
      co_await sim_.Delay(sim::Seconds(config_.cluster.node_restart_s));
    }
    nodes_[id]->Boot();
    // Membership stays kDown until the monitor hears heartbeats again;
    // RejoinNode (re-adopt / re-fetch) runs off that rejoin signal.
  });
}

void ClusterServe::PartitionNodes(int a, int b, sim::SimDuration duration,
                                  double degrade) {
  SWAP_CHECK(fabric_ != nullptr);
  fabric_->Partition(a, b, duration, degrade);
  obs::Instant(&nodes_[a]->serve().obs(), "node.partition", "cluster",
               nodes_[a]->name(),
               {{"peer", nodes_[b]->name()},
                {"mode", degrade == 0.0 ? "blackhole" : "degrade"},
                {"duration_s", duration.ToSeconds()}});
  SWAP_LOG(kWarning, "cluster")
      << "partition " << nodes_[a]->name() << " <-> " << nodes_[b]->name()
      << " for " << duration.ToString()
      << (degrade == 0.0 ? " (blackhole)" : " (degraded)");
}

// The monitor just declared `id` down. Membership is already kDown, so the
// placement score refuses the node; everything here is synchronous (no
// awaits), so no request can slip into the drained queues mid-failover.
void ClusterServe::FailOverNode(int id) {
  Node& down = *nodes_[id];
  ++failovers_;
  obs::Span span = obs::StartSpan(&down.serve().obs(), "cluster.failover",
                                  "cluster", down.name());
  int moved = 0;
  int dropped = 0;
  for (int model = 0; model < backends_.models(); ++model) {
    core::Backend* backend = backends_.backend(model, id);
    if (backend == nullptr) continue;
    while (auto queued = backend->queue->TryRecv()) {
      core::QueuedRequest item = std::move(*queued);
      Result<int> target = placement_->Pick(node_ptrs_, model);
      if (target.ok() && *target != id &&
          backends_.backend(model, *target)->queue->TrySend(
              core::QueuedRequest(item))) {
        ++moved;
        continue;
      }
      // No survivor can take it (every replica missing/quarantined, or the
      // target queue is full): the loss budget absorbs it, terminally.
      ++dropped;
      item.response->error =
          "request dropped: " + down.name() + " declared down";
      (void)item.response->TrySend(
          core::ResponseChunk{.kind = core::ResponseChunk::Kind::kError});
      item.response->Close();
    }
  }
  redispatched_ += static_cast<std::uint64_t>(moved);
  redispatch_dropped_ += static_cast<std::uint64_t>(dropped);
  span.AddArg("redispatched", moved);
  span.AddArg("dropped", dropped);
  obs::IncCounter(&down.serve().obs(), "swapserve_cluster_failover_total",
                  {{"node", down.name()}});
  SWAP_LOG(kWarning, "cluster")
      << down.name() << " failover: " << moved << " request(s) re-dispatched, "
      << dropped << " dropped";

  // Promote this node's home models on the best survivor so the fleet
  // keeps serving them warm instead of paying a swap-in on first demand.
  for (int model = 0; model < backends_.models(); ++model) {
    if (config_.models[static_cast<std::size_t>(model)].node != id) continue;
    bool running_elsewhere = false;
    for (Node* peer : node_ptrs_) {
      if (peer->id() == id || !peer->alive()) continue;
      core::Backend* b = backends_.backend(model, peer->id());
      if (b != nullptr &&
          b->engine->state() == engine::BackendState::kRunning) {
        running_elsewhere = true;
        break;
      }
    }
    if (running_elsewhere) continue;
    sim_.Go([this, model, id]() -> sim::Task<> {
      co_await PromoteStandby(model, id);
    });
  }

  if (repairer_ != nullptr) (void)repairer_->ScanOnce();
}

sim::Task<> ClusterServe::PromoteStandby(int model, int avoid) {
  Result<int> target = placement_->Pick(node_ptrs_, model);
  if (!target.ok() || *target == avoid) co_return;
  Node& node = *nodes_[*target];
  core::Backend* backend = backends_.backend(model, *target);
  if (backend == nullptr ||
      backend->engine->state() == engine::BackendState::kRunning) {
    co_return;
  }
  ++standby_promotions_;
  obs::Instant(&node.serve().obs(), "cluster.promote", "cluster",
               node.name(), {{"model", backend->name()}});
  Result<sim::SimRwLock::SharedGuard> pin =
      co_await node.serve().scheduler().EnsureRunningAndPin(*backend);
  if (!pin.ok()) {
    SWAP_LOG(kWarning, "cluster")
        << "standby promotion of " << backend->name() << " on "
        << node.name() << " failed: " << pin.status().ToString();
    co_return;
  }
  pin->Release();
  SWAP_LOG(kInfo, "cluster")
      << "promoted standby " << backend->name() << " on " << node.name();
}

// The monitor heard `id` again (reboot finished, or a partition healed).
// Snapshots the crash left in the store are simply re-adopted (nothing to
// do): demoted ones on NVMe, and, with a bounded host cache, host-resident
// ones too, which the model keeps across the power cycle (Node::Crash).
// Host payloads the crash degraded to placeholders are re-fetched from
// surviving replicas by the repair scan; a checkpoint with no copy left
// anywhere falls back to a cold start, the only honest option.
void ClusterServe::RejoinNode(int id) {
  Node& node = *nodes_[id];
  for (core::Backend* backend : node.serve().backends()) {
    if (!backend->has_snapshot) continue;
    const ckpt::Snapshot* snap =
        node.serve().snapshot_store().Find(backend->snapshot);
    if (snap == nullptr || snap->tier != ckpt::SnapshotTier::kRemote) {
      continue;
    }
    bool running_somewhere = false;
    for (Node* peer : node_ptrs_) {
      core::Backend* b = peer->serve().backend(backend->name());
      if (peer->alive() && b != nullptr &&
          b->engine->state() == engine::BackendState::kRunning) {
        running_somewhere = true;
        break;
      }
    }
    if (running_somewhere ||
        replicator_->HasPayloadSource(id, backend->owner())) {
      continue;  // the repair scan (or on-demand fetch) covers it
    }
    // Total checkpoint loss: every payload copy died with its host(s).
    // Convert to a cold start: the next request restarts the engine from
    // scratch under the scheduler's reservation.
    SWAP_LOG(kWarning, "cluster")
        << backend->name() << ": every checkpoint copy lost; "
        << node.name() << " falls back to cold start";
    obs::Instant(&node.serve().obs(), "cluster.checkpoint_lost", "cluster",
                 node.name(), {{"model", backend->name()}});
    SWAP_WARN_IF_ERROR(node.serve().snapshot_store().Drop(backend->snapshot),
                       "cluster");
    backend->has_snapshot = false;
    if (backend->engine->state() != engine::BackendState::kCrashed) {
      backend->engine->MarkCrashed("checkpoint lost with node crash");
    }
  }
  if (repairer_ != nullptr) (void)repairer_->ScanOnce();
}

void ClusterServe::Shutdown() {
  if (monitor_ != nullptr) monitor_->Stop();
  if (repairer_ != nullptr) repairer_->Stop();
  for (auto& node : nodes_) {
    // A node still powered off at shutdown would leave its parked workers
    // suspended forever; wake them so the queues drain to terminal states.
    node->serve().ResumeWorkers();
    node->serve().Shutdown();
  }
}

}  // namespace swapserve::cluster
