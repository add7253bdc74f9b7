// Node-level fault domains: crash/partition injection, heartbeat failure
// detection, failover re-dispatch, standby promotion, replication repair,
// rejoin, and the placement membership gate.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "ckpt/snapshot_store.h"
#include "cluster/cluster.h"
#include "cluster/replication.h"
#include "core/backend.h"
#include "model/catalog.h"
#include "sim/simulation.h"

namespace swapserve::cluster {
namespace {

constexpr const char* kModel = "llama-3.2-1b-fp16";

struct Bed {
  sim::Simulation sim;
  model::ModelCatalog catalog = model::ModelCatalog::Default();

  template <typename F>
  void RunTask(F body) {
    sim::Spawn(std::move(body));
    sim.Run();
  }
};

core::ModelEntry Entry(const std::string& model, int node, int gpu = 0) {
  core::ModelEntry m;
  m.model_id = model;
  m.engine = "vllm";
  m.node = node;
  m.gpu = gpu;
  return m;
}

// Fleet config with fast failure detection so the tests stay short in
// virtual time: beat 0.5s, suspect after 1s of silence, down after 3s.
core::Config FastDetectConfig(int nodes, int replicate) {
  core::Config cfg;
  cfg.models.push_back(Entry(kModel, 0));
  cfg.cluster.nodes = nodes;
  cfg.cluster.replicate = replicate;
  cfg.cluster.heartbeat_interval_s = 0.5;
  cfg.cluster.suspect_after_s = 1.0;
  cfg.cluster.down_after_s = 3.0;
  cfg.cluster.repair_interval_s = 1.0;
  return cfg;
}

// --- ReplicaRingOrder edge cases ---------------------------------------

TEST(ReplicaRingOrderTest, CoversEveryOtherNodeExactlyOnce) {
  const std::vector<int> order = ReplicaRingOrder("some-model", /*home=*/2,
                                                  /*nodes=*/5);
  EXPECT_EQ(order.size(), 4u);
  std::set<int> seen(order.begin(), order.end());
  EXPECT_EQ(seen.size(), order.size()) << "duplicate ring entry";
  EXPECT_EQ(seen.count(2), 0u) << "ring walk revisited the home node";
  for (int id : order) {
    EXPECT_GE(id, 0);
    EXPECT_LT(id, 5);
  }
}

TEST(ReplicaRingOrderTest, SingleNodeFleetHasNoRing) {
  EXPECT_TRUE(ReplicaRingOrder("some-model", 0, 1).empty());
}

TEST(ReplicaRingOrderTest, TwoNodeRingIsJustThePeer) {
  EXPECT_EQ(ReplicaRingOrder("some-model", 0, 2), std::vector<int>{1});
  EXPECT_EQ(ReplicaRingOrder("some-model", 1, 2), std::vector<int>{0});
}

TEST(ReplicaRingOrderTest, DeterministicPerModel) {
  EXPECT_EQ(ReplicaRingOrder("m", 0, 7), ReplicaRingOrder("m", 0, 7));
}

// replicate >= node count: the eager spread walks the whole ring and every
// node ends up with a payload; the repairer sees zero deficit.
TEST(ReplicationEdgeTest, ReplicateBeyondNodeCountSaturatesTheFleet) {
  Bed bed;
  core::Config cfg = FastDetectConfig(/*nodes=*/3, /*replicate=*/5);
  ClusterServe cluster(bed.sim, cfg, bed.catalog);
  bed.RunTask([&]() -> sim::Task<> {
    SWAP_CHECK((co_await cluster.Initialize()).ok());
    co_await bed.sim.Delay(sim::Minutes(2));  // let the spread land
    SWAP_CHECK(cluster.repairer() != nullptr);
    const int model = cluster.backends().Find(kModel);
    EXPECT_EQ(cluster.repairer()->CountCopies(model), 3);
    EXPECT_EQ(cluster.repairer()->ScanOnce(), 0);
    cluster.Shutdown();
  });
  for (int i = 0; i < 3; ++i) {
    auto snap = cluster.node(i).serve().snapshot_store().FindByOwner(
        Name(kModel));
    ASSERT_NE(snap, nullptr) << "node" << i;
    EXPECT_NE(snap->tier, ckpt::SnapshotTier::kRemote) << "node" << i;
  }
}

// --- health monitor + membership ---------------------------------------

TEST(FailoverTest, MonitorWalksCrashedNodeThroughSuspectDownAndBack) {
  Bed bed;
  core::Config cfg = FastDetectConfig(/*nodes=*/2, /*replicate=*/2);
  ClusterServe cluster(bed.sim, cfg, bed.catalog);
  ASSERT_EQ(cluster.nodes(), 2);
  bed.RunTask([&]() -> sim::Task<> {
    SWAP_CHECK((co_await cluster.Initialize()).ok());
    SWAP_CHECK(cluster.monitor() != nullptr);
    co_await bed.sim.Delay(sim::Minutes(2));
    EXPECT_EQ(cluster.node(0).membership(), NodeState::kHealthy);

    cluster.KillNode(0, /*outage=*/sim::Seconds(6));
    EXPECT_FALSE(cluster.node(0).alive());
    // Belief lags ground truth: suspicion accrues over silent beats.
    EXPECT_EQ(cluster.node(0).membership(), NodeState::kHealthy);
    co_await bed.sim.Delay(sim::Seconds(2));
    EXPECT_EQ(cluster.node(0).membership(), NodeState::kSuspect);
    EXPECT_GT(cluster.monitor()->Phi(0), 0.0);
    co_await bed.sim.Delay(sim::Seconds(2.5));
    EXPECT_EQ(cluster.node(0).membership(), NodeState::kDown);
    EXPECT_GE(cluster.monitor()->suspicions(), 1u);
    EXPECT_GE(cluster.monitor()->downs(), 1u);
    EXPECT_GE(cluster.failovers(), 1u);

    // The reboot lands at +6s; the next heard beat starts the rejoin and
    // the beat after that restores full membership.
    co_await bed.sim.Delay(sim::Seconds(4));
    EXPECT_TRUE(cluster.node(0).alive());
    EXPECT_EQ(cluster.node(0).membership(), NodeState::kHealthy);
    EXPECT_GE(cluster.monitor()->rejoins(), 1u);
    EXPECT_EQ(cluster.node(0).boots(), 1u);
    cluster.Shutdown();
  });
}

TEST(FailoverTest, PartitionedNodeIsDeclaredDownWhileAliveAndRejoins) {
  Bed bed;
  core::Config cfg = FastDetectConfig(/*nodes=*/3, /*replicate=*/2);
  ClusterServe cluster(bed.sim, cfg, bed.catalog);
  bed.RunTask([&]() -> sim::Task<> {
    SWAP_CHECK((co_await cluster.Initialize()).ok());
    co_await bed.sim.Delay(sim::Minutes(2));

    // Cut node2 off from both peers: alive, but nobody can hear it.
    cluster.PartitionNodes(0, 2, sim::Seconds(8));
    cluster.PartitionNodes(1, 2, sim::Seconds(8));
    EXPECT_FALSE(cluster.fabric()->Reachable(0, 2));
    EXPECT_FALSE(cluster.fabric()->Reachable(2, 1));
    EXPECT_TRUE(cluster.fabric()->Reachable(0, 1));
    co_await bed.sim.Delay(sim::Seconds(4.5));
    EXPECT_EQ(cluster.node(2).membership(), NodeState::kDown);
    EXPECT_TRUE(cluster.node(2).alive());
    EXPECT_EQ(cluster.node(2).crashes(), 0u);
    EXPECT_GE(cluster.failovers(), 1u);

    // The partition heals at +8s; the node is heard again and rejoins
    // without ever having rebooted.
    co_await bed.sim.Delay(sim::Seconds(6));
    EXPECT_TRUE(cluster.fabric()->Reachable(0, 2));
    EXPECT_EQ(cluster.node(2).membership(), NodeState::kHealthy);
    EXPECT_GE(cluster.monitor()->rejoins(), 1u);
    EXPECT_EQ(cluster.node(2).boots(), 0u);
    cluster.Shutdown();
  });
  EXPECT_EQ(cluster.fabric()->partitions(), 2u);
}

// A degraded (not blackholed) pair stays reachable: heartbeats cross, the
// node keeps its membership, only transfers slow down.
TEST(FailoverTest, DegradedPartitionSlowsTransfersButStaysReachable) {
  Bed bed;
  core::Config cfg = FastDetectConfig(/*nodes=*/2, /*replicate=*/2);
  ClusterServe cluster(bed.sim, cfg, bed.catalog);
  bed.RunTask([&]() -> sim::Task<> {
    SWAP_CHECK((co_await cluster.Initialize()).ok());
    co_await bed.sim.Delay(sim::Minutes(2));
    cluster.PartitionNodes(0, 1, sim::Seconds(30), /*degrade=*/8.0);
    EXPECT_TRUE(cluster.fabric()->Reachable(0, 1));
    EXPECT_EQ(cluster.fabric()->DegradeFactor(0, 1), 8.0);
    co_await bed.sim.Delay(sim::Seconds(10));
    EXPECT_EQ(cluster.node(0).membership(), NodeState::kHealthy);
    EXPECT_EQ(cluster.node(1).membership(), NodeState::kHealthy);
    co_await bed.sim.Delay(sim::Seconds(25));
    EXPECT_EQ(cluster.fabric()->DegradeFactor(0, 1), 1.0);  // healed
    cluster.Shutdown();
  });
  EXPECT_EQ(cluster.failovers(), 0u);
}

// --- failover mechanics -------------------------------------------------

TEST(FailoverTest, QueuedRequestsAreRedispatchedToSurvivors) {
  Bed bed;
  core::Config cfg = FastDetectConfig(/*nodes=*/2, /*replicate=*/2);
  ClusterServe cluster(bed.sim, cfg, bed.catalog);
  std::uint64_t accepted = 0;
  std::uint64_t done = 0;
  std::uint64_t errors = 0;
  bed.RunTask([&]() -> sim::Task<> {
    SWAP_CHECK((co_await cluster.Initialize()).ok());
    co_await bed.sim.Delay(sim::Minutes(2));  // replication lands on node1

    // Burst of requests, then the home node dies in the same instant —
    // nothing has been dequeued yet, so everything rides the failover
    // drain to node1.
    for (int i = 0; i < 8; ++i) {
      core::InferenceRequest req;
      req.model = kModel;
      req.prompt_tokens = 64;
      req.max_tokens = 32;
      auto ch = cluster.Accept(req);
      SWAP_CHECK_MSG(ch.ok(), ch.status().ToString());
      ++accepted;
      sim::Spawn([&done, &errors, channel = *ch]() -> sim::Task<> {
        while (auto chunk = co_await channel->Recv()) {
          if (chunk->kind == core::ResponseChunk::Kind::kDone) ++done;
          if (chunk->kind == core::ResponseChunk::Kind::kError) {
            ++errors;
            // A dropped or failed request tells its client why.
            EXPECT_FALSE(channel->error.empty());
          }
        }
      });
    }
    cluster.KillNode(0, sim::Minutes(30));  // stays dead for the whole test
    co_await bed.sim.Delay(sim::Minutes(10));
    cluster.Shutdown();
  });

  EXPECT_EQ(done + errors, accepted) << "a request vanished in failover";
  EXPECT_GE(cluster.failovers(), 1u);
  EXPECT_GT(cluster.redispatched(), 0u);
  // Fleet balance: accepted == completed + failed + dropped-at-failover.
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  for (int i = 0; i < cluster.nodes(); ++i) {
    completed += cluster.node(i).serve().metrics().TotalCompleted();
    failed += cluster.node(i).serve().metrics().TotalFailed();
  }
  EXPECT_EQ(accepted, completed + failed + cluster.redispatch_dropped());
  // The survivor actually served: replication had landed its payload, so
  // the re-dispatched burst completes on node1.
  EXPECT_GT(cluster.node(1).serve().metrics().TotalCompleted(), 0u);
  EXPECT_EQ(cluster.node(0).serve().metrics().TotalCompleted(), 0u);
  EXPECT_GE(cluster.standby_promotions(), 1u);
}

// With the only other node down too, the failover drain has no survivor
// for the dead node's queued requests and drops them; each client still
// gets the reason on its channel.
TEST(FailoverTest, DroppedRequestsCarryTheReason) {
  Bed bed;
  core::Config cfg = FastDetectConfig(/*nodes=*/2, /*replicate=*/2);
  ClusterServe cluster(bed.sim, cfg, bed.catalog);
  std::uint64_t accepted = 0;
  std::vector<std::string> errors;
  bed.RunTask([&]() -> sim::Task<> {
    SWAP_CHECK((co_await cluster.Initialize()).ok());
    for (int i = 0; i < 4; ++i) {
      core::InferenceRequest req;
      req.model = kModel;
      req.prompt_tokens = 64;
      req.max_tokens = 32;
      auto ch = cluster.Accept(req);
      SWAP_CHECK_MSG(ch.ok(), ch.status().ToString());
      ++accepted;
      sim::Spawn([&errors, channel = *ch]() -> sim::Task<> {
        while (auto chunk = co_await channel->Recv()) {
          if (chunk->kind == core::ResponseChunk::Kind::kError) {
            errors.push_back(channel->error);
          }
        }
      });
    }
    cluster.KillNode(0, sim::Minutes(30));
    cluster.KillNode(1, sim::Minutes(30));
    co_await bed.sim.Delay(sim::Minutes(10));
    cluster.Shutdown();
  });

  EXPECT_GT(cluster.redispatch_dropped(), 0u);
  EXPECT_LE(errors.size(), accepted);
  EXPECT_EQ(static_cast<std::uint64_t>(std::count(
                errors.begin(), errors.end(),
                "request dropped: node0 declared down")),
            cluster.redispatch_dropped());
  for (const std::string& error : errors) EXPECT_FALSE(error.empty());
}

TEST(FailoverTest, RepairerRestoresReplicationFactorAfterHolderDies) {
  Bed bed;
  core::Config cfg = FastDetectConfig(/*nodes=*/3, /*replicate=*/2);
  ClusterServe cluster(bed.sim, cfg, bed.catalog);
  bed.RunTask([&]() -> sim::Task<> {
    SWAP_CHECK((co_await cluster.Initialize()).ok());
    co_await bed.sim.Delay(sim::Minutes(2));  // eager spread lands

    // replicate = 2: home payload + one streamed copy on the first ring
    // node; the second ring node keeps a placeholder.
    const std::vector<int> ring = ReplicaRingOrder(kModel, 0, 3);
    SWAP_CHECK(ring.size() == 2u);
    const int holder = ring[0];
    const int spare = ring[1];
    auto before =
        cluster.node(spare).serve().snapshot_store().FindByOwner(Name(kModel));
    SWAP_CHECK(before != nullptr);
    EXPECT_EQ(before->tier, ckpt::SnapshotTier::kRemote);
    SWAP_CHECK(cluster.repairer() != nullptr);
    const int model = cluster.backends().Find(kModel);
    EXPECT_EQ(cluster.repairer()->CountCopies(model), 2);

    // Kill the streamed-copy holder. The ring walk for repair visits the
    // (now down) holder first and must skip it, landing the re-replication
    // on the spare instead.
    cluster.KillNode(holder, sim::Minutes(30));
    co_await bed.sim.Delay(sim::Minutes(2));

    EXPECT_EQ(cluster.repairer()->CountCopies(model), 2);
    EXPECT_GE(cluster.repairer()->launched(), 1u);
    EXPECT_GE(cluster.repairer()->completed(), 1u);
    EXPECT_EQ(cluster.repairer()->failed(), 0u);
    EXPECT_EQ(cluster.repairer()->in_flight(), 0);
    auto after =
        cluster.node(spare).serve().snapshot_store().FindByOwner(Name(kModel));
    SWAP_CHECK(after != nullptr);
    EXPECT_EQ(after->tier, ckpt::SnapshotTier::kHost)
        << "repair did not land the payload on the spare";
    cluster.Shutdown();
  });
}

// Every payload copy dies with its hosts: the rejoining node converts the
// unrecoverable checkpoint to a cold start instead of waiting forever for
// a fetch that has no source.
TEST(FailoverTest, RejoinConvertsTotalCheckpointLossToColdStart) {
  Bed bed;
  // replicate = 1: the only payload lives on the home node; node1 holds a
  // placeholder with no second copy anywhere.
  core::Config cfg = FastDetectConfig(/*nodes=*/2, /*replicate=*/1);
  cfg.cluster.node_restart_s = 5.0;
  ClusterServe cluster(bed.sim, cfg, bed.catalog);
  bed.RunTask([&]() -> sim::Task<> {
    SWAP_CHECK((co_await cluster.Initialize()).ok());
    co_await bed.sim.Delay(sim::Minutes(1));
    cluster.KillNode(0, sim::Seconds(6));
    co_await bed.sim.Delay(sim::Seconds(4));
    // The crash degraded the host payload to a placeholder; with the node
    // down there is no payload copy left in the fleet.
    auto lost = cluster.node(0).serve().snapshot_store().FindByOwner(
        Name(kModel));
    SWAP_CHECK(lost != nullptr);
    EXPECT_EQ(lost->tier, ckpt::SnapshotTier::kRemote);

    // Reboot + rejoin: the fleet detects the total loss and falls back to
    // a cold start; the request below restarts the engine from scratch
    // under the scheduler's reservation.
    co_await bed.sim.Delay(sim::Minutes(10));
    core::Backend* home = cluster.node(0).serve().backend(kModel);
    SWAP_CHECK(home != nullptr);
    EXPECT_EQ(cluster.node(0).membership(), NodeState::kHealthy);
    // The model is servable again end to end.
    core::ChatResult r = co_await cluster.ChatAndWait(kModel, 64, 16);
    EXPECT_TRUE(r.ok) << r.error;
    cluster.Shutdown();
  });
}

// --- membership gate in placement ----------------------------------------

TEST(PlacementMembershipTest, SuspectAndDownNodesAreIneligible) {
  Bed bed;
  core::Config cfg;
  cfg.models.push_back(Entry(kModel, 0));
  cfg.cluster.nodes = 2;
  cfg.cluster.replicate = 2;
  cfg.cluster.heartbeat_interval_s = 0;  // no monitor: membership is manual
  ClusterServe cluster(bed.sim, cfg, bed.catalog);
  ASSERT_EQ(cluster.monitor(), nullptr);
  bed.RunTask([&]() -> sim::Task<> {
    SWAP_CHECK((co_await cluster.Initialize()).ok());
    co_await bed.sim.Delay(sim::Minutes(2));
    PlacementPolicy* placement = cluster.placement();
    SWAP_CHECK(placement != nullptr);
    const int model = cluster.backends().Find(kModel);

    EXPECT_LT(placement->Score(cluster.node(1), model),
              PlacementPolicy::kIneligible);
    cluster.node(1).set_membership(NodeState::kSuspect);
    EXPECT_EQ(placement->Score(cluster.node(1), model),
              PlacementPolicy::kIneligible);
    cluster.node(1).set_membership(NodeState::kDown);
    EXPECT_EQ(placement->Score(cluster.node(1), model),
              PlacementPolicy::kIneligible);
    // Rejoining nodes are heard and serving: they score normally.
    cluster.node(1).set_membership(NodeState::kRejoining);
    EXPECT_LT(placement->Score(cluster.node(1), model),
              PlacementPolicy::kIneligible);
    cluster.node(1).set_membership(NodeState::kHealthy);

    // A dead machine is ineligible regardless of belief.
    cluster.node(1).Crash();
    EXPECT_EQ(placement->Score(cluster.node(1), model),
              PlacementPolicy::kIneligible);
    cluster.node(1).Boot();

    // Pick routes around a down node.
    cluster.node(1).set_membership(NodeState::kDown);
    Result<int> pick =
        placement->Pick({&cluster.node(0), &cluster.node(1)}, model);
    SWAP_CHECK(pick.ok());
    EXPECT_EQ(*pick, 0);
    cluster.node(1).set_membership(NodeState::kHealthy);
    cluster.Shutdown();
  });
}

}  // namespace
}  // namespace swapserve::cluster
