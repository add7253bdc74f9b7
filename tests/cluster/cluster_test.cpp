// Functional tests for the multi-node fleet: standby adoption, placeholder
// installation, background replication, and locality routing with
// on-demand remote fetch.

#include "cluster/cluster.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ckpt/snapshot_store.h"
#include "core/backend.h"
#include "model/catalog.h"
#include "sim/simulation.h"

namespace swapserve::cluster {
namespace {

struct ClusterBed {
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

TEST(ClusterTest, SingleNodeFleetIsInert) {
  ClusterBed bed;
  core::Config cfg;
  cfg.models.push_back(Entry("llama-3.2-1b-fp16", 0));
  ClusterServe cluster(bed.sim, cfg, bed.catalog);
  ASSERT_EQ(cluster.nodes(), 1);
  EXPECT_EQ(cluster.fabric(), nullptr);
  EXPECT_EQ(cluster.replicator(), nullptr);
  EXPECT_EQ(cluster.placement(), nullptr);
  bed.RunTask([&]() -> sim::Task<> {
    SWAP_CHECK((co_await cluster.Initialize()).ok());
    core::ChatResult r =
        co_await cluster.ChatAndWait("llama-3.2-1b-fp16", 64, 16);
    EXPECT_TRUE(r.ok) << r.error;
    cluster.Shutdown();
  });
  // The cluster routing path never ran and no placeholder exists anywhere.
  EXPECT_EQ(cluster.routed(), 0u);
  EXPECT_EQ(cluster.node(0).serve().snapshot_store().remote_bytes().count(),
            0);
}

TEST(ClusterTest, StandbysAdoptAndReplicationLandsConfiguredCopies) {
  ClusterBed bed;
  core::Config cfg;
  cfg.models.push_back(Entry("llama-3.2-1b-fp16", 0));
  cfg.cluster.nodes = 3;
  cfg.cluster.replicate = 2;
  ClusterServe cluster(bed.sim, cfg, bed.catalog);
  bed.RunTask([&]() -> sim::Task<> {
    SWAP_CHECK((co_await cluster.Initialize()).ok());
    co_await bed.sim.Delay(sim::Minutes(2));  // let replication land
    cluster.Shutdown();
  });

  // Every standby adopted the checkpoint (no cold start) and holds a
  // snapshot handle.
  for (int i = 1; i < 3; ++i) {
    core::Backend* standby =
        cluster.node(i).serve().backend("llama-3.2-1b-fp16");
    ASSERT_NE(standby, nullptr) << "node" << i;
    EXPECT_EQ(standby->engine->state(), engine::BackendState::kSwappedOut);
    EXPECT_TRUE(standby->has_snapshot);
  }

  // replicate = 2: the home copy plus exactly one streamed payload, in
  // node order — node1 holds real bytes, node2 keeps a placeholder.
  auto home = cluster.node(0).serve().snapshot_store().FindByOwner(
      Name("llama-3.2-1b-fp16"));
  ASSERT_NE(home, nullptr);
  auto n1 = cluster.node(1).serve().snapshot_store().FindByOwner(
      Name("llama-3.2-1b-fp16"));
  auto n2 = cluster.node(2).serve().snapshot_store().FindByOwner(
      Name("llama-3.2-1b-fp16"));
  ASSERT_NE(n1, nullptr);
  ASSERT_NE(n2, nullptr);
  EXPECT_EQ(n1->tier, ckpt::SnapshotTier::kHost);
  EXPECT_EQ(n2->tier, ckpt::SnapshotTier::kRemote);
  EXPECT_EQ(n1->dirty_bytes, home->dirty_bytes);

  // Fabric accounting matches: one payload crossed the wire, the ledger
  // drained, and the placeholder node charges no host RAM for it.
  ASSERT_NE(cluster.replicator(), nullptr);
  EXPECT_EQ(cluster.replicator()->fetches(), 1u);
  EXPECT_EQ(cluster.replicator()->in_flight(), 0);
  EXPECT_EQ(cluster.replicator()->in_flight_bytes().count(), 0);
  EXPECT_EQ(cluster.fabric()->total_transferred(), home->dirty_bytes);
  EXPECT_EQ(
      cluster.node(2).serve().snapshot_store().remote_bytes(),
      home->dirty_bytes);
}

TEST(ClusterTest, QuarantinedHomeRoutesToStandbyViaOnDemandFetch) {
  ClusterBed bed;
  core::Config cfg;
  cfg.models.push_back(Entry("llama-3.2-1b-fp16", 0));
  cfg.cluster.nodes = 2;
  cfg.cluster.replicate = 1;  // placeholder only: fetch happens on demand
  ClusterServe cluster(bed.sim, cfg, bed.catalog);
  bed.RunTask([&]() -> sim::Task<> {
    SWAP_CHECK((co_await cluster.Initialize()).ok());
    core::Backend* home =
        cluster.node(0).serve().backend("llama-3.2-1b-fp16");
    SWAP_CHECK(home != nullptr);
    // Trip the home's breaker: quarantined until its cooldown elapses.
    for (int i = 0; i < cfg.recovery.breaker_failure_threshold; ++i) {
      home->breaker.RecordFailure();
    }
    SWAP_CHECK(home->breaker.CoolingDown());
    core::ChatResult r =
        co_await cluster.ChatAndWait("llama-3.2-1b-fp16", 64, 16);
    EXPECT_TRUE(r.ok) << r.error;
    cluster.Shutdown();
  });

  // The request was routed around the quarantined home; the standby's
  // swap-in pulled the payload over the fabric before restoring.
  EXPECT_EQ(cluster.routed(), 1u);
  EXPECT_EQ(cluster.node(1).serve().metrics().TotalCompleted(), 1u);
  EXPECT_EQ(cluster.node(0).serve().metrics().TotalCompleted(), 0u);
  ASSERT_NE(cluster.replicator(), nullptr);
  EXPECT_EQ(cluster.replicator()->fetches(), 1u);
  EXPECT_GT(cluster.replicator()->fetched_bytes().count(), 0);
  EXPECT_EQ(cluster.replicator()->in_flight(), 0);
  // The restore consumed the fetched copy (standard swap-in semantics);
  // the model is now resident on the standby and the home node still holds
  // its own payload for the next fetch.
  core::Backend* standby =
      cluster.node(1).serve().backend("llama-3.2-1b-fp16");
  ASSERT_NE(standby, nullptr);
  EXPECT_EQ(standby->engine->state(), engine::BackendState::kRunning);
  auto home_copy = cluster.node(0).serve().snapshot_store().FindByOwner(
      Name("llama-3.2-1b-fp16"));
  ASSERT_NE(home_copy, nullptr);
  EXPECT_EQ(home_copy->tier, ckpt::SnapshotTier::kHost);
}

}  // namespace
}  // namespace swapserve::cluster
