// Functional tests for the multi-node fleet: standby adoption, placeholder
// installation, background replication, and locality routing with
// on-demand remote fetch.

#include "cluster/cluster.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../core/config_rows.h"
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
    for (int i = 0; i < core::Backend::kBreakerFailureThreshold; ++i) {
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

// The fleet entry drops the `admission` section: ClusterServe resets it by
// name in each node's config. So a config whose budget sheds every request
// through one SwapServe sheds none through a fleet. This row names that
// defect; it goes when admission itself is deleted.
TEST(ClusterTest, FleetEntryDropsAdmissionThatOneSwapServeEnforces) {
  core::Config cfg;
  cfg.models.push_back(Entry("llama-3.2-1b-fp16", 0));
  cfg.cluster.nodes = 2;
  cfg.admission.enabled = true;
  // The smallest budget Validate accepts is above 0. After Initialize the
  // model is swapped out, so the penalty alone blows a 1 ms budget: every
  // request is shed while the backend stays cold.
  cfg.admission.default_budget_s = 1e-3;
  cfg.admission.swap_penalty_s = 5.0;
  ASSERT_TRUE(
      cfg.Validate(model::ModelCatalog::Default(), cfg.NodeGpuCount(0)).ok());
  constexpr int kRequests = 4;
  core::InferenceRequest request;
  request.model = "llama-3.2-1b-fp16";
  request.prompt_tokens = 16;
  request.max_tokens = 16;

  ClusterBed fleet_bed;
  ClusterServe fleet(fleet_bed.sim, cfg, fleet_bed.catalog);
  int fleet_shed = 0;
  fleet_bed.RunTask([&]() -> sim::Task<> {
    SWAP_CHECK((co_await fleet.Initialize()).ok());
    std::vector<core::ResponseChannelPtr> channels;
    for (int i = 0; i < kRequests; ++i) {
      Result<core::ResponseChannelPtr> r = fleet.Accept(request);
      if (r.ok()) {
        channels.push_back(*r);
      } else {
        ++fleet_shed;
      }
    }
    fleet.Shutdown();
  });
  EXPECT_EQ(fleet_shed, 0);
  for (int i = 0; i < fleet.nodes(); ++i) {
    EXPECT_EQ(fleet.node(i).serve().admission(), nullptr) << "node" << i;
    EXPECT_EQ(fleet.node(i).serve().metrics().TotalShed(), 0u);
  }

  // The same config through one SwapServe (node 0's machine, alone).
  ClusterBed solo_bed;
  Node solo(solo_bed.sim, 0, cfg.NodeGpuCount(0), cfg, solo_bed.catalog, {});
  int solo_shed = 0;
  solo_bed.RunTask([&]() -> sim::Task<> {
    SWAP_CHECK((co_await solo.serve().Initialize()).ok());
    for (int i = 0; i < kRequests; ++i) {
      if (!solo.serve().handler().Accept(request).ok()) ++solo_shed;
    }
    solo.serve().Shutdown();
  });
  EXPECT_EQ(solo_shed, kRequests);
  ASSERT_NE(solo.serve().admission(), nullptr);
  EXPECT_EQ(solo.serve().metrics().TotalShed(),
            static_cast<std::uint64_t>(kRequests));
}


// A node's config is the fleet's config with its scopes named: every
// `global` and `fault.rules` setting reaches each node unchanged, `cluster`
// is reset (the fleet alone reads it), `admission` is the one dropped
// section, and `fault.seed` and `models` are derived per node.
TEST(ClusterTest, NodeConfigIsTheFleetConfigWithItsScopesNamed) {
  using core::testing::ForEachLeafRow;
  using core::testing::NonDefault;
  core::Config cfg;
  cfg.models.push_back(Entry("llama-3.2-1b-fp16", 0));
  cfg.models.push_back(Entry("llama-3.2-3b-fp16", 1));
  cfg.cluster.nodes = 2;
  cfg.cluster.replicate = 2;
  cfg.admission.enabled = true;
  ForEachLeafRow<core::GlobalConfig>([&](const auto& row, auto member) {
    cfg.global.*member = NonDefault(row.range, cfg.global.*member);
  });
  fault::FaultRule rule;
  ForEachLeafRow<fault::FaultRule>([&](const auto& row, auto member) {
    rule.*member = NonDefault(row.range, rule.*member);
  });
  rule.point = "engine.crash";  // a registered point, and not the default
  cfg.fault.rules.push_back(rule);
  ASSERT_TRUE(
      cfg.Validate(model::ModelCatalog::Default(), cfg.NodeGpuCount(0)).ok())
      << cfg.Validate(model::ModelCatalog::Default(), cfg.NodeGpuCount(0));

  ClusterBed bed;
  ClusterServe fleet(bed.sim, cfg, bed.catalog);
  const core::Config defaults;
  const fault::FaultRule default_rule;
  for (int i = 0; i < fleet.nodes(); ++i) {
    const core::Config& node = fleet.node(i).serve().config();
    ForEachLeafRow<core::GlobalConfig>([&](const auto& row, auto member) {
      EXPECT_EQ(node.global.*member, cfg.global.*member)
          << "node" << i << " global." << row.key;
      EXPECT_NE(node.global.*member, defaults.global.*member)
          << "node" << i << " global." << row.key;
    });
    ASSERT_EQ(node.fault.rules.size(), 1u);
    ForEachLeafRow<fault::FaultRule>([&](const auto& row, auto member) {
      EXPECT_EQ(node.fault.rules[0].*member, rule.*member)
          << "node" << i << " fault.rules[0]." << row.key;
      EXPECT_NE(node.fault.rules[0].*member, default_rule.*member)
          << "node" << i << " fault.rules[0]." << row.key;
    });
    ForEachLeafRow<core::ClusterConfig>([&](const auto& row, auto member) {
      EXPECT_EQ(node.cluster.*member, defaults.cluster.*member)
          << "node" << i << " cluster." << row.key;
    });
    ForEachLeafRow<core::AdmissionConfig>([&](const auto& row, auto member) {
      EXPECT_EQ(node.admission.*member, defaults.admission.*member)
          << "node" << i << " admission." << row.key;
    });
    EXPECT_NE(node.fault.seed, cfg.fault.seed) << "node" << i;
    // Node i homes model i and holds a standby of the other.
    ASSERT_EQ(node.models.size(), 2u);
    for (int m = 0; m < 2; ++m) {
      EXPECT_EQ(node.models[m].model_id, cfg.models[m].model_id);
      EXPECT_EQ(node.models[m].node, 0);
      EXPECT_EQ(node.models[m].standby, m != i) << "node" << i;
    }
  }
  EXPECT_NE(fleet.node(0).serve().config().fault.seed,
            fleet.node(1).serve().config().fault.seed);
}

}  // namespace
}  // namespace swapserve::cluster
