// The fleet heartbeat's parking: a healthy fleet schedules no beats, a
// power change or plan change wakes it, a node.* rule that arms later
// fires on the beat a loop beating every interval would have used, and
// Stop()/Start() never leaves a stale loop beating. Also covers the
// repairer's restart generation.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "cluster/cluster.h"
#include "fault/fault_injector.h"
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

// Beat 0.5s, suspect after 1s of silence, down after 3s.
core::Config FastDetectConfig(int nodes) {
  core::Config cfg;
  core::ModelEntry m;
  m.model_id = kModel;
  m.engine = "vllm";
  cfg.models.push_back(m);
  cfg.cluster.nodes = nodes;
  cfg.cluster.heartbeat_interval_s = 0.5;
  cfg.cluster.suspect_after_s = 1.0;
  cfg.cluster.down_after_s = 3.0;
  cfg.cluster.repair_interval_s = 1.0;
  return cfg;
}

fault::FaultRule CrashRule(const std::string& owner, double arm_after_s) {
  fault::FaultRule rule;
  rule.point = "node.crash";
  rule.owner = owner;
  rule.arm_after_s = arm_after_s;
  rule.max_fires = 1;
  rule.stall_s = 60;
  return rule;
}

// First beat at or after `t` on the grid anchored at `anchor`.
sim::SimTime BeatAtOrAfter(sim::SimTime anchor, sim::SimTime t,
                           sim::SimDuration interval) {
  const std::int64_t since = (t - anchor).ns();
  return anchor + interval * ((since + interval.ns() - 1) / interval.ns());
}

TEST(HealthParkingTest, HealthyFleetParksAfterOneBeat) {
  Bed bed;
  ClusterServe cluster(bed.sim, FastDetectConfig(3), bed.catalog);
  bed.RunTask([&]() -> sim::Task<> {
    SWAP_CHECK((co_await cluster.Initialize()).ok());
    co_await bed.sim.Delay(sim::Minutes(10));
    EXPECT_TRUE(cluster.monitor()->parked());
    EXPECT_EQ(cluster.monitor()->beats(), 1u);
    // Skipped beats count as heard.
    EXPECT_LT(cluster.monitor()->Phi(0), 1.0);
    cluster.Shutdown();
  });
}

// A rule that arms far ahead: the loop parks, resumes one beat early, and
// the crash lands on the first grid beat at or after the arm instant —
// the beat a loop beating every interval fires it on.
TEST(HealthParkingTest, ArmedCrashRuleFiresOnThePollingBeat) {
  Bed bed;
  core::Config cfg = FastDetectConfig(2);
  const double arm_s = 5000.3;
  cfg.fault.rules.push_back(CrashRule("node1", arm_s));
  ClusterServe cluster(bed.sim, cfg, bed.catalog);
  const sim::SimDuration beat = sim::Seconds(0.5);
  bed.RunTask([&]() -> sim::Task<> {
    SWAP_CHECK((co_await cluster.Initialize()).ok());
    const sim::SimTime anchor = bed.sim.Now();
    EXPECT_LT(anchor.ToSeconds(), arm_s - 10);
    const sim::SimTime fire =
        BeatAtOrAfter(anchor, sim::SimTime(sim::Seconds(arm_s).ns()), beat);
    co_await bed.sim.Delay(sim::Minutes(1));
    EXPECT_TRUE(cluster.monitor()->parked());
    co_await bed.sim.WaitUntil(fire - sim::Nanos(1));
    EXPECT_TRUE(cluster.node(1).alive());
    co_await bed.sim.WaitUntil(fire);
    EXPECT_FALSE(cluster.node(1).alive());
    EXPECT_EQ(cluster.node(1).crashes(), 1u);
    // Two beats around the arm instant, not one per interval since the
    // start.
    EXPECT_LE(cluster.monitor()->beats(), 4u);
    cluster.Shutdown();
  });
}

// A direct Node::Crash() on a parked fleet wakes the monitor, which walks
// the node through suspect and down within the configured silences and
// parks again once the rebooted node is healthy.
TEST(HealthParkingTest, DirectCrashOnParkedFleetIsDetected) {
  Bed bed;
  ClusterServe cluster(bed.sim, FastDetectConfig(3), bed.catalog);
  bed.RunTask([&]() -> sim::Task<> {
    SWAP_CHECK((co_await cluster.Initialize()).ok());
    co_await bed.sim.Delay(sim::Minutes(2) + sim::Millis(123));
    EXPECT_TRUE(cluster.monitor()->parked());
    cluster.node(1).Crash();
    co_await bed.sim.Delay(sim::Seconds(1.0 + 0.5));  // suspect_after + beat
    EXPECT_EQ(cluster.node(1).membership(), NodeState::kSuspect);
    co_await bed.sim.Delay(sim::Seconds(2.0));  // down_after + beat in all
    EXPECT_EQ(cluster.node(1).membership(), NodeState::kDown);
    EXPECT_GE(cluster.failovers(), 1u);
    cluster.node(1).Boot();
    co_await bed.sim.Delay(sim::Seconds(2));
    EXPECT_EQ(cluster.node(1).membership(), NodeState::kHealthy);
    EXPECT_TRUE(cluster.monitor()->parked());
    cluster.Shutdown();
  });
}

// A plan installed on a parked fleet is evaluated from the next beat on.
TEST(HealthParkingTest, ConfigureOnParkedFleetArmsTheNextBeat) {
  Bed bed;
  ClusterServe cluster(bed.sim, FastDetectConfig(2), bed.catalog);
  bed.RunTask([&]() -> sim::Task<> {
    SWAP_CHECK((co_await cluster.Initialize()).ok());
    co_await bed.sim.Delay(sim::Minutes(2) + sim::Millis(123));
    EXPECT_TRUE(cluster.monitor()->parked());
    fault::FaultPlan plan;
    plan.rules.push_back(CrashRule("node0", 0));
    cluster.node(0).serve().fault_injector().Configure(plan);
    co_await bed.sim.Delay(sim::Seconds(0.5));
    EXPECT_FALSE(cluster.node(0).alive());
    co_await bed.sim.Delay(sim::Seconds(3.5));
    EXPECT_EQ(cluster.node(0).membership(), NodeState::kDown);
    cluster.Shutdown();
  });
}

TEST(HealthParkingTest, StopReleasesTheParkedLoop) {
  Bed bed;
  core::Config cfg = FastDetectConfig(2);
  cfg.fault.rules.push_back(CrashRule("node1", 1e6));  // arms later
  ClusterServe cluster(bed.sim, cfg, bed.catalog);
  bed.RunTask([&]() -> sim::Task<> {
    SWAP_CHECK((co_await cluster.Initialize()).ok());
    co_await bed.sim.Delay(sim::Minutes(1));
    EXPECT_TRUE(cluster.monitor()->parked());
    EXPECT_EQ(cluster.monitor()->wake_signal().waiting(), 1u);
    cluster.Shutdown();
    EXPECT_EQ(cluster.monitor()->wake_signal().waiting(), 0u);
    EXPECT_FALSE(cluster.monitor()->running());
  });
  // The pending arm wake-up fired after Stop() and did nothing.
  EXPECT_EQ(cluster.node(1).crashes(), 0u);
  EXPECT_FALSE(cluster.monitor()->parked());
}

// Start, Stop and Start again within one beat: one loop beats afterwards.
// A dead node keeps the fleet from parking, so every interval beats.
TEST(HealthParkingTest, RestartWithinABeatRunsOneLoop) {
  Bed bed;
  ClusterServe cluster(bed.sim, FastDetectConfig(2), bed.catalog);
  bed.RunTask([&]() -> sim::Task<> {
    SWAP_CHECK((co_await cluster.Initialize()).ok());
    cluster.KillNode(1, sim::Hours(1));
    co_await bed.sim.Delay(sim::Seconds(10) + sim::Millis(100));
    HealthMonitor& monitor = *cluster.monitor();
    monitor.Stop();
    co_await bed.sim.Delay(sim::Millis(200));
    monitor.Start();
    const std::uint64_t before = monitor.beats();
    co_await bed.sim.Delay(sim::Seconds(5) + sim::Millis(100));
    EXPECT_EQ(monitor.beats() - before, 10u);
    cluster.Shutdown();
  });
}

// A dead node keeps the repairer from parking, so every interval scans.
TEST(RepairerRestartTest, RestartWithinAnIntervalRunsOneLoop) {
  Bed bed;
  ClusterServe cluster(bed.sim, FastDetectConfig(2), bed.catalog);
  bed.RunTask([&]() -> sim::Task<> {
    SWAP_CHECK((co_await cluster.Initialize()).ok());
    cluster.KillNode(1, sim::Hours(1));
    co_await bed.sim.Delay(sim::Seconds(3) + sim::Millis(100));
    ReplicationRepairer& repairer = *cluster.repairer();
    repairer.Stop();
    co_await bed.sim.Delay(sim::Millis(300));
    repairer.Start();
    const std::uint64_t before = repairer.passes();
    co_await bed.sim.Delay(sim::Seconds(10) + sim::Millis(100));
    EXPECT_EQ(repairer.passes() - before, 10u);
    cluster.Shutdown();
  });
}

// An idle, healthy 4-node fleet for one simulated day. Beating every
// 0.5 s and sampling each node's GPU every second cost 518,400 events;
// parked, the fleet needs almost none.
TEST(HealthParkingTest, IdleFleetDaySchedulesAlmostNoEvents) {
  Bed bed;
  core::Config cfg = FastDetectConfig(4);
  cfg.cluster.heartbeat_interval_s = 0.5;
  ClusterServe cluster(bed.sim, cfg, bed.catalog);
  std::uint64_t at_start = 0;
  bed.RunTask([&]() -> sim::Task<> {
    SWAP_CHECK((co_await cluster.Initialize()).ok());
    at_start = bed.sim.processed_events();
    co_await bed.sim.Delay(sim::Days(1));
    cluster.Shutdown();
  });
  const std::uint64_t events = bed.sim.processed_events() - at_start;
  EXPECT_LE(events, 518'400u / 100) << events << " events";
}

}  // namespace
}  // namespace swapserve::cluster
