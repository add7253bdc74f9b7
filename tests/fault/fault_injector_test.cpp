#include "fault/fault_injector.h"

#include <vector>

#include <gtest/gtest.h>

#include "sim/simulation.h"

namespace swapserve::fault {
namespace {

FaultRule Rule(std::string point, double probability) {
  FaultRule rule;
  rule.point = std::move(point);
  rule.probability = probability;
  return rule;
}

FaultPlan OneRule(FaultRule rule) {
  FaultPlan plan;
  plan.rules.push_back(std::move(rule));
  return plan;
}

TEST(StableHashTest, StableAndDistinct) {
  // FNV-1a of "ckpt.swap_in" must never change across platforms or builds:
  // it seeds per-component rng streams and snapshot checksums.
  EXPECT_EQ(StableHash("ckpt.swap_in"), StableHash("ckpt.swap_in"));
  EXPECT_NE(StableHash("ckpt.swap_in"), StableHash("ckpt.swap_out"));
  EXPECT_EQ(StableHash(""), 14695981039346656037ull);  // FNV offset basis
  EXPECT_NE(StableHashCombine(1, 2), StableHashCombine(2, 1));
}

TEST(FaultInjectorTest, UnarmedInjectorNeverFires) {
  sim::Simulation sim;
  FaultInjector injector(sim, 42);
  EXPECT_FALSE(injector.armed());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(injector.Evaluate("ckpt.swap_in", "m").fired());
  }
  EXPECT_EQ(injector.total_fires(), 0u);
}

TEST(FaultInjectorTest, DeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    sim::Simulation sim;
    FaultInjector injector(sim, seed);
    injector.Configure(OneRule(Rule("engine.crash", 0.5)));
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(injector.Evaluate("engine.crash", "m").fired());
    }
    return fired;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(FaultInjectorTest, UnarmedPointsDoNotPerturbArmedOnes) {
  // Evaluating points with no matching rule must not advance the stream:
  // a run with extra unarmed evaluations interleaved sees the exact same
  // decisions at the armed point.
  auto run = [](bool interleave) {
    sim::Simulation sim;
    FaultInjector injector(sim, 9);
    injector.Configure(OneRule(Rule("hw.acquire", 0.5)));
    std::vector<bool> fired;
    for (int i = 0; i < 32; ++i) {
      if (interleave) {
        (void)injector.Evaluate("storage.read", "m");
        (void)injector.Evaluate("engine.hang", "m");
      }
      fired.push_back(injector.Evaluate("hw.acquire", "m").fired());
    }
    return fired;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(FaultInjectorTest, MaxFiresBoundsTheRule) {
  sim::Simulation sim;
  FaultInjector injector(sim, 1);
  FaultRule rule = Rule("ckpt.swap_out", 1.0);
  rule.max_fires = 2;
  injector.Configure(OneRule(rule));
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    if (injector.Evaluate("ckpt.swap_out", "m").fired()) ++fired;
  }
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(injector.fires("ckpt.swap_out"), 2u);
}

TEST(FaultInjectorTest, OwnerFilterRestrictsTheRule) {
  sim::Simulation sim;
  FaultInjector injector(sim, 1);
  FaultRule rule = Rule("engine.crash", 1.0);
  rule.owner = "model-a";
  injector.Configure(OneRule(rule));
  EXPECT_FALSE(injector.Evaluate("engine.crash", "model-b").fired());
  EXPECT_TRUE(injector.Evaluate("engine.crash", "model-a").fired());
}

TEST(FaultInjectorTest, ArmAfterDelaysTheRule) {
  sim::Simulation sim;
  FaultInjector injector(sim, 1);
  FaultRule rule = Rule("hw.link", 1.0);
  rule.stall_s = 0.5;
  rule.fail = false;
  rule.arm_after_s = 5.0;
  injector.Configure(OneRule(rule));
  EXPECT_FALSE(injector.Evaluate("hw.link", "pcie0").fired());
  bool fired_late = false;
  sim.Schedule(sim::Seconds(6), [&] {
    fired_late = injector.Evaluate("hw.link", "pcie0").fired();
  });
  sim.Run();
  EXPECT_TRUE(fired_late);
}

// NextArmed names the first instant Evaluate() could fire: the first
// nanosecond its seconds comparison accepts, over rules that match the
// point and owner and still have fires left.
TEST(FaultInjectorTest, NextArmedIsTheFirstInstantARuleCanFire) {
  sim::Simulation sim;
  FaultInjector injector(sim, 1);
  EXPECT_EQ(injector.NextArmed("node.crash", "node0"), sim::kNever);

  FaultPlan plan;
  FaultRule late = Rule("node.crash", 1.0);
  late.owner = "node0";
  late.arm_after_s = 2000.3;  // not a whole number of nanoseconds in binary
  late.max_fires = 1;
  FaultRule other = Rule("node.crash", 1.0);
  other.owner = "node1";
  other.arm_after_s = 10;
  FaultRule never = Rule("node.crash", 1.0);
  never.arm_after_s = 1e30;
  plan.rules = {late, other, never};
  injector.Configure(plan);

  const sim::SimTime at = injector.NextArmed("node.crash", "node0");
  EXPECT_GE(at.ToSeconds(), 2000.3);
  EXPECT_LT((at - sim::Nanos(1)).ToSeconds(), 2000.3);
  EXPECT_EQ(injector.NextArmed("node.crash", "node1"),
            sim::SimTime(sim::Seconds(10).ns()));
  EXPECT_EQ(injector.NextArmed("node.restart", "node0"), sim::kNever);

  bool fired = false;
  sim.ScheduleAt(at - sim::Nanos(1), [&] {
    EXPECT_FALSE(injector.Evaluate("node.crash", "node0").fired());
  });
  sim.ScheduleAt(at, [&] {
    fired = injector.Evaluate("node.crash", "node0").fired();
    // Its one fire is spent.
    EXPECT_EQ(injector.NextArmed("node.crash", "node0"), sim::kNever);
  });
  sim.Run();
  EXPECT_TRUE(fired);
}

TEST(FaultInjectorTest, StallOnlyRuleStallsWithoutFailing) {
  sim::Simulation sim;
  FaultInjector injector(sim, 1);
  FaultRule rule = Rule("hw.link", 1.0);
  rule.stall_s = 1.5;
  rule.fail = false;
  injector.Configure(OneRule(rule));
  FaultDecision d = injector.Evaluate("hw.link", "pcie0");
  EXPECT_TRUE(d.status.ok());
  EXPECT_EQ(d.stall, sim::Seconds(1.5));
  EXPECT_TRUE(d.fired());
}

TEST(FaultInjectorTest, FailRuleCarriesCodeAndMessage) {
  sim::Simulation sim;
  FaultInjector injector(sim, 1);
  FaultRule rule = Rule("ckpt.swap_in", 1.0);
  rule.code = StatusCode::kInternal;
  rule.message = "injected restore failure";
  injector.Configure(OneRule(rule));
  FaultDecision d = injector.Evaluate("ckpt.swap_in", "m");
  EXPECT_EQ(d.status.code(), StatusCode::kInternal);
  EXPECT_NE(d.status.message().find("injected restore failure"),
            std::string::npos);
}

TEST(FaultInjectorTest, ConfigureResetsCountersAndStream) {
  sim::Simulation sim;
  FaultInjector injector(sim, 3);
  FaultRule rule = Rule("engine.crash", 0.5);
  rule.max_fires = 4;
  FaultPlan plan = OneRule(rule);
  auto run = [&] {
    injector.Configure(plan);
    std::vector<bool> fired;
    for (int i = 0; i < 32; ++i) {
      fired.push_back(injector.Evaluate("engine.crash", "m").fired());
    }
    return fired;
  };
  EXPECT_EQ(run(), run());
}

TEST(FaultInjectorTest, NullInjectorHelperPassesThrough) {
  EXPECT_FALSE(Evaluate(nullptr, "ckpt.swap_in", "m").fired());
}

}  // namespace
}  // namespace swapserve::fault
