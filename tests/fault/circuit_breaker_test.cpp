#include "fault/circuit_breaker.h"

#include <gtest/gtest.h>

namespace swapserve::fault {
namespace {

using State = CircuitBreaker::State;

TEST(CircuitBreakerTest, OpensAfterThresholdConsecutiveFailures) {
  sim::Simulation sim;
  CircuitBreaker breaker(sim, /*failure_threshold=*/3, sim::Seconds(10));
  EXPECT_TRUE(breaker.AllowRequest());
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), State::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 2);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), State::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);
  EXPECT_FALSE(breaker.AllowRequest());
}

TEST(CircuitBreakerTest, SuccessResetsTheFailureStreak) {
  sim::Simulation sim;
  CircuitBreaker breaker(sim, 3, sim::Seconds(10));
  breaker.RecordFailure();
  breaker.RecordFailure();
  breaker.RecordSuccess();
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), State::kClosed);  // streak broken at 2
}

TEST(CircuitBreakerTest, CooldownAdmitsExactlyOneProbe) {
  sim::Simulation sim;
  CircuitBreaker breaker(sim, 1, sim::Seconds(10));
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), State::kOpen);
  sim.Schedule(sim::Seconds(5), [&] {
    EXPECT_FALSE(breaker.AllowRequest());  // still cooling down
  });
  sim.Schedule(sim::Seconds(11), [&] {
    EXPECT_TRUE(breaker.AllowRequest());  // the probe
    EXPECT_EQ(breaker.state(), State::kHalfOpen);
    EXPECT_FALSE(breaker.AllowRequest());  // probe in flight
  });
  sim.Run();
}

TEST(CircuitBreakerTest, ProbeSuccessClosesProbeFailureReopens) {
  sim::Simulation sim;
  CircuitBreaker breaker(sim, 1, sim::Seconds(1));
  breaker.RecordFailure();
  sim.Schedule(sim::Seconds(2), [&] {
    ASSERT_TRUE(breaker.AllowRequest());
    breaker.RecordFailure();  // probe failed
    EXPECT_EQ(breaker.state(), State::kOpen);
    EXPECT_EQ(breaker.trips(), 2u);
  });
  sim.Schedule(sim::Seconds(4), [&] {
    ASSERT_TRUE(breaker.AllowRequest());
    breaker.RecordSuccess();  // probe succeeded
    EXPECT_EQ(breaker.state(), State::kClosed);
    EXPECT_TRUE(breaker.AllowRequest());
  });
  sim.Run();
}

TEST(CircuitBreakerTest, CoolingDownHoldsOnlyWhileOpenInsideTheCooldown) {
  sim::Simulation sim;
  CircuitBreaker breaker(sim, 1, sim::Seconds(10));
  EXPECT_FALSE(breaker.CoolingDown());  // closed
  breaker.RecordFailure();
  EXPECT_TRUE(breaker.CoolingDown());
  sim.Schedule(sim::Seconds(9), [&] { EXPECT_TRUE(breaker.CoolingDown()); });
  sim.Schedule(sim::Seconds(10), [&] {
    // The cooldown is over: no longer quarantined, and asking did not take
    // the probe — the breaker is still open until someone asks to pass.
    EXPECT_FALSE(breaker.CoolingDown());
    EXPECT_FALSE(breaker.CoolingDown());
    EXPECT_EQ(breaker.state(), State::kOpen);
    ASSERT_TRUE(breaker.AllowRequest());  // the probe is still there
    EXPECT_EQ(breaker.state(), State::kHalfOpen);
    EXPECT_FALSE(breaker.CoolingDown());  // half-open is not cooling down
    breaker.RecordFailure();  // the probe failed: a new cooldown starts
    EXPECT_TRUE(breaker.CoolingDown());
  });
  sim.Schedule(sim::Seconds(20), [&] {
    EXPECT_FALSE(breaker.CoolingDown());
    ASSERT_TRUE(breaker.AllowRequest());
    breaker.RecordSuccess();
    EXPECT_FALSE(breaker.CoolingDown());  // closed
  });
  sim.Run();
}

TEST(CircuitBreakerTest, TransitionsExportLabeledMetrics) {
  sim::Simulation sim;
  obs::Observability obs(sim);
  CircuitBreaker breaker(sim, /*failure_threshold=*/1, sim::Seconds(1));
  breaker.BindObservability(&obs, "modelA");

  auto transitions = [&](const char* to) {
    return obs.metrics
        .GetCounter("swapserve_breaker_transitions_total",
                    {{"backend", "modelA"}, {"to", to}})
        .value();
  };
  auto state_gauge = [&] {
    return obs.metrics
        .GetGauge("swapserve_breaker_state", {{"backend", "modelA"}})
        .value();
  };

  breaker.RecordFailure();  // closed -> open
  EXPECT_EQ(transitions("open"), 1.0);
  EXPECT_EQ(state_gauge(), 2.0);

  sim.Schedule(sim::Seconds(2), [&] {
    ASSERT_TRUE(breaker.AllowRequest());  // open -> half-open (the probe)
    EXPECT_EQ(transitions("half-open"), 1.0);
    EXPECT_EQ(state_gauge(), 1.0);
    breaker.RecordSuccess();  // half-open -> closed
    EXPECT_EQ(transitions("closed"), 1.0);
    EXPECT_EQ(state_gauge(), 0.0);
    // Same-state writes are not transitions: nothing increments.
    breaker.RecordSuccess();
    EXPECT_EQ(transitions("closed"), 1.0);
  });
  sim.Run();
}

TEST(CircuitBreakerTest, StateNames) {
  EXPECT_EQ(CircuitStateName(State::kClosed), "closed");
  EXPECT_EQ(CircuitStateName(State::kOpen), "open");
  EXPECT_EQ(CircuitStateName(State::kHalfOpen), "half-open");
}

}  // namespace
}  // namespace swapserve::fault
