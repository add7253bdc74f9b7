// Deadlock validator tests (DESIGN.md §10).
//
// This binary is built with SWAPSERVE_LOCK_DEBUG=1 in every build type, so
// the validator runs here even in NDEBUG builds. That is safe because the
// lock code lives only in sync.h: the swapserve_sim library it links
// compiles no SimRwLock/SimMutex function of its own.

#include "sim/lock_debug.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "sim/time.h"

namespace swapserve::sim {
namespace {

// Classic ABBA: each coroutine takes its first lock, yields, then goes for
// the other one. The second wait closes the cycle. Runs to the default
// violation handler, which prints the named chain and aborts — so the
// constructions below only ever run inside a death-test child process
// (where the leaked, forever-suspended frames don't matter).
void RunAbbaDeadlock() {
  Simulation sim;
  SimMutex alpha(sim, "alpha");
  SimMutex beta(sim, "beta");
  auto locker = [&](SimMutex& first, SimMutex& second) -> Task<> {
    auto a = co_await first.Acquire();
    co_await sim.Delay(Seconds(1));
    auto b = co_await second.Acquire();
  };
  Spawn(locker(alpha, beta));
  Spawn(locker(beta, alpha));
  sim.Run();
}

// Three-party cycle: A(alpha)->beta, B(beta)->gamma, C(gamma)->alpha. The
// report must walk the whole chain, not just the immediate holder.
void RunThreeLockCycle() {
  Simulation sim;
  SimMutex alpha(sim, "alpha");
  SimMutex beta(sim, "beta");
  SimMutex gamma(sim, "gamma");
  auto locker = [&](SimMutex& first, SimMutex& second) -> Task<> {
    auto a = co_await first.Acquire();
    co_await sim.Delay(Seconds(1));
    auto b = co_await second.Acquire();
  };
  Spawn(locker(alpha, beta));
  Spawn(locker(beta, gamma));
  Spawn(locker(gamma, alpha));
  sim.Run();
}

#if GTEST_HAS_DEATH_TEST

TEST(LockDebugTest, AbbaCycleAbortsWithNamedChain) {
  EXPECT_DEATH(RunAbbaDeadlock(),
               "deadlock detected.*SimMutex \"(alpha|beta)\".*"
               "its holder waits on.*SimMutex.*can never be granted");
}

TEST(LockDebugTest, ThreeLockCycleReportsFullChain) {
  // The chain reported from the last waiter names all three locks.
  EXPECT_DEATH(RunThreeLockCycle(),
               "deadlock detected(.|\n)*alpha(.|\n)*"
               "(beta|gamma)(.|\n)*(beta|gamma)");
}

#endif  // GTEST_HAS_DEATH_TEST

TEST(LockDebugTest, RankViolationReportsBothLocks) {
  Simulation sim;
  SimMutex low(sim, "table", /*rank=*/1);
  SimMutex high(sim, "row", /*rank=*/2);
  std::vector<std::string> reports;
  sim.lock_debug().SetViolationHandler(
      [&](const std::string& msg) { reports.push_back(msg); });

  auto good = [&]() -> Task<> {
    auto a = co_await low.Acquire();
    auto b = co_await high.Acquire();
  };
  auto bad = [&]() -> Task<> {
    auto a = co_await high.Acquire();
    auto b = co_await low.Acquire();  // rank 1 after rank 2: violation
  };
  Spawn(good());
  sim.Run();
  EXPECT_EQ(sim.lock_debug().violations(), 0u);

  Spawn(bad());
  sim.Run();
  EXPECT_EQ(sim.lock_debug().violations(), 1u);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_NE(reports[0].find("lock rank violation"), std::string::npos);
  EXPECT_NE(reports[0].find("\"table\""), std::string::npos);
  EXPECT_NE(reports[0].find("\"row\""), std::string::npos);
}

TEST(LockDebugTest, ContentionAndHandoffAreNotViolations) {
  // Heavy contention over two locks taken in a consistent order is fine:
  // waits-for edges form and clear via grant hand-off without ever closing
  // a cycle, and no rank is configured.
  Simulation sim;
  SimMutex first(sim, "first");
  SimMutex second(sim, "second");
  sim.lock_debug().SetViolationHandler(
      [](const std::string& msg) { FAIL() << "unexpected report: " << msg; });
  int completed = 0;
  auto worker = [&]() -> Task<> {
    auto a = co_await first.Acquire();
    co_await sim.Delay(Seconds(1));
    auto b = co_await second.Acquire();
    co_await sim.Delay(Seconds(1));
    ++completed;
  };
  for (int i = 0; i < 5; ++i) Spawn(worker());
  sim.Run();
  EXPECT_EQ(completed, 5);
  EXPECT_EQ(sim.lock_debug().violations(), 0u);
}

TEST(LockDebugTest, ReattributeMakesEscapedHoldOpaque) {
  // A guard that escapes its acquiring coroutine frame leaves a stale
  // frame->lock attribution behind; if the allocator reuses that frame
  // address for a new coroutine, its wait on the same lock would look like
  // a self-deadlock. Reattribute (Guard::DetachAgent) moves the hold to
  // the opaque null holder, which never extends waits-for chains.
  Simulation sim;
  int lock_tag = 0, agent_tag = 0;
  const void* lock = &lock_tag;
  const void* agent = &agent_tag;
  std::vector<std::string> reports;
  sim.lock_debug().SetViolationHandler(
      [&](const std::string& msg) { reports.push_back(msg); });
  sim.lock_debug().Register(lock, "SimRwLock", "backend:m", kLockUnranked);

  // Without detaching: a wait by the (reused) holder frame is reported.
  sim.lock_debug().OnAcquired(lock, agent);
  sim.lock_debug().OnWait(lock, agent);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_NE(reports[0].find("deadlock detected"), std::string::npos);
  sim.lock_debug().OnReleased(lock, agent);

  // With Reattribute: the hold stays visible but opaque; no report.
  sim.lock_debug().OnAcquired(lock, agent);
  sim.lock_debug().Reattribute(lock, agent);
  sim.lock_debug().OnWait(lock, agent);
  EXPECT_EQ(reports.size(), 1u);
  sim.lock_debug().OnReleased(lock, nullptr);  // release as the guard would
  sim.lock_debug().Unregister(lock);
}

TEST(LockDebugTest, EscapedGuardWithDetachSurvivesFrameReuse) {
  // Production shape (Scheduler::EnsureRunningAndPin): a coroutine
  // acquires a shared pin, detaches, and returns the guard to its caller;
  // identical coroutines spawned afterwards tend to reuse the dead frame's
  // address. With DetachAgent no run may report a violation.
  Simulation sim;
  SimRwLock rw(sim, "backend:m");
  sim.lock_debug().SetViolationHandler(
      [](const std::string& msg) { FAIL() << "unexpected report: " << msg; });
  SimRwLock::SharedGuard escaped;
  auto pinner = [&]() -> Task<> {
    SimRwLock::SharedGuard pin = co_await rw.AcquireShared();
    pin.DetachAgent();
    escaped = std::move(pin);
  };
  // A writer queues behind the escaped pin, then later identical frames
  // wait behind the writer — the exact shape that misfired before.
  auto writer = [&]() -> Task<> {
    auto exclusive = co_await rw.AcquireExclusive();
  };
  int granted = 0;
  auto reader = [&]() -> Task<> {
    SimRwLock::SharedGuard pin = co_await rw.AcquireShared();
    ++granted;
  };
  Spawn(pinner());
  Spawn(writer());
  for (int i = 0; i < 4; ++i) Spawn(reader());
  escaped.Release();  // lets the writer, then the queued readers, through
  sim.Run();
  EXPECT_EQ(granted, 4);
  EXPECT_EQ(sim.lock_debug().violations(), 0u);
}

TEST(LockDebugTest, RwLockSharedHoldersDoNotFalselyCycle) {
  // Readers pile onto the rwlock while each also takes an unrelated mutex;
  // no cycle, no report.
  Simulation sim;
  SimRwLock rw(sim, "state");
  SimMutex mu(sim, "side");
  sim.lock_debug().SetViolationHandler(
      [](const std::string& msg) { FAIL() << "unexpected report: " << msg; });
  int completed = 0;
  auto reader = [&]() -> Task<> {
    auto shared = co_await rw.AcquireShared();
    auto guard = co_await mu.Acquire();
    co_await sim.Delay(Seconds(1));
    ++completed;
  };
  auto writer = [&]() -> Task<> {
    auto exclusive = co_await rw.AcquireExclusive();
    ++completed;
  };
  for (int i = 0; i < 3; ++i) Spawn(reader());
  Spawn(writer());
  sim.Run();
  EXPECT_EQ(completed, 4);
  EXPECT_EQ(sim.lock_debug().violations(), 0u);
}

}  // namespace
}  // namespace swapserve::sim
