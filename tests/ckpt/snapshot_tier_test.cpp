#include "ckpt/snapshot_tier.h"

#include <gtest/gtest.h>

#include "ckpt/checkpoint_engine.h"
#include "fault/fault_injector.h"
#include "hw/link.h"
#include "sim/task.h"

namespace swapserve::ckpt {
namespace {

class SnapshotTierTest : public ::testing::Test {
 protected:
  SnapshotTierTest()
      : nvme(sim, "nvme", GBps(6), sim::Seconds(0.01)),
        store(GiB(64)),
        tier(sim, store, nvme,
             SnapshotTierManager::Options{.host_capacity = GB(10)}) {}

  // The engine's swap-out protocol in miniature: admit, Put, settle.
  sim::Task<Result<SnapshotId>> PutSnapshot(std::string owner, Bytes dirty) {
    Status admitted = co_await tier.AdmitHostBytes(dirty);
    if (!admitted.ok()) co_return admitted;
    Snapshot s;
    s.owner = owner;
    s.dirty_bytes = dirty;
    s.restore = model::VllmRestoreH100();
    Result<SnapshotId> id = store.Put(std::move(s));
    if (!id.ok()) {
      tier.CancelAdmission(dirty);
      co_return id.status();
    }
    tier.OnPut(*id);
    co_return *id;
  }

  // Touch + verify via the restore path, releasing the pin immediately.
  sim::Task<Status> TouchRestorable(SnapshotId id) {
    Status s = co_await tier.EnsureRestorable(id);
    if (s.ok()) tier.Unpin(id);
    co_return s;
  }

  template <typename F>
  void Run(F body) {
    sim::Spawn(std::move(body));
    sim.Run();
  }

  sim::Simulation sim;
  hw::StorageDevice nvme;
  SnapshotStore store;
  SnapshotTierManager tier;
};

TEST_F(SnapshotTierTest, AdmissionDemotesLruVictim) {
  Run([&]() -> sim::Task<> {
    auto a = co_await PutSnapshot("model-a", GB(4));
    auto b = co_await PutSnapshot("model-b", GB(4));
    SWAP_CHECK(a.ok() && b.ok());
    // Touch A so B becomes the LRU victim.
    EXPECT_TRUE((co_await TouchRestorable(*a)).ok());

    auto c = co_await PutSnapshot("model-c", GB(4));
    SWAP_CHECK(c.ok());
    EXPECT_EQ(store.Find(*b)->tier, SnapshotTier::kNvme);
    EXPECT_EQ(store.Find(*a)->tier, SnapshotTier::kHost);
    EXPECT_LE(store.used(), GB(10));
    EXPECT_EQ(store.nvme_used(), GB(4));  // the demoted copy
    EXPECT_EQ(tier.demotions(), 1u);
    EXPECT_EQ(tier.committed(), Bytes(0));
  });
}

TEST_F(SnapshotTierTest, EnsureRestorablePromotesDemotedSnapshot) {
  Run([&]() -> sim::Task<> {
    auto a = co_await PutSnapshot("model-a", GB(4));
    auto b = co_await PutSnapshot("model-b", GB(4));
    EXPECT_TRUE((co_await TouchRestorable(*a)).ok());
    auto c = co_await PutSnapshot("model-c", GB(4));  // demotes B
    SWAP_CHECK(c.ok());
    SWAP_CHECK(store.Find(*b)->tier == SnapshotTier::kNvme);

    Status restored = co_await tier.EnsureRestorable(*b);
    EXPECT_TRUE(restored.ok()) << restored;
    EXPECT_EQ(store.Find(*b)->tier, SnapshotTier::kHost);
    EXPECT_EQ(tier.promotions(), 1u);
    EXPECT_EQ(tier.nvme_misses(), 1u);
    EXPECT_EQ(store.nvme_used(), GB(4));  // someone else was demoted for room
    EXPECT_LE(store.used(), GB(10));
    tier.Unpin(*b);
  });
}

TEST_F(SnapshotTierTest, PinnedSnapshotIsNeverTheVictim) {
  Run([&]() -> sim::Task<> {
    auto a = co_await PutSnapshot("model-a", GB(4));
    SWAP_CHECK(a.ok());
    // Hold the restore pin across the admission below.
    SWAP_CHECK((co_await tier.EnsureRestorable(*a)).ok());
    auto b = co_await PutSnapshot("model-b", GB(4));
    SWAP_CHECK(b.ok());

    auto c = co_await PutSnapshot("model-c", GB(4));
    SWAP_CHECK(c.ok());
    // B was sacrificed; pinned A stayed host-resident.
    EXPECT_EQ(store.Find(*a)->tier, SnapshotTier::kHost);
    EXPECT_EQ(store.Find(*b)->tier, SnapshotTier::kNvme);
    tier.Unpin(*a);
  });
}

TEST_F(SnapshotTierTest, UnboundedManagerIsPassThrough) {
  SnapshotTierManager unbounded(sim, store, nvme, {});
  Run([&]() -> sim::Task<> {
    EXPECT_FALSE(unbounded.bounded());
    for (int i = 0; i < 4; ++i) {
      Status admitted = co_await unbounded.AdmitHostBytes(GB(8));
      SWAP_CHECK(admitted.ok());
      Snapshot s;
      s.owner = "model-" + std::to_string(i);
      s.dirty_bytes = GB(8);
      Result<SnapshotId> id = store.Put(std::move(s));
      SWAP_CHECK(id.ok());
      unbounded.OnPut(*id);
      Status restored = co_await unbounded.EnsureRestorable(*id);
      EXPECT_TRUE(restored.ok());
      unbounded.Unpin(*id);
    }
    EXPECT_EQ(unbounded.demotions(), 0u);
    EXPECT_EQ(unbounded.promotions(), 0u);
    EXPECT_EQ(store.nvme_used(), Bytes(0));
  });
}

TEST_F(SnapshotTierTest, EstimatedSwapInTimeIncludesPromotionCost) {
  CheckpointEngine engine(sim, store, tier);
  Run([&]() -> sim::Task<> {
    auto a = co_await PutSnapshot("model-a", GB(6));
    SWAP_CHECK(a.ok());
    const sim::SimDuration host_estimate = engine.EstimatedSwapInTime(*a);
    EXPECT_GT(host_estimate.ns(), 0);

    // Push A to NVMe with two more snapshots, then re-estimate: the
    // difference must be exactly the tier's promotion-cost term — the bug
    // fixed here was estimating a demoted snapshot as if it were host-hot.
    auto b = co_await PutSnapshot("model-b", GB(6));
    SWAP_CHECK(b.ok());
    SWAP_CHECK(store.Find(*a)->tier == SnapshotTier::kNvme);
    const sim::SimDuration nvme_estimate = engine.EstimatedSwapInTime(*a);
    EXPECT_EQ(nvme_estimate.ns(),
              (host_estimate + tier.EstimatedPromotionTime(*a)).ns());
    EXPECT_GT(tier.EstimatedPromotionTime(*a).ns(), 0);
    EXPECT_EQ(tier.EstimatedPromotionTime(*b).ns(), 0);  // host-resident
  });
}

TEST_F(SnapshotTierTest, PromotionFailureFallsBackToDirectRead) {
  fault::FaultInjector injector(sim, 42);
  fault::FaultPlan plan;
  fault::FaultRule rule;
  rule.point = "storage.promote";
  plan.rules.push_back(rule);
  injector.Configure(plan);
  tier.BindFaultInjector(&injector);
  Run([&]() -> sim::Task<> {
    auto a = co_await PutSnapshot("model-a", GB(6));
    auto b = co_await PutSnapshot("model-b", GB(6));  // demotes A
    SWAP_CHECK(a.ok() && b.ok());
    SWAP_CHECK(store.Find(*a)->tier == SnapshotTier::kNvme);

    Status restored = co_await tier.EnsureRestorable(*a);
    EXPECT_TRUE(restored.ok()) << restored;
    // Promotion was refused, so the restore streamed straight from NVMe
    // and the snapshot stayed demoted.
    EXPECT_GE(tier.promotion_failures(), 1u);
    EXPECT_EQ(tier.direct_reads(), 1u);
    EXPECT_EQ(tier.promotions(), 0u);
    EXPECT_EQ(store.Find(*a)->tier, SnapshotTier::kNvme);
    tier.Unpin(*a);
  });
}

TEST_F(SnapshotTierTest, CorruptionDuringPromotionIsDataLossNeverSilent) {
  fault::FaultInjector injector(sim, 42);
  fault::FaultPlan plan;
  fault::FaultRule rule;
  rule.point = "storage.promote";
  rule.code = StatusCode::kDataLoss;
  plan.rules.push_back(rule);
  injector.Configure(plan);
  tier.BindFaultInjector(&injector);
  Run([&]() -> sim::Task<> {
    auto a = co_await PutSnapshot("model-a", GB(6));
    auto b = co_await PutSnapshot("model-b", GB(6));  // demotes A
    SWAP_CHECK(a.ok() && b.ok());
    SWAP_CHECK(store.Find(*a)->tier == SnapshotTier::kNvme);

    Status restored = co_await tier.EnsureRestorable(*a);
    // The bytes moved, the checksum caught the damage: the restore fails
    // loudly instead of serving a corrupt snapshot.
    EXPECT_EQ(restored.code(), StatusCode::kDataLoss) << restored;
  });
}

TEST_F(SnapshotTierTest, DropDuringDemotionReleasesEverything) {
  Run([&]() -> sim::Task<> {
    auto a = co_await PutSnapshot("model-a", GB(4));
    auto b = co_await PutSnapshot("model-b", GB(4));
    SWAP_CHECK(a.ok() && b.ok());
    // Kick off an admission that starts demoting A (the LRU victim), and
    // drop A while its NVMe write is still in flight.
    bool admitted_done = false;
    sim::Spawn([&]() -> sim::Task<> {
      Status s = co_await tier.AdmitHostBytes(GB(4));
      if (s.ok()) tier.CancelAdmission(GB(4));
      admitted_done = true;
    });
    EXPECT_TRUE(tier.Demoting(*a));
    tier.OnDrop(*a);
    EXPECT_TRUE((store.Drop(*a)).ok());
    co_await sim.Delay(sim::Seconds(30));
    EXPECT_TRUE(admitted_done);
    // The orphaned NVMe copy never entered the ledger; nothing leaks.
    EXPECT_EQ(store.nvme_used(), Bytes(0));
    EXPECT_EQ(tier.moves_in_flight(), 0);
    EXPECT_EQ(tier.committed(), Bytes(0));
  });
}

}  // namespace
}  // namespace swapserve::ckpt
