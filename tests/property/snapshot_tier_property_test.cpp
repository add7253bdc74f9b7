// Property test for the tiered snapshot store: 100 seeds of randomized
// concurrent Put / restore / prefetch / drop traffic against a bounded
// host cache, with chaos seeds that also arm the storage fault points.
//
// Invariants (checked inside the run and at drain):
//   1. Host occupancy never exceeds the host-cache capacity at any event
//      (peak_used() is the store's own high-water mark).
//   2. No snapshot is ever mid-promotion and mid-demotion at once.
//   3. A restore that reports Ok always read a checksum-verified snapshot;
//      corruption surfaces as DATA_LOSS, never as a silent success.
//   4. Full drain balance: every byte ledger (host, NVMe, admission
//      commitments, move/pin counts) returns to zero.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ckpt/snapshot_store.h"
#include "ckpt/snapshot_tier.h"
#include "fault/fault_injector.h"
#include "hw/link.h"
#include "sim/random.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace swapserve::ckpt {
namespace {

struct TierWorld {
  TierWorld(std::uint64_t seed, Bytes capacity)
      : nvme(sim, "nvme", GBps(6), sim::Seconds(0.01)),
        store(GiB(64)),
        tier(sim, store, nvme,
             SnapshotTierManager::Options{.host_capacity = capacity}),
        injector(sim, seed),
        capacity(capacity) {}

  void CheckInvariants() const {
    SWAP_CHECK_MSG(store.used() <= capacity, "host cache over capacity");
    SWAP_CHECK_MSG(store.used() + tier.committed() <= capacity,
                   "admissions over-commit the host cache");
    for (const Snapshot& s : store.All()) {
      SWAP_CHECK_MSG(!(tier.Promoting(s.id) && tier.Demoting(s.id)),
                     "snapshot moving in both directions");
    }
  }

  sim::Simulation sim;
  hw::StorageDevice nvme;
  SnapshotStore store;
  SnapshotTierManager tier;
  fault::FaultInjector injector;
  Bytes capacity;
  std::vector<SnapshotId> live;
  int workers_done = 0;
  std::uint64_t restores_ok = 0;
  std::uint64_t restores_data_loss = 0;
};

fault::FaultPlan ChaosPlan() {
  fault::FaultPlan plan;
  auto add = [&](const char* point, double p, StatusCode code) {
    fault::FaultRule r;
    r.point = point;
    r.probability = p;
    r.code = code;
    plan.rules.push_back(r);
  };
  add("storage.promote", 0.20, StatusCode::kUnavailable);
  add("storage.promote", 0.10, StatusCode::kDataLoss);
  add("storage.read", 0.10, StatusCode::kUnavailable);
  add("snapshot.corrupt", 0.05, StatusCode::kDataLoss);
  return plan;
}

void DropSnapshot(TierWorld& w, SnapshotId id) {
  w.tier.OnDrop(id);
  SWAP_CHECK(w.store.Drop(id).ok());
  w.live.erase(std::remove(w.live.begin(), w.live.end(), id), w.live.end());
}

// One worker's randomized op stream. Pins are never held across a Put, so
// admission waiters can always make progress.
sim::Task<> Worker(TierWorld& w, int index, std::uint64_t seed) {
  sim::Rng rng(seed);
  for (int op = 0; op < 15; ++op) {
    co_await w.sim.Delay(sim::Millis(rng.UniformInt(0, 400)));
    const double dice = rng.NextDouble();
    if (dice < 0.40) {
      // Put: the engine's admit -> Put -> settle protocol.
      const Bytes dirty = MB(rng.UniformInt(256, 1536));
      Status admitted = co_await w.tier.AdmitHostBytes(dirty);
      if (admitted.ok()) {
        Snapshot s;
        s.owner = Name("model-" + std::to_string(index));
        s.dirty_bytes = dirty;
        Result<SnapshotId> id = w.store.Put(std::move(s));
        if (id.ok()) {
          w.tier.OnPut(*id);
          w.live.push_back(*id);
        } else {
          w.tier.CancelAdmission(dirty);
        }
      }
    } else if (dice < 0.70 && !w.live.empty()) {
      // Restore: EnsureRestorable must only report Ok for verified bytes.
      const SnapshotId id = w.live[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(w.live.size()) - 1))];
      Status restored = co_await w.tier.EnsureRestorable(id);
      if (restored.ok()) {
        ++w.restores_ok;
        SWAP_CHECK_MSG(w.store.Verify(id).ok(),
                       "restore reported Ok on an unverified snapshot");
        w.tier.Unpin(id);
      } else if (restored.code() == StatusCode::kDataLoss) {
        // Terminal: the engine would drop and cold-start here.
        ++w.restores_data_loss;
        if (std::find(w.live.begin(), w.live.end(), id) != w.live.end()) {
          DropSnapshot(w, id);
        }
      }
    } else if (dice < 0.85 && !w.live.empty()) {
      const SnapshotId id = w.live[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(w.live.size()) - 1))];
      w.tier.Prefetch(id, hw::TransferPriority::kBackground);
    } else if (!w.live.empty()) {
      const SnapshotId id = w.live[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(w.live.size()) - 1))];
      DropSnapshot(w, id);
    }
    w.CheckInvariants();
  }
  ++w.workers_done;
}

struct SeedStats {
  std::uint64_t demotions = 0;
  std::uint64_t promotions = 0;
  std::uint64_t direct_reads = 0;
  std::uint64_t restores_ok = 0;
  std::uint64_t restores_data_loss = 0;
};

SeedStats RunSeed(std::uint64_t seed) {
  sim::Rng setup(seed);
  const Bytes capacity = GB(setup.UniformInt(3, 8));
  TierWorld w(seed, capacity);
  if (seed % 3 == 0) {
    w.injector.Configure(ChaosPlan());
    w.tier.BindFaultInjector(&w.injector);
    w.store.BindFaultInjector(&w.injector);
  }
  constexpr int kWorkers = 4;
  for (int i = 0; i < kWorkers; ++i) {
    sim::Spawn([&w, i, seed]() -> sim::Task<> {
      co_await Worker(w, i, seed * 1000003u + static_cast<std::uint64_t>(i));
    });
  }
  sim::Spawn([&w]() -> sim::Task<> {
    // Drain: wait for the workers, drop the survivors, wait out in-flight
    // moves (a drop mid-move defers cleanup to the mover), then check that
    // every ledger returned to zero.
    int guard = 0;
    while (w.workers_done < kWorkers) {
      co_await w.sim.Delay(sim::Seconds(1));
      SWAP_CHECK_MSG(++guard < 600, "workers wedged");
    }
    while (!w.live.empty()) DropSnapshot(w, w.live.back());
    while (w.tier.moves_in_flight() > 0) {
      co_await w.sim.Delay(sim::Seconds(1));
      SWAP_CHECK_MSG(++guard < 600, "tier moves wedged");
    }
    SWAP_CHECK(w.store.peak_used() <= w.capacity);
    SWAP_CHECK(w.store.used() == Bytes(0));
    SWAP_CHECK(w.store.nvme_used() == Bytes(0));
    SWAP_CHECK(w.store.count() == 0u);
    SWAP_CHECK(w.tier.committed() == Bytes(0));
    SWAP_CHECK(w.tier.moves_in_flight() == 0);
    SWAP_CHECK(w.tier.pinned_count() == 0u);
  });
  w.sim.Run();
  EXPECT_EQ(w.workers_done, kWorkers) << "seed " << seed << " deadlocked";
  return SeedStats{w.tier.demotions(), w.tier.promotions(),
                   w.tier.direct_reads(), w.restores_ok,
                   w.restores_data_loss};
}

TEST(SnapshotTierPropertyTest, HundredSeedsHoldTierInvariants) {
  SeedStats total;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SeedStats s = RunSeed(seed);
    total.demotions += s.demotions;
    total.promotions += s.promotions;
    total.direct_reads += s.direct_reads;
    total.restores_ok += s.restores_ok;
    total.restores_data_loss += s.restores_data_loss;
  }
  // The sweep must actually exercise the tier machinery, not just idle
  // through it: evictions, NVMe round-trips, chaos fallbacks, and
  // checksum-caught corruption all have to show up somewhere in 100 seeds.
  EXPECT_GT(total.demotions, 50u);
  EXPECT_GT(total.promotions, 20u);
  EXPECT_GT(total.direct_reads, 0u);
  EXPECT_GT(total.restores_ok, 500u);
  EXPECT_GT(total.restores_data_loss, 0u);
}

}  // namespace
}  // namespace swapserve::ckpt
