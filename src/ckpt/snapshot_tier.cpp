#include "ckpt/snapshot_tier.h"

#include <algorithm>
#include <utility>

#include "util/log.h"

namespace swapserve::ckpt {

const SnapshotTierManager::Entry* SnapshotTierManager::Find(
    SnapshotId id) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), id,
      [](const Entry& e, SnapshotId want) { return e.id < want; });
  return it == entries_.end() || it->id != id ? nullptr : &*it;
}

SnapshotTierManager::Entry* SnapshotTierManager::Find(SnapshotId id) {
  return const_cast<Entry*>(std::as_const(*this).Find(id));
}

SnapshotTierManager::Entry& SnapshotTierManager::Register(SnapshotId id) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), id,
      [](const Entry& e, SnapshotId want) { return e.id < want; });
  if (it == entries_.end() || it->id != id) {
    it = entries_.insert(it, Entry{.id = id});
  }
  Touch(*it);
  return *it;
}

void SnapshotTierManager::StartMove(Entry& entry) {
  if (entry.move_done == nullptr) {
    entry.move_done = std::make_unique<sim::SimEvent>(sim_);
  }
  entry.move_done->Reset();
  ++moves_in_flight_;
}

void SnapshotTierManager::MaybeErase(SnapshotId id) {
  const Entry* e = Find(id);
  if (e != nullptr && e->dropped && !e->promoting && !e->demoting &&
      e->pins == 0) {
    entries_.erase(entries_.begin() + (e - entries_.data()));
  }
}

void SnapshotTierManager::FinishMove(SnapshotId id) {
  Entry* e = Find(id);
  SWAP_CHECK_MSG(e != nullptr, "move finish without entry");
  e->promoting = false;
  e->demoting = false;
  e->move_done->Set();
  --moves_in_flight_;
  state_changed_.Pulse();
}

SnapshotId SnapshotTierManager::PickVictim(const VictimFilter& may_evict) {
  const Entry* best = nullptr;
  for (const Entry& e : entries_) {
    if (e.promoting || e.demoting || e.dropped || e.pins > 0) continue;
    const Snapshot* snap = store_.Find(e.id);
    if (snap == nullptr || snap->tier != SnapshotTier::kHost) continue;
    if (may_evict && !may_evict(snap->owner)) continue;
    if (best == nullptr || e.lru_seq < best->lru_seq) best = &e;
  }
  return best == nullptr ? 0 : best->id;
}

sim::Task<Status> SnapshotTierManager::AdmitHostBytes(Bytes dirty,
                                                     VictimFilter may_evict) {
  SWAP_CHECK_MSG(dirty.count() >= 0, "negative admission");
  if (bounded()) {
    if (dirty > options_.host_capacity) {
      co_return ResourceExhausted(
          "snapshot tier: " + dirty.ToString() +
          " cannot fit a host cache of " + options_.host_capacity.ToString());
    }
    while (store_.used() + committed_ + dirty > options_.host_capacity) {
      const SnapshotId victim = PickVictim(may_evict);
      if (victim != 0) {
        // A victim dropped mid-demotion frees its host bytes all the same.
        co_await Demote(victim);
        continue;
      }
      if (moves_in_flight_ > 0 || pinned_count() > 0) {
        // Everything demotable is pinned or mid-move; block until some
        // placement state changes, then re-evaluate.
        co_await state_changed_.Wait();
        state_changed_.Reset();
        continue;
      }
      co_return ResourceExhausted(
          "snapshot tier: host cache full and no demotable victim for " +
          dirty.ToString());
    }
  }
  committed_ += dirty;
  co_return Status::Ok();
}

void SnapshotTierManager::CancelAdmission(Bytes dirty) {
  SWAP_CHECK_MSG(dirty <= committed_, "admission cancel out of balance");
  committed_ -= dirty;
  state_changed_.Pulse();
}

void SnapshotTierManager::OnPut(SnapshotId id) {
  const Snapshot* snap = store_.Find(id);
  SWAP_CHECK_MSG(snap != nullptr, "OnPut for unknown snapshot");
  Register(id);
  CancelAdmission(snap->dirty_bytes);  // the admission landed as real usage
}

void SnapshotTierManager::OnDrop(SnapshotId id) {
  Entry* e = Find(id);
  if (e == nullptr) return;
  if (e->promoting || e->demoting) {
    // The mover holds transfer-side resources (a promotion's admission);
    // let it observe `dropped` and clean up.
    e->dropped = true;
    state_changed_.Pulse();
    return;
  }
  entries_.erase(entries_.begin() + (e - entries_.data()));
  state_changed_.Pulse();
}

void SnapshotTierManager::Unpin(SnapshotId id) {
  Entry* e = Find(id);
  if (e == nullptr) return;
  if (e->pins > 0) --e->pins;
  MaybeErase(id);
  state_changed_.Pulse();
}

sim::Task<> SnapshotTierManager::Demote(SnapshotId id) {
  Entry* entry = Find(id);
  SWAP_CHECK_MSG(entry != nullptr && !entry->promoting && !entry->demoting &&
                     entry->pins == 0,
                 "demotion of a busy or pinned snapshot");
  const Snapshot* snap = store_.Find(id);
  SWAP_CHECK_MSG(snap != nullptr && snap->tier == SnapshotTier::kHost,
                 "demotion of a missing or nvme-resident snapshot");
  const Bytes bytes = snap->dirty_bytes;
  entry->demoting = true;
  StartMove(*entry);
  {
    obs::Span span = obs::StartSpan(obs_, "tier.demote", "tier", "tier");
    span.AddArg("snapshot", id);
    span.AddArg("owner", snap->owner.str());
    span.AddArg("bytes", bytes.count());
    co_await nvme_.WriteFile(bytes, hw::TransferPriority::kBackground);
  }
  entry = Find(id);
  SWAP_CHECK_MSG(entry != nullptr, "tier entry vanished mid-demotion");
  if (entry->dropped) {
    // The snapshot was consumed while spilling; the host copy is gone and
    // the NVMe copy is orphaned.
    FinishMove(id);
    MaybeErase(id);
    co_return;
  }
  SWAP_CHECK(store_.MarkDemoted(id).ok());
  ++demotions_;
  obs::IncCounter(obs_, counters_.demotions, "swapserve_tier_demotions_total");
  FinishMove(id);
}

sim::Task<Status> SnapshotTierManager::Promote(SnapshotId id,
                                              hw::TransferPriority priority,
                                              VictimFilter may_evict) {
  Entry* entry = Find(id);
  if (entry == nullptr || entry->dropped) {
    co_return NotFound("snapshot " + std::to_string(id));
  }
  if (entry->promoting || entry->demoting) {
    co_return FailedPrecondition("snapshot " + std::to_string(id) +
                                 " is mid-move");
  }
  const Snapshot* snap = store_.Find(id);
  if (snap == nullptr) co_return NotFound("snapshot " + std::to_string(id));
  if (snap->tier == SnapshotTier::kHost) co_return Status::Ok();
  const Bytes bytes = snap->dirty_bytes;
  const Name owner = snap->owner;
  // Flags go up before the first suspension so a racing Prefetch or
  // EnsureRestorable in a later event sees the move and waits on it.
  entry->promoting = true;
  StartMove(*entry);
  obs::Span span = obs::StartSpan(obs_, "tier.promote", "tier", "tier");
  span.AddArg("snapshot", id);
  span.AddArg("owner", owner.str());
  span.AddArg("bytes", bytes.count());
  span.AddArg("priority", static_cast<int>(priority));

  auto fail = [&](Status status) {
    ++promotion_failures_;
    obs::IncCounter(obs_, counters_.promotion_failures,
                    "swapserve_tier_promotion_failures_total");
    if (span.active()) span.AddArg("status", status.ToString());
    FinishMove(id);
    MaybeErase(id);
    return status;
  };

  {
    fault::FaultDecision f =
        fault::Evaluate(fault_, "storage.promote", owner);
    if (f.stall.ns() > 0) co_await sim_.Delay(f.stall);
    if (!f.status.ok()) {
      if (f.status.code() == StatusCode::kDataLoss) {
        // Silent corruption during the NVMe->host copy: the bytes still
        // move, the damage only surfaces at checksum verification —
        // modelling bit rot the storage firmware did not catch.
        SWAP_WARN_IF_ERROR(store_.Corrupt(id), "tier");
      } else {
        co_return fail(f.status);
      }
    }
  }
  {
    Status admitted = co_await AdmitHostBytes(bytes, std::move(may_evict));
    if (!admitted.ok()) co_return fail(admitted);
  }
  {
    fault::FaultDecision f = fault::Evaluate(fault_, "storage.read", owner);
    if (f.stall.ns() > 0) co_await sim_.Delay(f.stall);
    if (!f.status.ok()) {
      CancelAdmission(bytes);
      co_return fail(f.status);
    }
  }
  co_await nvme_.ReadFile(bytes, priority);
  entry = Find(id);
  SWAP_CHECK_MSG(entry != nullptr, "tier entry vanished mid-promotion");
  CancelAdmission(bytes);
  if (entry->dropped) {
    // Consumed mid-promotion: the store entry is gone with its NVMe copy.
    FinishMove(id);
    MaybeErase(id);
    co_return Aborted("snapshot " + std::to_string(id) +
                      " dropped mid-promotion");
  }
  Status landed = store_.MarkPromoted(id);
  if (!landed.ok()) co_return fail(landed);
  Touch(*entry);
  ++promotions_;
  obs::IncCounter(obs_, counters_.promotions,
                  "swapserve_tier_promotions_total");
  FinishMove(id);
  co_return Status::Ok();
}

sim::Task<Status> SnapshotTierManager::EnsureRestorable(SnapshotId id) {
  Entry* entry = Find(id);
  if (entry == nullptr) {
    // Snapshots Put straight into the store, not through OnPut
    // (direct-store tests), are adopted.
    if (store_.Find(id) == nullptr) {
      co_return NotFound("snapshot " + std::to_string(id));
    }
    entry = &Register(id);
  }
  ++entry->pins;
  auto unpin_and = [&](Status status) {
    Unpin(id);
    return status;
  };
  for (;;) {
    entry = Find(id);
    if (entry == nullptr || entry->dropped) {
      co_return unpin_and(
          NotFound("snapshot " + std::to_string(id) + " was dropped"));
    }
    if (entry->promoting || entry->demoting) {
      // The event is heap-held: it stays put if the array shifts while
      // this frame waits, and our pin keeps the entry from being erased.
      co_await entry->move_done->Wait();
      continue;
    }
    const Snapshot* found = store_.Find(id);
    if (found == nullptr) {
      co_return unpin_and(NotFound("snapshot " + std::to_string(id)));
    }
    if (found->tier == SnapshotTier::kHost) {
      Touch(*entry);
      ++host_hits_;
      obs::IncCounter(obs_, counters_.host_hits,
                      "swapserve_tier_host_hits_total");
      if (entry->prefetched) {
        entry->prefetched = false;
        ++prefetch_hits_;
        obs::IncCounter(obs_, counters_.prefetch_hits,
                        "swapserve_tier_prefetch_hits_total");
      }
      Status verified = store_.Verify(id);
      if (!verified.ok()) co_return unpin_and(verified);
      co_return Status::Ok();  // pinned until the caller Unpins
    }
    // Demoted and idle: promote at restore priority. The pin we hold only
    // protects against demotion, not promotion, so the move is safe. The
    // direct-read fallback below reads the snapshot after awaits: copy it.
    const Snapshot snap = *found;
    ++nvme_misses_;
    obs::IncCounter(obs_, counters_.nvme_misses,
                    "swapserve_tier_nvme_misses_total");
    Status promoted =
        co_await Promote(id, hw::TransferPriority::kUrgent, {});
    if (promoted.ok()) continue;  // verified via the host path above
    if (promoted.code() == StatusCode::kNotFound ||
        promoted.code() == StatusCode::kAborted) {
      co_return unpin_and(
          NotFound("snapshot " + std::to_string(id) + " was dropped"));
    }
    // Promotion failed (injected fault, or the cache cannot take the
    // payload): stream the restore straight from NVMe. Slower — the read
    // sits on the swap-in critical path — but the snapshot stays demoted
    // and no cache space is needed.
    SWAP_LOG(kWarning, "tier")
        << "promotion of snapshot " << id << " failed (" << promoted
        << "); direct NVMe read for restore";
    {
      fault::FaultDecision f =
          fault::Evaluate(fault_, "storage.read", snap.owner);
      if (f.stall.ns() > 0) co_await sim_.Delay(f.stall);
      if (!f.status.ok()) co_return unpin_and(f.status);
    }
    {
      obs::Span span =
          obs::StartSpan(obs_, "tier.direct_read", "tier", "tier");
      span.AddArg("snapshot", id);
      span.AddArg("bytes", snap.dirty_bytes.count());
      co_await nvme_.ReadFile(snap.dirty_bytes,
                              hw::TransferPriority::kUrgent);
    }
    ++direct_reads_;
    obs::IncCounter(obs_, counters_.direct_reads,
                    "swapserve_tier_direct_reads_total");
    entry = Find(id);
    if (entry == nullptr || entry->dropped) {
      co_return unpin_and(
          NotFound("snapshot " + std::to_string(id) + " was dropped"));
    }
    Status verified = store_.Verify(id);
    if (!verified.ok()) co_return unpin_and(verified);
    co_return Status::Ok();  // pinned; payload staged from NVMe
  }
}

void SnapshotTierManager::Prefetch(SnapshotId id,
                                   hw::TransferPriority priority,
                                   VictimFilter may_evict) {
  if (!CanPrefetch(id)) return;
  ++prefetch_issued_;
  Find(id)->prefetched = true;
  obs::IncCounter(obs_, counters_.prefetches,
                  "swapserve_tier_prefetches_total");
  // Promote() raises the promoting flag before its first suspension, so a
  // second Prefetch or a racing EnsureRestorable waits on the move instead
  // of double-starting it.
  sim::Spawn([this, id, priority,
              filter = std::move(may_evict)]() -> sim::Task<> {
    Status s = co_await Promote(id, priority, filter);
    if (!s.ok()) {
      SWAP_LOG(kDebug, "tier")
          << "prefetch promotion of snapshot " << id << " aborted: " << s;
    }
  });
}

bool SnapshotTierManager::CanPrefetch(SnapshotId id) const {
  if (!bounded()) return false;  // unbounded caches never demote
  const Entry* entry = Find(id);
  if (entry == nullptr || entry->dropped || entry->promoting ||
      entry->demoting) {
    return false;
  }
  const Snapshot* snap = store_.Find(id);
  return snap != nullptr && snap->tier == SnapshotTier::kNvme;
}

bool SnapshotTierManager::HostResident(SnapshotId id) const {
  const Snapshot* snap = store_.Find(id);
  return snap != nullptr && snap->tier == SnapshotTier::kHost;
}

bool SnapshotTierManager::Promoting(SnapshotId id) const {
  const Entry* e = Find(id);
  return e != nullptr && e->promoting;
}

bool SnapshotTierManager::Demoting(SnapshotId id) const {
  const Entry* e = Find(id);
  return e != nullptr && e->demoting;
}

std::size_t SnapshotTierManager::pinned_count() const {
  std::size_t n = 0;
  for (const Entry& e : entries_) {
    if (e.pins > 0) ++n;
  }
  return n;
}

sim::SimDuration SnapshotTierManager::EstimatedPromotionTime(
    SnapshotId id) const {
  const Snapshot* snap = store_.Find(id);
  if (snap == nullptr || snap->tier == SnapshotTier::kHost) {
    return sim::SimDuration(0);
  }
  return nvme_.EstimatedReadTime(snap->dirty_bytes);
}

}  // namespace swapserve::ckpt
