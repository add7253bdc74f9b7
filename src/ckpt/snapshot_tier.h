// Tiered snapshot placement: a bounded host-RAM cache in front of a
// simulated NVMe tier (ServerlessLLM-style checkpoint hierarchy).
//
// The SnapshotStore keeps the per-snapshot tier ledger; this manager owns
// the asynchronous machinery around it: LRU+pin victim selection, the
// promotion/demotion state machine (per-snapshot, never both directions at
// once), host-cache admission for incoming swap-outs, and best-effort
// prefetch promotion driven by the scheduler's demand signal. Every
// restore path funnels through EnsureRestorable(), which guarantees the
// payload is host-reachable (promoted, or streamed directly from NVMe)
// and checksum-verified before the H2D copy starts.
//
// Capacity invariant: host-resident bytes plus committed-but-unlanded
// bytes (in-flight promotions, admitted swap-outs) never exceed the host
// capacity; demotions free host bytes only after the NVMe write completes,
// so occupancy is honest at every simulation event.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "ckpt/snapshot_store.h"
#include "fault/fault_injector.h"
#include "hw/link.h"
#include "obs/observability.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "util/status.h"
#include "util/units.h"

namespace swapserve::ckpt {

class SnapshotTierManager {
 public:
  struct Options {
    // Host-RAM snapshot cache bound; 0 = unbounded (admission never waits
    // and nothing ever demotes).
    Bytes host_capacity{0};
  };

  // Returns true when a host-resident snapshot owned by `owner` may be
  // demoted to make room. An empty filter admits any unpinned victim.
  using VictimFilter = std::function<bool(const std::string& owner)>;

  SnapshotTierManager(sim::Simulation& sim, SnapshotStore& store,
                      hw::StorageDevice& nvme, Options options)
      : sim_(sim),
        store_(store),
        nvme_(nvme),
        options_(options),
        state_changed_(sim) {}
  SnapshotTierManager(const SnapshotTierManager&) = delete;
  SnapshotTierManager& operator=(const SnapshotTierManager&) = delete;

  // --- checkpoint-engine integration -------------------------------------
  // Make room for `dirty` incoming host bytes (an imminent Put or an
  // in-flight promotion), demoting LRU victims until they fit, and commit
  // the bytes against the capacity ledger. The commitment is settled by
  // OnPut()/promotion completion or returned via CancelAdmission().
  sim::Task<Status> AdmitHostBytes(Bytes dirty, VictimFilter may_evict = {});
  void CancelAdmission(Bytes dirty);
  // Register a freshly Put snapshot (host-resident) and settle its
  // admission.
  void OnPut(SnapshotId id);
  // Called immediately before SnapshotStore::Drop: retires the placement
  // entry (deferred if a move is in flight).
  void OnDrop(SnapshotId id);

  // Resolve when the snapshot's payload has been read into host staging
  // buffers and checksum-verified: host hit, NVMe promotion, or — when
  // promotion fails or the cache cannot take the payload — a direct NVMe
  // read that leaves the snapshot demoted. On Ok the snapshot is pinned
  // (not demotable) until the caller releases it with Unpin — including on
  // the consume path, where Unpin must precede the drop so a mover that
  // OnDrop deferred to can retire the entry. Error returns leave it
  // unpinned. DATA_LOSS is terminal (caller drops and cold-starts); other
  // codes are retryable.
  sim::Task<Status> EnsureRestorable(SnapshotId id);
  void Unpin(SnapshotId id);

  // --- prefetch ----------------------------------------------------------
  // Best-effort background promotion; returns without suspending (the
  // copy runs as a detached task). No-op when the snapshot is missing,
  // already host-resident, or mid-move.
  void Prefetch(SnapshotId id, hw::TransferPriority priority,
                VictimFilter may_evict = {});

  // --- queries -----------------------------------------------------------
  bool bounded() const { return options_.host_capacity.count() > 0; }
  Bytes host_capacity() const { return options_.host_capacity; }
  // Host bytes committed to in-flight promotions / admitted swap-outs.
  Bytes committed() const { return committed_; }
  bool HostResident(SnapshotId id) const;
  bool Promoting(SnapshotId id) const;
  bool Demoting(SnapshotId id) const;
  int moves_in_flight() const { return moves_in_flight_; }
  std::size_t pinned_count() const;
  // Queue-aware promotion-cost estimate: 0 for host-resident snapshots,
  // the NVMe read estimate for demoted ones (the tier term a swap-in
  // latency estimate must include).
  sim::SimDuration EstimatedPromotionTime(SnapshotId id) const;

  // --- counters ----------------------------------------------------------
  std::uint64_t promotions() const { return promotions_; }
  std::uint64_t demotions() const { return demotions_; }
  std::uint64_t host_hits() const { return host_hits_; }
  std::uint64_t nvme_misses() const { return nvme_misses_; }
  std::uint64_t direct_reads() const { return direct_reads_; }
  std::uint64_t promotion_failures() const { return promotion_failures_; }
  std::uint64_t prefetch_issued() const { return prefetch_issued_; }
  std::uint64_t prefetch_hits() const { return prefetch_hits_; }

  // Emit tier.promote/tier.demote spans and hit/miss counters (nullable).
  void BindObservability(obs::Observability* obs) {
    obs_ = obs;
    counters_ = {};
  }
  // Nullable. Fault points: "storage.promote" (at promotion start; a
  // DATA_LOSS-coded rule corrupts the promoted copy so the damage surfaces
  // at checksum verification, any other code aborts the promotion and the
  // restore falls back to a direct NVMe read), "storage.read" (before any
  // NVMe payload read — promotion or direct; retryable).
  void BindFaultInjector(fault::FaultInjector* injector) {
    fault_ = injector;
  }

 private:
  struct Entry {
    bool promoting = false;
    bool demoting = false;
    bool dropped = false;  // OnDrop arrived mid-move; mover cleans up
    bool prefetched = false;
    int pins = 0;
    std::uint64_t lru_seq = 0;
    // Set whenever no move is in flight for this snapshot.
    std::unique_ptr<sim::SimEvent> move_done;
  };

  using EntryMap = std::map<SnapshotId, Entry>;

  EntryMap::iterator Register(SnapshotId id);
  void Touch(Entry& entry) { entry.lru_seq = next_lru_seq_++; }
  // Retire an entry whose snapshot was dropped, once idle and unpinned.
  void MaybeErase(EntryMap::iterator it);
  void FinishMove(SnapshotId id);
  // Least-recently-used demotable host-resident snapshot, or entries_.end().
  EntryMap::iterator PickVictim(const VictimFilter& may_evict);

  // NVMe->host copy. Assumes the caller saw the snapshot idle on NVMe in
  // the current event; flags are set before the first suspension.
  sim::Task<Status> Promote(SnapshotId id, hw::TransferPriority priority,
                            VictimFilter may_evict);
  // Host->NVMe spill of an idle, unpinned, host-resident snapshot.
  sim::Task<> Demote(SnapshotId id);

  obs::Observability* obs_ = nullptr;
  // The swapserve_tier_* counters, each resolved on its first write.
  struct Counters {
    obs::Counter* demotions = nullptr;
    obs::Counter* promotions = nullptr;
    obs::Counter* promotion_failures = nullptr;
    obs::Counter* host_hits = nullptr;
    obs::Counter* prefetch_hits = nullptr;
    obs::Counter* nvme_misses = nullptr;
    obs::Counter* direct_reads = nullptr;
    obs::Counter* prefetches = nullptr;
  } counters_;
  fault::FaultInjector* fault_ = nullptr;
  sim::Simulation& sim_;
  SnapshotStore& store_;
  hw::StorageDevice& nvme_;
  Options options_;
  // Pulsed whenever placement state changes in a way that can unblock an
  // admission waiter: a move finishes, a drop lands, a pin releases.
  sim::SimEvent state_changed_;
  EntryMap entries_;
  Bytes committed_{0};
  std::uint64_t next_lru_seq_ = 1;
  int moves_in_flight_ = 0;
  std::uint64_t promotions_ = 0;
  std::uint64_t demotions_ = 0;
  std::uint64_t host_hits_ = 0;
  std::uint64_t nvme_misses_ = 0;
  std::uint64_t direct_reads_ = 0;
  std::uint64_t promotion_failures_ = 0;
  std::uint64_t prefetch_issued_ = 0;
  std::uint64_t prefetch_hits_ = 0;
};

}  // namespace swapserve::ckpt
