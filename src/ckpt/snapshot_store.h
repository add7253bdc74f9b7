// Host-RAM snapshot storage.
//
// SwapServeLLM keeps checkpoints "in-memory" (§3.2): only dirty device pages
// occupy host RAM; reserved-but-cleared pages (vLLM's slept KV arena) are
// recorded as metadata and recreated on restore. The store enforces the
// host RAM budget — snapshot pressure is a real constraint on how many
// models one server can keep hot-swappable.

#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_injector.h"
#include "model/calibration.h"
#include "obs/observability.h"
#include "util/name.h"
#include "util/status.h"
#include "util/units.h"

namespace swapserve::ckpt {

using SnapshotId = std::uint64_t;

// Which storage tier holds a snapshot's dirty payload. Snapshots are born
// host-resident (the D2H drain lands in host RAM); a bounded host cache
// demotes cold ones to NVMe and promotes them back before restore. kRemote
// marks a cluster placeholder: the metadata lives here but the payload
// resides on another node and must be fetched over the fabric before the
// snapshot is restorable.
enum class SnapshotTier { kHost, kNvme, kRemote };

struct Snapshot {
  SnapshotId id = 0;
  Name owner;               // backend name
  Bytes clean_bytes{0};     // reserved GPU memory with no host copy
  Bytes dirty_bytes{0};     // bytes staged in host RAM
  double created_at_s = 0;  // virtual time of creation
  int tp_degree = 1;        // device-group size the state shards across
  // Tier holding the dirty payload. Not part of the checksum: moving a
  // snapshot between tiers does not alter its contents.
  SnapshotTier tier = SnapshotTier::kHost;
  // Per-engine restore characteristics captured at checkpoint time.
  model::RestoreModel restore;
  // Integrity checksum over the snapshot metadata, computed at Put time.
  // A mismatch on Verify means the host copy is unusable (kDataLoss) and
  // the backend must fall back to a cold start.
  std::uint64_t checksum = 0;
};

// Content checksum a snapshot should carry; recomputed by Verify.
std::uint64_t SnapshotChecksum(const Snapshot& snapshot);

class SnapshotStore {
 public:
  explicit SnapshotStore(Bytes host_budget) : budget_(host_budget) {}

  // Fails with RESOURCE_EXHAUSTED when dirty bytes exceed remaining budget.
  // Stamps the snapshot's checksum (a "snapshot.corrupt" fault rule flips
  // it, modelling silent host-RAM corruption detected only on restore).
  // A snapshot handed in with tier == kRemote is a cluster placeholder:
  // only metadata is stored, no host RAM is charged, and no corruption
  // fault is drawn (there is no local payload to rot).
  [[nodiscard]] Result<SnapshotId> Put(Snapshot snapshot);
  // Reads borrow: the stored snapshot, or null when there is none. The
  // pointer is valid until the next Put or Drop (the snapshots sit in one
  // array, which those two shift or grow; a tier transition only edits an
  // element in place), so a caller that keeps a snapshot across a co_await
  // copies it first.
  [[nodiscard]] const Snapshot* Find(SnapshotId id) const;
  [[nodiscard]] Status Drop(SnapshotId id);
  // DATA_LOSS when the stored checksum no longer matches the content.
  [[nodiscard]] Status Verify(SnapshotId id) const;
  // Deliberately corrupt a stored snapshot (chaos/test hook).
  [[nodiscard]] Status Corrupt(SnapshotId id);
  // Latest snapshot for a backend, or null (borrowed, like Find).
  [[nodiscard]] const Snapshot* FindByOwner(Name owner) const;

  // Tier accounting transitions (the SnapshotTierManager drives these after
  // the corresponding NVMe transfer completes; the store only moves the
  // bytes between ledgers). MarkDemoted frees host RAM, MarkPromoted
  // re-charges it — failing with RESOURCE_EXHAUSTED if the budget cannot
  // take the payload back.
  [[nodiscard]] Status MarkDemoted(SnapshotId id);
  [[nodiscard]] Status MarkPromoted(SnapshotId id);
  // A remote placeholder whose payload just landed over the fabric becomes
  // host-resident; charges the host budget like MarkPromoted.
  [[nodiscard]] Status MarkFetched(SnapshotId id);
  // The inverse of MarkFetched: a host-resident payload whose RAM vanished
  // (the owning node crashed) degrades back to a metadata-only placeholder
  // that a later fetch can re-materialize. Frees the host budget; NVMe
  // copies survive a crash and are not Lost.
  [[nodiscard]] Status MarkLost(SnapshotId id);

  Bytes used() const { return used_; }
  Bytes budget() const { return budget_; }
  Bytes free() const { return budget_ - used_; }
  // Dirty bytes currently demoted to the NVMe tier.
  Bytes nvme_used() const { return nvme_used_; }
  // Dirty bytes of remote placeholders (payload lives on another node).
  Bytes remote_bytes() const { return remote_bytes_; }
  // High-water mark of host-resident bytes (tier-cache invariant checks).
  Bytes peak_used() const { return peak_used_; }
  std::size_t count() const { return snapshots_.size(); }
  // Every stored snapshot in id order (borrowed, like Find).
  std::span<const Snapshot> All() const { return snapshots_; }

  // Publish host-RAM occupancy gauges on every Put/Drop (nullable).
  void BindObservability(obs::Observability* obs);
  // Nullable; evaluated at the "snapshot.corrupt" point on every Put.
  void BindFaultInjector(fault::FaultInjector* injector);
  // Called when a payload leaves the store: a host or NVMe snapshot is
  // dropped, or a host payload is lost to kRemote.
  void SetDropHandler(std::function<void()> h) { on_drop_ = std::move(h); }

 private:
  void PublishGauges();
  Snapshot* Lookup(SnapshotId id);

  obs::Observability* obs_ = nullptr;
  // The occupancy gauges, resolved on the first publish.
  struct Gauges {
    obs::Gauge* bytes = nullptr;
    obs::Gauge* budget = nullptr;
    obs::Gauge* count = nullptr;
    obs::Gauge* nvme = nullptr;
    obs::Gauge* remote = nullptr;
  } gauges_;
  fault::FaultInjector* fault_ = nullptr;
  std::function<void()> on_drop_;
  Bytes budget_;
  Bytes used_{0};
  Bytes nvme_used_{0};
  Bytes remote_bytes_{0};
  Bytes peak_used_{0};
  SnapshotId next_id_ = 1;
  // Sorted by id. Ids only grow, so Put appends; a store holds at most a
  // few dozen snapshots (one per swapped-out backend, plus placeholders).
  std::vector<Snapshot> snapshots_;
};

}  // namespace swapserve::ckpt
