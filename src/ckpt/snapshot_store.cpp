#include "ckpt/snapshot_store.h"

#include <algorithm>
#include <utility>

namespace swapserve::ckpt {

std::string_view SnapshotTierName(SnapshotTier tier) {
  switch (tier) {
    case SnapshotTier::kHost: return "host";
    case SnapshotTier::kNvme: return "nvme";
    case SnapshotTier::kRemote: return "remote";
  }
  return "?";
}

std::uint64_t SnapshotChecksum(const Snapshot& snapshot) {
  std::uint64_t h = fault::StableHash(snapshot.owner);
  h = fault::StableHashCombine(
      h, static_cast<std::uint64_t>(snapshot.clean_bytes.count()));
  h = fault::StableHashCombine(
      h, static_cast<std::uint64_t>(snapshot.dirty_bytes.count()));
  h = fault::StableHashCombine(
      h, static_cast<std::uint64_t>(snapshot.created_at_s * 1e9));
  h = fault::StableHashCombine(h,
                               static_cast<std::uint64_t>(snapshot.tp_degree));
  return h;
}

Result<SnapshotId> SnapshotStore::Put(Snapshot snapshot) {
  if (snapshot.dirty_bytes.count() < 0 || snapshot.clean_bytes.count() < 0) {
    return InvalidArgument("negative snapshot size");
  }
  const bool placeholder = snapshot.tier == SnapshotTier::kRemote;
  if (!placeholder) {
    if (used_ + snapshot.dirty_bytes > budget_) {
      return ResourceExhausted(
          "snapshot store: " + snapshot.owner.str() + " needs " +
          snapshot.dirty_bytes.ToString() + " host RAM, " +
          free().ToString() + " free");
    }
    snapshot.tier = SnapshotTier::kHost;
  }
  snapshot.id = next_id_++;
  snapshot.checksum = SnapshotChecksum(snapshot);
  if (placeholder) {
    remote_bytes_ += snapshot.dirty_bytes;
  } else {
    used_ += snapshot.dirty_bytes;
    peak_used_ = std::max(peak_used_, used_);
  }
  const SnapshotId id = snapshot.id;
  const Name owner = snapshot.owner;
  snapshots_.push_back(std::move(snapshot));
  PublishGauges();
  // Silent corruption at write time: the Put succeeds, the damage only
  // surfaces when a restore verifies the checksum. Remote placeholders
  // carry no local payload, so the draw happens at fetch time instead.
  if (!placeholder &&
      fault::Evaluate(fault_, "snapshot.corrupt", owner).fired()) {
    SWAP_WARN_IF_ERROR(Corrupt(id), "snapshot_store");
  }
  return id;
}

const Snapshot* SnapshotStore::Find(SnapshotId id) const {
  auto it = std::lower_bound(
      snapshots_.begin(), snapshots_.end(), id,
      [](const Snapshot& s, SnapshotId want) { return s.id < want; });
  return it == snapshots_.end() || it->id != id ? nullptr : &*it;
}

Snapshot* SnapshotStore::Lookup(SnapshotId id) {
  return const_cast<Snapshot*>(std::as_const(*this).Find(id));
}

Status SnapshotStore::Drop(SnapshotId id) {
  Snapshot* snap = Lookup(id);
  if (snap == nullptr) {
    return NotFound("snapshot " + std::to_string(id));
  }
  const SnapshotTier tier = snap->tier;
  switch (tier) {
    case SnapshotTier::kNvme: nvme_used_ -= snap->dirty_bytes; break;
    case SnapshotTier::kRemote: remote_bytes_ -= snap->dirty_bytes; break;
    case SnapshotTier::kHost: used_ -= snap->dirty_bytes; break;
  }
  snapshots_.erase(snapshots_.begin() + (snap - snapshots_.data()));
  PublishGauges();
  if (tier != SnapshotTier::kRemote && on_drop_) on_drop_();
  return Status::Ok();
}

Status SnapshotStore::MarkDemoted(SnapshotId id) {
  Snapshot* snap = Lookup(id);
  if (snap == nullptr) {
    return NotFound("snapshot " + std::to_string(id));
  }
  if (snap->tier != SnapshotTier::kHost) {
    return FailedPrecondition("snapshot " + std::to_string(id) +
                              " is not host-resident");
  }
  snap->tier = SnapshotTier::kNvme;
  used_ -= snap->dirty_bytes;
  nvme_used_ += snap->dirty_bytes;
  PublishGauges();
  return Status::Ok();
}

Status SnapshotStore::MarkPromoted(SnapshotId id) {
  Snapshot* snap = Lookup(id);
  if (snap == nullptr) {
    return NotFound("snapshot " + std::to_string(id));
  }
  if (snap->tier != SnapshotTier::kNvme) {
    return FailedPrecondition("snapshot " + std::to_string(id) +
                              " is not nvme-resident");
  }
  if (used_ + snap->dirty_bytes > budget_) {
    return ResourceExhausted("snapshot store: promotion of " +
                             std::to_string(id) + " needs " +
                             snap->dirty_bytes.ToString() + ", " +
                             free().ToString() + " free");
  }
  snap->tier = SnapshotTier::kHost;
  nvme_used_ -= snap->dirty_bytes;
  used_ += snap->dirty_bytes;
  peak_used_ = std::max(peak_used_, used_);
  PublishGauges();
  return Status::Ok();
}

Status SnapshotStore::MarkFetched(SnapshotId id) {
  Snapshot* snap = Lookup(id);
  if (snap == nullptr) {
    return NotFound("snapshot " + std::to_string(id));
  }
  if (snap->tier != SnapshotTier::kRemote) {
    return FailedPrecondition("snapshot " + std::to_string(id) +
                              " is not a remote placeholder");
  }
  if (used_ + snap->dirty_bytes > budget_) {
    return ResourceExhausted("snapshot store: fetch of " +
                             std::to_string(id) + " needs " +
                             snap->dirty_bytes.ToString() + ", " +
                             free().ToString() + " free");
  }
  snap->tier = SnapshotTier::kHost;
  remote_bytes_ -= snap->dirty_bytes;
  used_ += snap->dirty_bytes;
  peak_used_ = std::max(peak_used_, used_);
  PublishGauges();
  return Status::Ok();
}

Status SnapshotStore::MarkLost(SnapshotId id) {
  Snapshot* snap = Lookup(id);
  if (snap == nullptr) {
    return NotFound("snapshot " + std::to_string(id));
  }
  if (snap->tier != SnapshotTier::kHost) {
    return FailedPrecondition("snapshot " + std::to_string(id) +
                              " is not host-resident");
  }
  snap->tier = SnapshotTier::kRemote;
  used_ -= snap->dirty_bytes;
  remote_bytes_ += snap->dirty_bytes;
  PublishGauges();
  if (on_drop_) on_drop_();
  return Status::Ok();
}

Status SnapshotStore::Verify(SnapshotId id) const {
  const Snapshot* snap = Find(id);
  if (snap == nullptr) {
    return NotFound("snapshot " + std::to_string(id));
  }
  if (snap->checksum != SnapshotChecksum(*snap)) {
    return DataLoss("snapshot " + std::to_string(id) + " (" +
                    snap->owner.str() + "): checksum mismatch");
  }
  return Status::Ok();
}

Status SnapshotStore::Corrupt(SnapshotId id) {
  Snapshot* snap = Lookup(id);
  if (snap == nullptr) {
    return NotFound("snapshot " + std::to_string(id));
  }
  snap->checksum ^= 0xbadc0ffee0ddf00dULL;
  return Status::Ok();
}

const Snapshot* SnapshotStore::FindByOwner(Name owner) const {
  // The array is id-ordered, so the latest is the last match.
  for (auto it = snapshots_.rbegin(); it != snapshots_.rend(); ++it) {
    if (it->owner == owner) return &*it;
  }
  return nullptr;
}

void SnapshotStore::BindObservability(obs::Observability* obs) {
  obs_ = obs;
  gauges_ = {};
  PublishGauges();
}

void SnapshotStore::BindFaultInjector(fault::FaultInjector* injector) {
  fault_ = injector;
}

void SnapshotStore::PublishGauges() {
  if (obs_ == nullptr) return;
  obs::SetGauge(obs_, gauges_.bytes, "swapserve_snapshot_store_bytes", {},
                static_cast<double>(used_.count()));
  obs::SetGauge(obs_, gauges_.budget, "swapserve_snapshot_store_budget_bytes",
                {}, static_cast<double>(budget_.count()));
  obs::SetGauge(obs_, gauges_.count, "swapserve_snapshot_store_count", {},
                static_cast<double>(snapshots_.size()));
  obs::SetGauge(obs_, gauges_.nvme, "swapserve_snapshot_store_nvme_bytes", {},
                static_cast<double>(nvme_used_.count()));
  obs::SetGauge(obs_, gauges_.remote, "swapserve_snapshot_store_remote_bytes",
                {}, static_cast<double>(remote_bytes_.count()));
}

}  // namespace swapserve::ckpt
