#include "ckpt/snapshot_store.h"

#include <algorithm>

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
          "snapshot store: " + snapshot.owner + " needs " +
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
  const std::string owner = snapshot.owner;
  snapshots_.emplace(id, std::move(snapshot));
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
  auto it = snapshots_.find(id);
  return it == snapshots_.end() ? nullptr : &it->second;
}

Status SnapshotStore::Drop(SnapshotId id) {
  auto it = snapshots_.find(id);
  if (it == snapshots_.end()) {
    return NotFound("snapshot " + std::to_string(id));
  }
  const SnapshotTier tier = it->second.tier;
  switch (tier) {
    case SnapshotTier::kNvme: nvme_used_ -= it->second.dirty_bytes; break;
    case SnapshotTier::kRemote: remote_bytes_ -= it->second.dirty_bytes; break;
    case SnapshotTier::kHost: used_ -= it->second.dirty_bytes; break;
  }
  snapshots_.erase(it);
  PublishGauges();
  if (tier != SnapshotTier::kRemote && on_drop_) on_drop_();
  return Status::Ok();
}

Status SnapshotStore::MarkDemoted(SnapshotId id) {
  auto it = snapshots_.find(id);
  if (it == snapshots_.end()) {
    return NotFound("snapshot " + std::to_string(id));
  }
  if (it->second.tier != SnapshotTier::kHost) {
    return FailedPrecondition("snapshot " + std::to_string(id) +
                              " is not host-resident");
  }
  it->second.tier = SnapshotTier::kNvme;
  used_ -= it->second.dirty_bytes;
  nvme_used_ += it->second.dirty_bytes;
  PublishGauges();
  return Status::Ok();
}

Status SnapshotStore::MarkPromoted(SnapshotId id) {
  auto it = snapshots_.find(id);
  if (it == snapshots_.end()) {
    return NotFound("snapshot " + std::to_string(id));
  }
  if (it->second.tier != SnapshotTier::kNvme) {
    return FailedPrecondition("snapshot " + std::to_string(id) +
                              " is not nvme-resident");
  }
  if (used_ + it->second.dirty_bytes > budget_) {
    return ResourceExhausted("snapshot store: promotion of " +
                             std::to_string(id) + " needs " +
                             it->second.dirty_bytes.ToString() + ", " +
                             free().ToString() + " free");
  }
  it->second.tier = SnapshotTier::kHost;
  nvme_used_ -= it->second.dirty_bytes;
  used_ += it->second.dirty_bytes;
  peak_used_ = std::max(peak_used_, used_);
  PublishGauges();
  return Status::Ok();
}

Status SnapshotStore::MarkFetched(SnapshotId id) {
  auto it = snapshots_.find(id);
  if (it == snapshots_.end()) {
    return NotFound("snapshot " + std::to_string(id));
  }
  if (it->second.tier != SnapshotTier::kRemote) {
    return FailedPrecondition("snapshot " + std::to_string(id) +
                              " is not a remote placeholder");
  }
  if (used_ + it->second.dirty_bytes > budget_) {
    return ResourceExhausted("snapshot store: fetch of " +
                             std::to_string(id) + " needs " +
                             it->second.dirty_bytes.ToString() + ", " +
                             free().ToString() + " free");
  }
  it->second.tier = SnapshotTier::kHost;
  remote_bytes_ -= it->second.dirty_bytes;
  used_ += it->second.dirty_bytes;
  peak_used_ = std::max(peak_used_, used_);
  PublishGauges();
  return Status::Ok();
}

Status SnapshotStore::MarkLost(SnapshotId id) {
  auto it = snapshots_.find(id);
  if (it == snapshots_.end()) {
    return NotFound("snapshot " + std::to_string(id));
  }
  if (it->second.tier != SnapshotTier::kHost) {
    return FailedPrecondition("snapshot " + std::to_string(id) +
                              " is not host-resident");
  }
  it->second.tier = SnapshotTier::kRemote;
  used_ -= it->second.dirty_bytes;
  remote_bytes_ += it->second.dirty_bytes;
  PublishGauges();
  if (on_drop_) on_drop_();
  return Status::Ok();
}

Status SnapshotStore::Verify(SnapshotId id) const {
  auto it = snapshots_.find(id);
  if (it == snapshots_.end()) {
    return NotFound("snapshot " + std::to_string(id));
  }
  if (it->second.checksum != SnapshotChecksum(it->second)) {
    return DataLoss("snapshot " + std::to_string(id) + " (" +
                    it->second.owner + "): checksum mismatch");
  }
  return Status::Ok();
}

Status SnapshotStore::Corrupt(SnapshotId id) {
  auto it = snapshots_.find(id);
  if (it == snapshots_.end()) {
    return NotFound("snapshot " + std::to_string(id));
  }
  it->second.checksum ^= 0xbadc0ffee0ddf00dULL;
  return Status::Ok();
}

const Snapshot* SnapshotStore::FindByOwner(std::string_view owner) const {
  // The map is id-ordered, so the latest is the last match.
  for (auto it = snapshots_.rbegin(); it != snapshots_.rend(); ++it) {
    if (it->second.owner == owner) return &it->second;
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

std::vector<Snapshot> SnapshotStore::All() const {
  std::vector<Snapshot> out;
  out.reserve(snapshots_.size());
  for (const auto& [id, snap] : snapshots_) out.push_back(snap);
  return out;
}

}  // namespace swapserve::ckpt
