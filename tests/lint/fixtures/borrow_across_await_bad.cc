// Fixture: borrow-across-await must fire when a snapshot borrowed from the
// store is read after a later co_await -- here a fetch that keeps the
// placeholder pointer across its fault stall, and a reference taken from
// such a pointer and read after the transfer.
namespace fixture {

sim::Task<Status> Replicator::DoFetch(int dst, ckpt::SnapshotId dst_id) {
  const ckpt::Snapshot* snap = store_.Find(dst_id);
  if (snap == nullptr) co_return NotFound("gone");
  fault::FaultDecision decision = fault::Evaluate(injector_, "cluster.fetch",
                                                  snap->owner);
  if (decision.stall.ns() > 0) co_await sim_.Delay(decision.stall);
  co_await fabric_.Transfer(source_, dst, snap->dirty_bytes);
  co_return Status::Ok();
}

sim::Task<> Replicator::Land(int dst, std::string owner) {
  const ckpt::Snapshot* found = store_.FindByOwner(owner);
  const ckpt::Snapshot& alias = *found;
  co_await fabric_.Transfer(source_, dst, Bytes(0));
  Record(alias.dirty_bytes);
}

}  // namespace fixture
