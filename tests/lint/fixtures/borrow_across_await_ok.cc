// Fixture: compliant twin of borrow_across_await_bad.cc. Copying the
// snapshot before the await, reading the borrow only before it, or
// borrowing again after it stays silent.
namespace fixture {

sim::Task<Status> Replicator::DoFetch(int dst, ckpt::SnapshotId dst_id) {
  const ckpt::Snapshot* placeholder = store_.Find(dst_id);
  if (placeholder == nullptr) co_return NotFound("gone");
  const ckpt::Snapshot snap = *placeholder;  // held across the awaits
  fault::FaultDecision decision = fault::Evaluate(injector_, "cluster.fetch",
                                                  snap.owner);
  if (decision.stall.ns() > 0) co_await sim_.Delay(decision.stall);
  co_await fabric_.Transfer(source_, dst, snap.dirty_bytes);
  co_return Status::Ok();
}

sim::Task<Status> Engine::SwapIn(ckpt::SnapshotId id) {
  const ckpt::Snapshot* stored = store_.Find(id);
  if (stored == nullptr) co_return NotFound("gone");
  const Bytes dirty = stored->dirty_bytes;
  co_await remote_fetch_(id);
  stored = store_.Find(id);  // borrowed again after the await
  if (stored == nullptr) co_return NotFound("gone");
  co_await Copy(dirty, stored->clean_bytes);
  co_return Status::Ok();
}

}  // namespace fixture
