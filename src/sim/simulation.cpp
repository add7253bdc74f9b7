#include "sim/simulation.h"

namespace swapserve::sim {

namespace detail {

EventNodePool& EventNodePool::Local() {
  thread_local EventNodePool pool;
  return pool;
}

void EventNodePool::Grow() {
  auto* chunk = new EventNode[kChunkSize];
  chunks_.push_back(chunk);
  ++chunk_allocs_;
  // Link the fresh chunk as a freelist run, low address first.
  for (std::uint32_t i = 0; i < kChunkSize - 1; ++i) {
    chunk[i].next = &chunk[i + 1];
  }
  chunk[kChunkSize - 1].next = free_head_;
  free_head_ = chunk;
}

EventNodePool::~EventNodePool() {
  for (EventNode* chunk : chunks_) delete[] chunk;
}

}  // namespace detail

Simulation::~Simulation() {
  // Pending pooled payloads are destroyed without running (matching the old
  // std::priority_queue teardown) and their nodes returned to the pool.
  // Intrusive resume entries (ops == nullptr) live inside still-suspended
  // coroutine frames that own themselves — nothing to do here.
  const auto drain = [this](const Bucket& b) {
    detail::TimerEntry* e = b.head;
    while (e != nullptr) {
      detail::TimerEntry* next = e->next;
      if (e->ops != nullptr) e->ops->drop(this, e);
      e = next;
    }
  };
  drain(current_);
  std::uint32_t levels = level_occ_;
  while (levels != 0) {
    const int level = std::countr_zero(levels);
    levels &= levels - 1;
    std::uint64_t digits = digit_occ_[level];
    while (digits != 0) {
      const int digit = std::countr_zero(digits);
      digits &= digits - 1;
      drain(slots_[level][digit].bucket);
    }
  }
}

void Simulation::Redistribute() {
  // The lowest occupied digit of the lowest occupied level holds the
  // globally next timestamps (radix-heap invariant); that bucket's minimum
  // becomes the new current instant.
  const int level = std::countr_zero(level_occ_);
  const int digit = std::countr_zero(digit_occ_[level]);
  Slot& slot = slots_[level][digit];
  const std::int64_t min_at = slot.min;
  const Bucket b = slot.bucket;
  slot.bucket = Bucket{nullptr, nullptr};
  digit_occ_[level] &= ~(std::uint64_t{1} << digit);
  if (digit_occ_[level] == 0) level_occ_ &= ~(1u << level);
  ref_ns_ = min_at;
  now_ = SimTime(min_at);
  if (b.head == b.tail) {
    // Single event: it defines the bucket minimum, so it IS the new
    // current instant — adopt the whole bucket without re-filing. This is
    // the common shape for workloads with mostly-distinct timestamps.
    current_ = b;
    return;
  }
  // Walk in FIFO order, re-filing each event relative to the new
  // reference. Equal timestamps share a bucket at every step, so relative
  // order of same-instant events survives every redistribution. Events at
  // min_at land in the current list; everything else lands at a strictly
  // lower level (the whole bucket shares all digits above `level` and the
  // digit at `level` itself, so re-keying against min_at shortens the
  // differing prefix).
  detail::TimerEntry* e = b.head;
  while (e != nullptr) {
    detail::TimerEntry* next = e->next;
    Requeue(e);
    e = next;
  }
}

void Simulation::Reschedule(DelayAwaiter& sleeper, SimTime at) {
  SWAP_CHECK_MSG(at >= now_, "cannot reschedule before Now()");
  Unlink(&sleeper.entry);
  Enqueue(at.ns(), &sleeper.entry);
}

void Simulation::Cancel(DelayAwaiter& sleeper) { Unlink(&sleeper.entry); }

void Simulation::Unlink(detail::TimerEntry* e) {
  const std::uint64_t diff = static_cast<std::uint64_t>(e->at_ns ^ ref_ns_);
  Bucket* bucket = &current_;
  Slot* slot = nullptr;
  int level = 0;
  int digit = 0;
  if (diff != 0) {
    level = (63 - std::countl_zero(diff)) / kDigitBits;
    digit = static_cast<int>(
        (static_cast<std::uint64_t>(e->at_ns) >> (level * kDigitBits)) &
        (kDigits - 1));
    slot = &slots_[level][digit];
    bucket = &slot->bucket;
  }
  detail::TimerEntry* prev = nullptr;
  detail::TimerEntry* cur = bucket->head;
  while (cur != e) {
    SWAP_CHECK_MSG(cur != nullptr, "timer is not queued");
    prev = cur;
    cur = cur->next;
  }
  if (prev == nullptr) {
    bucket->head = e->next;
  } else {
    prev->next = e->next;
  }
  if (bucket->tail == e) bucket->tail = prev;
  e->next = nullptr;
  if (slot == nullptr) return;
  if (bucket->head == nullptr) {
    digit_occ_[level] &= ~(std::uint64_t{1} << digit);
    if (digit_occ_[level] == 0) level_occ_ &= ~(1u << level);
  } else if (e->at_ns == slot->min) {
    // Redistribute makes the minimum the current instant: it must be a
    // timestamp still in the bucket.
    slot->min = bucket->head->at_ns;
    for (cur = bucket->head->next; cur != nullptr; cur = cur->next) {
      if (cur->at_ns < slot->min) slot->min = cur->at_ns;
    }
  }
}

void Simulation::DispatchHead() {
  detail::TimerEntry* e = current_.head;
  const auto next = e->next;
  current_.head = next;
  // Warm the next same-instant entry while this payload executes.
  if (next != nullptr) __builtin_prefetch(next);
  ++processed_;
  const detail::EntryOps* ops = e->ops;
  if (ops == nullptr) {
    // Intrusive resume: the entry sits inside the suspended coroutine's
    // frame, so loading the handle already warmed the frame we jump into.
    void* addr = static_cast<detail::ResumeEntry*>(e)->handle;
    std::coroutine_handle<>::from_address(addr).resume();
    return;
  }
  ops->run(this, e);  // moves the payload out, releases the node, invokes
}

SimTime Simulation::Run() {
  for (;;) {
    if (current_.head == nullptr) {
      if (level_occ_ == 0) break;
      Redistribute();  // leaves at least one event in current_
    }
    DispatchHead();
  }
  return now_;
}

SimTime Simulation::RunUntil(SimTime deadline) {
  for (;;) {
    // Peek the next event time: the current list is the instant being
    // drained; otherwise the lowest occupied bucket's minimum is next.
    if (current_.head != nullptr) {
      if (SimTime(ref_ns_) > deadline) break;
    } else if (level_occ_ != 0) {
      const int level = std::countr_zero(level_occ_);
      const SimTime next(
          slots_[level][std::countr_zero(digit_occ_[level])].min);
      if (next > deadline) break;
      Redistribute();
    } else {
      break;
    }
    DispatchHead();
  }
  if (now_ < deadline) now_ = deadline;
  return now_;
}

}  // namespace swapserve::sim
