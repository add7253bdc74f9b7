// The discrete-event executor.
//
// A Simulation owns a virtual clock and an allocation-free event core.
// Coroutines advance time only by awaiting Delay()/WaitUntil(); running code
// takes zero virtual time. Events scheduled for the same instant fire in
// scheduling order, so runs are fully deterministic.
//
// Event core layout (DESIGN.md §13):
//   - The queue links TimerEntry headers: {fire time, FIFO link, payload
//     descriptor}. A Delay/WaitUntil suspension is *intrusive* — the
//     awaiter materialized in the coroutine frame IS the queue entry, so
//     the dominant event (a sleeping coroutine) touches no side storage at
//     all. Post/ScheduleResume wakeups and Schedule callables use pooled
//     64-byte nodes recycled through a per-thread freelist; callables are
//     stored in a 32-byte inline buffer (a std::function fits exactly),
//     falling back to a side heap allocation only for oversized captures.
//   - The timer queue is a 64-ary radix heap: FIFO buckets indexed by the
//     highest 6-bit digit in which an event's timestamp differs from the
//     current instant. The simulation clock is monotone — every schedule
//     targets at >= Now() and pops come out in ascending time — which is
//     exactly the precondition radix heaps need for O(1) amortized
//     operations; the wide radix bounds redistribution at <= 10 moves per
//     event (1-2 in practice). A dedicated current-instant list holds the
//     events being drained (at == Now()) and doubles as the ready ring:
//     Post/Schedule(0) append there directly. No comparison-based heap,
//     no sift, and the bucket array is a fixed part of the Simulation —
//     the queue structure itself never allocates.
//   Ordering is the old single priority queue's (at, seq) order exactly:
//   equal timestamps always occupy the same bucket, every list operation
//   (append, redistribute) preserves relative order, and the current list
//   is drained head-first — so same-instant events replay insertion
//   (= seq) order, and instants fire in ascending time (DESIGN.md §13).

#pragma once

#include <bit>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/lock_debug.h"
#include "sim/task.h"
#include "sim/time.h"
#include "util/status.h"

namespace swapserve::sim {

class Simulation;

namespace detail {

struct TimerEntry;

// Two-entry manual vtable shared by all pooled payloads. `run` moves the
// payload out, releases the node, then invokes; `drop` destroys the payload
// without running it and releases the node (simulation teardown).
struct EntryOps {
  void (*run)(Simulation*, TimerEntry*);
  void (*drop)(Simulation*, TimerEntry*);
};

// Queue-entry header threaded through the radix buckets. `ops == nullptr`
// tags the intrusive coroutine-resume entry (a ResumeEntry living inside a
// suspended coroutine frame — nothing to release, nothing to destroy).
struct TimerEntry {
  std::int64_t at_ns;       // absolute fire time while queued
  TimerEntry* next;         // bucket FIFO link / pool freelist link
  const EntryOps* ops;      // payload dispatch; null => intrusive resume
};

// The intrusive form: lives inside a DelayAwaiter in the awaiting
// coroutine's frame, which by definition outlives the suspension.
struct ResumeEntry : TimerEntry {
  void* handle;             // coroutine_handle<>::address()
};

// Inline payload capacity: a std::function copy (32 bytes) or a lambda
// with a handful of captures fits; anything bigger takes the heap fallback.
inline constexpr std::size_t kInlinePayloadSize = 40;

// One pooled event node. Exactly 64 bytes so two nodes share a cache line
// pair and the freelist stays dense.
struct EventNode : TimerEntry {
  alignas(void*) unsigned char storage[kInlinePayloadSize];
};
static_assert(sizeof(EventNode) == 64);

// Chunked arena of EventNodes shared by every Simulation on this thread.
// Chunks are never freed while the thread lives, so a fresh Simulation
// starts with a warm pool (steady-state runs — e.g. one simulation per
// benchmark iteration — never allocate).
class EventNodePool {
 public:
  static EventNodePool& Local();

  EventNode* Acquire() {
    if (free_head_ == nullptr) Grow();
    EventNode* n = free_head_;
    free_head_ = static_cast<EventNode*>(n->next);
    return n;
  }
  void Release(EventNode* n) {
    n->next = free_head_;
    free_head_ = n;
  }
  std::uint64_t chunk_allocs() const { return chunk_allocs_; }

  ~EventNodePool();

 private:
  static constexpr std::uint32_t kChunkSize = 512;  // 32 KiB per chunk

  void Grow();

  std::vector<EventNode*> chunks_;
  EventNode* free_head_ = nullptr;
  std::uint64_t chunk_allocs_ = 0;
};

template <typename F>
inline constexpr bool kInlineEligible =
    sizeof(F) <= kInlinePayloadSize && alignof(F) <= alignof(void*) &&
    std::is_nothrow_move_constructible_v<F>;

}  // namespace detail

// Allocation telemetry for the event core; the alloc-counting test pins
// every field to zero deltas in steady state (see tests/sim/alloc_test.cpp).
// The radix-heap timer queue is a fixed array and never allocates, so the
// only sources are node-pool growth and oversized callable payloads.
struct EventCoreStats {
  std::uint64_t node_chunk_allocs = 0;  // thread-pool arena growth
  std::uint64_t oversized_payloads = 0; // callables that took the heap path
};

class Simulation {
 public:
  Simulation() : pool_(&detail::EventNodePool::Local()) {
    for (auto& level : slots_) {
      for (Slot& s : level) s.bucket = Bucket{nullptr, nullptr};
    }
  }
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime Now() const { return now_; }

  // Schedule `fn` to run at Now() + delay (delay must be >= 0). Accepts any
  // void() callable; small callables are stored inline in the event node.
  template <typename F>
  void Schedule(SimDuration delay, F&& fn) {
    SWAP_CHECK_MSG(delay.ns() >= 0, "cannot schedule into the past");
    ScheduleAt(now_ + delay, std::forward<F>(fn));
  }
  template <typename F>
  void ScheduleAt(SimTime at, F&& fn) {
    SWAP_CHECK_MSG(at >= now_, "cannot schedule before Now()");
    using Fn = std::decay_t<F>;
    detail::EventNode* n = pool_->Acquire();
    if constexpr (detail::kInlineEligible<Fn>) {
      ::new (static_cast<void*>(n->storage)) Fn(std::forward<F>(fn));
      n->ops = &kInlineOps<Fn>;
    } else {
      *reinterpret_cast<Fn**>(static_cast<void*>(n->storage)) =
          new Fn(std::forward<F>(fn));
      n->ops = &kHeapOps<Fn>;
      ++stats_.oversized_payloads;
    }
    Enqueue(at.ns(), n);
  }

  // Resume `h` after `delay` of virtual time via a pooled node. Coroutines
  // awaiting Delay()/WaitUntil() use the cheaper intrusive path instead
  // (DelayAwaiter below); this is the API for bare handles held by the
  // synchronization primitives.
  void ScheduleResume(SimDuration delay, std::coroutine_handle<> h) {
    SWAP_CHECK_MSG(delay.ns() >= 0, "cannot schedule into the past");
    detail::EventNode* n = pool_->Acquire();
    n->ops = &kResumeOps;
    *reinterpret_cast<void**>(static_cast<void*>(n->storage)) = h.address();
    Enqueue(now_.ns() + delay.ns(), n);
  }

  // Resume `h` at the current virtual time, after already-queued events.
  // Synchronization primitives use this to keep wakeup order deterministic
  // and stacks shallow. Appends straight to the current instant's bucket.
  void Post(std::coroutine_handle<> h) { ScheduleResume(SimDuration(0), h); }

  // Run until the event queue is empty. Returns the final virtual time.
  SimTime Run();
  // Run until the queue is empty or virtual time would pass `deadline`;
  // the clock is left at min(deadline, completion time).
  SimTime RunUntil(SimTime deadline);

  bool HasPendingEvents() const {
    return current_.head != nullptr || level_occ_ != 0;
  }
  std::uint64_t processed_events() const { return processed_; }
  EventCoreStats alloc_stats() const {
    EventCoreStats s = stats_;
    s.node_chunk_allocs = pool_->chunk_allocs();
    return s;
  }

  // --- awaitables -----------------------------------------------------

  // Suspending on a timer is intrusive: this awaiter is materialized in the
  // awaiting coroutine's frame (which outlives the suspension by
  // definition), and its embedded ResumeEntry is linked directly into the
  // radix buckets — the hot sleep path touches no pool and no side storage.
  struct DelayAwaiter {
    Simulation* sim;
    SimDuration delay;
    detail::ResumeEntry entry;

    // Leaves `entry` uninitialized on purpose: it is only written when the
    // await actually suspends (an aggregate would zero all 32 bytes).
    DelayAwaiter(Simulation* s, SimDuration d) noexcept : sim(s), delay(d) {}

    bool await_ready() const noexcept { return delay.ns() <= 0; }
    void await_suspend(std::coroutine_handle<> h) {
      entry.ops = nullptr;  // tags "intrusive resume" for the dispatcher
      entry.handle = h.address();
      sim->Enqueue(sim->now_.ns() + delay.ns(), &entry);
    }
    void await_resume() const noexcept {}
  };

  // Suspend the current coroutine for `delay` of virtual time.
  DelayAwaiter Delay(SimDuration delay) { return DelayAwaiter{this, delay}; }

  // Move a suspended Delay/WaitUntil (the awaiter its coroutine is parked
  // on, which must still be queued) to `at` >= Now(). It lands behind every
  // event already queued for `at`, as if first filed now. An O(bucket)
  // unlink (DESIGN.md §13): only a crash moves a sleeper, so no timer pays
  // for a back link.
  void Reschedule(DelayAwaiter& sleeper, SimTime at);
  // Take a suspended Delay/WaitUntil off the queue without resuming it;
  // its owner resumes the coroutine some other way (or re-arms the
  // awaiter). Same cost as Reschedule.
  void Cancel(DelayAwaiter& sleeper);
  // Suspend until the absolute virtual time `at`. A deadline already in the
  // past means "resume now": the clamp happens here, at construction, so a
  // negative SimDuration is never formed.
  DelayAwaiter WaitUntil(SimTime at) {
    return DelayAwaiter{this, at <= now_ ? SimDuration(0) : at - now_};
  }

  struct YieldAwaiter {
    Simulation* sim;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { sim->Post(h); }
    void await_resume() const noexcept {}
  };

  // Reschedule the current coroutine behind already-queued same-instant
  // events (cooperative yield at Now()).
  YieldAwaiter Yield() { return YieldAwaiter{this}; }

  // Deadlock validator shared by this simulation's locks (kLockDebug).
  LockDebugRegistry& lock_debug() { return lock_debug_; }

  // Convenience: spawn a detached process.
  void Go(Task<> task) { Spawn(std::move(task)); }
  template <typename F>
    requires std::is_invocable_r_v<Task<>, F&>
  void Go(F fn) {
    Spawn(std::move(fn));
  }

 private:
  // One radix-heap bucket: a FIFO list threaded through the entries.
  struct Bucket {
    detail::TimerEntry* head;
    detail::TimerEntry* tail;
  };
  // A bucket and its cached minimum timestamp share one slot so an insert
  // or redistribution touches a single cache line, not two arrays.
  struct Slot {
    Bucket bucket;
    std::int64_t min;
  };

  template <typename F>
  static void RunInline(Simulation* sim, detail::TimerEntry* e) {
    auto* n = static_cast<detail::EventNode*>(e);
    F* stored = std::launder(reinterpret_cast<F*>(n->storage));
    F local(std::move(*stored));
    stored->~F();
    sim->pool_->Release(n);  // node is reusable before the callback runs
    local();
  }
  template <typename F>
  static void RunHeap(Simulation* sim, detail::TimerEntry* e) {
    auto* n = static_cast<detail::EventNode*>(e);
    std::unique_ptr<F> owned(
        *reinterpret_cast<F**>(static_cast<void*>(n->storage)));
    sim->pool_->Release(n);
    (*owned)();
  }
  static void RunResume(Simulation* sim, detail::TimerEntry* e) {
    auto* n = static_cast<detail::EventNode*>(e);
    void* addr = *reinterpret_cast<void**>(static_cast<void*>(n->storage));
    sim->pool_->Release(n);
    std::coroutine_handle<>::from_address(addr).resume();
  }
  template <typename F>
  static void DropInline(Simulation* sim, detail::TimerEntry* e) {
    auto* n = static_cast<detail::EventNode*>(e);
    std::launder(reinterpret_cast<F*>(n->storage))->~F();
    sim->pool_->Release(n);
  }
  template <typename F>
  static void DropHeap(Simulation* sim, detail::TimerEntry* e) {
    auto* n = static_cast<detail::EventNode*>(e);
    delete *reinterpret_cast<F**>(static_cast<void*>(n->storage));
    sim->pool_->Release(n);
  }
  static void DropResume(Simulation* sim, detail::TimerEntry* e) {
    sim->pool_->Release(static_cast<detail::EventNode*>(e));
  }

  template <typename F>
  static constexpr detail::EntryOps kInlineOps{&RunInline<F>, &DropInline<F>};
  template <typename F>
  static constexpr detail::EntryOps kHeapOps{&RunHeap<F>, &DropHeap<F>};
  static constexpr detail::EntryOps kResumeOps{&RunResume, &DropResume};

  static constexpr int kDigitBits = 6;   // 64-ary radix
  static constexpr int kDigits = 1 << kDigitBits;
  static constexpr int kLevels = 11;     // ceil(64 / kDigitBits)

  void Enqueue(std::int64_t at_ns, detail::TimerEntry* e) {
    e->at_ns = at_ns;
    e->next = nullptr;
    FileEntry(at_ns, e);
  }
  // Re-file an entry whose at_ns is already stamped (redistribution path).
  void Requeue(detail::TimerEntry* e) {
    e->next = nullptr;
    FileEntry(e->at_ns, e);
  }

  // File a queued timestamp: the current-instant list when at_ns == ref_ns_,
  // else bucket [level][digit] where `level` is the highest 6-bit digit in
  // which at_ns differs from ref_ns_ and `digit` is at_ns's digit there.
  // Every queued at_ns is >= ref_ns_ (the clock is monotone), the
  // radix-heap precondition.
  void FileEntry(std::int64_t at_ns, detail::TimerEntry* e) {
    const std::uint64_t diff = static_cast<std::uint64_t>(at_ns ^ ref_ns_);
    if (diff == 0) {
      AppendTo(current_, e);
      return;
    }
    const int level = (63 - std::countl_zero(diff)) / kDigitBits;
    const int digit = static_cast<int>(
        (static_cast<std::uint64_t>(at_ns) >> (level * kDigitBits)) &
        (kDigits - 1));
    Slot& slot = slots_[level][digit];
    if (slot.bucket.head == nullptr) {
      slot.bucket.head = slot.bucket.tail = e;
      slot.min = at_ns;
      digit_occ_[level] |= std::uint64_t{1} << digit;
      level_occ_ |= 1u << level;
    } else {
      slot.bucket.tail->next = e;
      slot.bucket.tail = e;
      if (at_ns < slot.min) slot.min = at_ns;
    }
  }

  void AppendTo(Bucket& bucket, detail::TimerEntry* e) {
    if (bucket.head == nullptr) {
      bucket.head = bucket.tail = e;
    } else {
      bucket.tail->next = e;
      bucket.tail = e;
    }
  }

  // Unlink a queued entry from the list holding it (found from its at_ns,
  // as FileEntry filed it), keeping the bucket's cached minimum and the
  // occupancy bits true.
  void Unlink(detail::TimerEntry* e);

  // Move the lowest non-empty bucket's events down, making its minimum
  // timestamp the new current instant. Pre: current_ empty, level_occ_ != 0.
  void Redistribute();

  // Pop the head of the current instant and invoke its payload. Pre:
  // current_ is non-empty. The hot loop of Run()/RunUntil().
  void DispatchHead();

  SimTime now_;
  // Radix reference: the timestamp the current-instant list represents.
  // Equal to now_ except after RunUntil parked the clock at a deadline
  // beyond the last fired instant (then ref_ns_ <= now_ and the current
  // list is empty).
  std::int64_t ref_ns_ = 0;
  std::uint64_t processed_ = 0;
  detail::EventNodePool* pool_;
  EventCoreStats stats_;

  // Current instant's FIFO (at == ref_ns_); doubles as the ready ring.
  Bucket current_{nullptr, nullptr};
  // slots_[l][d] holds timestamps agreeing with ref_ns_ on all 6-bit
  // digits above l and reading d at digit l (d > ref's digit there).
  Slot slots_[kLevels][kDigits];
  std::uint64_t digit_occ_[kLevels] = {};  // bit d <=> slots_[l][d] live
  std::uint32_t level_occ_ = 0;            // bit l <=> digit_occ_[l] != 0
  // Last: cold, and the event core's hot fields keep their offsets.
  LockDebugRegistry lock_debug_;
};

}  // namespace swapserve::sim
