// Coroutine synchronization primitives for the simulator.
//
// All primitives are strictly FIFO: waiters are granted in arrival order and
// woken through Simulation::Post so wakeups interleave deterministically
// with timer events. Being single-threaded, none of this needs atomics; the
// locks here guard invariants *across co_await suspension points*, which is
// exactly the race the paper's write-locking of eviction candidates (§3.5)
// exists to prevent.
//
// There is one lock core, SimRwLock; SimMutex is its exclusive side. Every
// deadlock-validator call (lock_debug.h) sits behind `if constexpr
// (kLockDebug)`, so release and debug builds share one code path and differ
// only in whether those calls are compiled.

#pragma once

#include <coroutine>
#include <cstdint>
#include <string_view>
#include <type_traits>
#include <utility>

#include "sim/simulation.h"
#include "sim/small_ring.h"
#include "util/status.h"

namespace swapserve::sim {

// Reader-writer lock with strict FIFO fairness: a queued writer blocks
// later readers (no writer starvation), matching the paper's §3.5
// write-locking of eviction candidates — request forwarding holds shared
// access, a swap operation takes exclusive access and thereby waits for
// in-flight requests to drain.
//
// `name` and `rank` feed the deadlock validator (lock_debug.h): waits are
// cycle-checked against the waits-for graph, and ranked locks must be
// acquired in increasing rank order within one coroutine frame. Builds
// without the validator ignore both.
class SimRwLock {
  // The coroutine frame a hold belongs to, for the validator. Without it
  // the slot is an empty type that reads as null, so guards and awaiters
  // stay one pointer wide.
  struct NoAgent {
    constexpr NoAgent(const void* /*agent*/) {}
    constexpr operator const void*() const { return nullptr; }
  };
  using Agent = std::conditional_t<kLockDebug, const void*, NoAgent>;

 public:
  explicit SimRwLock(Simulation& sim, std::string_view name = "",
                     int rank = kLockUnranked)
      : SimRwLock(sim, "SimRwLock", name, rank) {}
  ~SimRwLock() {
    if constexpr (kLockDebug) sim_->lock_debug().Unregister(this);
  }
  SimRwLock(const SimRwLock&) = delete;
  SimRwLock& operator=(const SimRwLock&) = delete;

  // RAII ownership of one shared slot or of the exclusive slot; released
  // on destruction.
  template <bool kExclusive>
  class [[nodiscard]] Guard {
   public:
    Guard() = default;
    Guard(SimRwLock* lock, Agent agent) : lock_(lock), agent_(agent) {}
    Guard(Guard&& o) noexcept
        : lock_(std::exchange(o.lock_, nullptr)),
          agent_(std::exchange(o.agent_, nullptr)) {}
    Guard& operator=(Guard&& o) noexcept {
      if (this != &o) {
        Release();
        lock_ = std::exchange(o.lock_, nullptr);
        agent_ = std::exchange(o.agent_, nullptr);
      }
      return *this;
    }
    ~Guard() { Release(); }

    bool owns_lock() const { return lock_ != nullptr; }
    void Release() {
      if (lock_ == nullptr) return;
      std::exchange(lock_, nullptr)
          ->Unlock(kExclusive, std::exchange(agent_, nullptr));
    }
    // Must be called before the guard escapes (outlives) the coroutine
    // frame that acquired it: the dead frame's address can be reused by a
    // new coroutine, which the validator would then mistake for a holder
    // waiting on its own lock.
    void DetachAgent() {
      if constexpr (kLockDebug) {
        if (lock_ != nullptr && agent_ != nullptr) {
          lock_->sim_->lock_debug().Reattribute(
              lock_, std::exchange(agent_, nullptr));
        }
      }
    }

   private:
    SimRwLock* lock_ = nullptr;
    [[no_unique_address]] Agent agent_ = nullptr;
  };
  using SharedGuard = Guard<false>;
  using ExclusiveGuard = Guard<true>;

  template <bool kExclusive>
  struct [[nodiscard]] Awaiter {
    SimRwLock* lock;
    [[no_unique_address]] Agent agent = nullptr;
    // A free lock is taken here without suspending. With the validator on,
    // acquisition waits for await_suspend, which knows the coroutine frame;
    // returning false there resumes at once, so scheduling is the same.
    bool await_ready() { return !kLockDebug && lock->TryLock(kExclusive); }
    bool await_suspend(std::coroutine_handle<> h) {
      if constexpr (kLockDebug) {
        agent = h.address();
        if (lock->TryLock(kExclusive)) {
          lock->sim_->lock_debug().OnAcquired(lock, agent);
          return false;
        }
        lock->sim_->lock_debug().OnWait(lock, agent);
      }
      lock->waiters_.push_back({h, kExclusive});
      return true;
    }
    Guard<kExclusive> await_resume() { return {lock, agent}; }
  };

  // co_await lock.AcquireShared() -> SharedGuard
  Awaiter<false> AcquireShared() { return {this}; }
  // co_await lock.AcquireExclusive() -> ExclusiveGuard
  Awaiter<true> AcquireExclusive() { return {this}; }

  bool write_locked() const { return holders_ < 0; }
  int readers() const { return holders_ > 0 ? holders_ : 0; }
  std::size_t waiting() const { return waiters_.size(); }

 private:
  friend class SimMutex;
  struct Waiter {
    std::coroutine_handle<> handle;
    bool exclusive;
  };

  SimRwLock(Simulation& sim, std::string_view kind, std::string_view name,
            int rank)
      : sim_(&sim) {
    if constexpr (kLockDebug) {
      sim_->lock_debug().Register(this, kind, name, rank);
    }
  }

  // Takes the lock if the current holders admit it, ignoring the queue.
  bool Take(bool exclusive) {
    if (exclusive ? holders_ != 0 : holders_ < 0) return false;
    holders_ = exclusive ? -1 : holders_ + 1;
    return true;
  }

  // A reader must not pass a queued writer. A writer needs no queue check:
  // a queued waiter implies a holder (waiters_ non-empty => holders_ != 0),
  // because Grant() stops only at a waiter the current holders block.
  bool TryLock(bool exclusive) {
    return (exclusive || waiters_.empty()) && Take(exclusive);
  }

  void Unlock(bool exclusive, const void* agent) {
    SWAP_CHECK_MSG(exclusive ? holders_ < 0 : holders_ > 0,
                   exclusive ? "unlock-exclusive without writer"
                             : "unlock-shared without readers");
    if constexpr (kLockDebug) sim_->lock_debug().OnReleased(this, agent);
    holders_ = exclusive ? 0 : holders_ - 1;
    if (!waiters_.empty()) Grant();
  }

  // Strict FIFO: grant a leading writer alone, or a run of readers up to
  // the next queued writer. Kept out of line: inlined into every Release
  // it slows the uncontended acquire/release loop.
  [[gnu::noinline]] void Grant() {
    do {
      const Waiter& front = waiters_.front();
      if (!Take(front.exclusive)) return;
      if constexpr (kLockDebug) {
        sim_->lock_debug().OnGranted(this, front.handle.address());
      }
      sim_->Post(front.handle);
      waiters_.pop_front();
    } while (holders_ > 0 && !waiters_.empty());
  }

  Simulation* sim_;
  int holders_ = 0;  // -1: one writer; n >= 0: n readers
  SmallRing<Waiter> waiters_;
};

// Mutual exclusion across suspension points, non-recursive: the exclusive
// side of a SimRwLock. It registers with the validator as "SimMutex".
class SimMutex {
 public:
  using Guard = SimRwLock::ExclusiveGuard;

  explicit SimMutex(Simulation& sim, std::string_view name = "",
                    int rank = kLockUnranked)
      : lock_(sim, "SimMutex", name, rank) {}

  // co_await mutex.Acquire() -> Guard
  SimRwLock::Awaiter<true> Acquire() { return lock_.AcquireExclusive(); }

  bool locked() const { return lock_.write_locked(); }
  std::size_t waiting() const { return lock_.waiting(); }

 private:
  SimRwLock lock_;
};

// Manual-reset event. Wait() completes immediately while set.
class SimEvent {
 public:
  explicit SimEvent(Simulation& sim) : sim_(&sim) {}
  SimEvent(const SimEvent&) = delete;
  SimEvent& operator=(const SimEvent&) = delete;

  struct [[nodiscard]] Awaiter {
    SimEvent* event;
    bool await_ready() const { return event->set_; }
    void await_suspend(std::coroutine_handle<> h) {
      event->waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };

  Awaiter Wait() { return Awaiter{this}; }

  void Set() {
    set_ = true;
    WakeAll();
  }
  void Reset() { set_ = false; }
  bool is_set() const { return set_; }

  // Wake current waiters without latching the set state (condition-variable
  // style notify_all; waiters must re-check their predicate).
  void Pulse() { WakeAll(); }

  // Resume the current waiters at once, inside the caller, instead of
  // posting them behind already-queued events (sim::GridLoop::Poke). A
  // waiter that waits again is not resumed again. A waiter must suspend
  // again before it touches anything the caller is in the middle of.
  void WakeNow() {
    SmallRing<std::coroutine_handle<>> now;
    for (; !waiters_.empty(); waiters_.pop_front()) {
      now.push_back(waiters_.front());
    }
    for (; !now.empty(); now.pop_front()) now.front().resume();
  }

  std::size_t waiting() const { return waiters_.size(); }

 private:
  void WakeAll() {
    while (!waiters_.empty()) {
      sim_->Post(waiters_.front());
      waiters_.pop_front();
    }
  }

  Simulation* sim_;
  bool set_ = false;
  SmallRing<std::coroutine_handle<>> waiters_;
};

}  // namespace swapserve::sim
