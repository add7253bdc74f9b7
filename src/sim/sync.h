// Coroutine synchronization primitives for the simulator.
//
// All primitives are strictly FIFO: waiters are granted in arrival order and
// woken through Simulation::Post so wakeups interleave deterministically
// with timer events. Being single-threaded, none of this needs atomics; the
// locks here guard invariants *across co_await suspension points*, which is
// exactly the race the paper's write-locking of eviction candidates (§3.5)
// exists to prevent.

#pragma once

#include <coroutine>
#include <cstdint>
#include <string_view>
#include <utility>

#include "sim/simulation.h"
#include "sim/small_ring.h"
#include "util/status.h"

namespace swapserve::sim {

// Mutual exclusion across suspension points. Non-recursive.
//
// `name` and `rank` feed the debug-build deadlock validator (lock_debug.h):
// waits are cycle-checked against the waits-for graph, and ranked locks must
// be acquired in increasing rank order within one coroutine frame. Release
// builds discard both and keep the original layout and code paths.
class SimMutex {
 public:
  explicit SimMutex(Simulation& sim, std::string_view name = "",
                    int rank = kLockUnranked)
      : sim_(&sim) {
#if SWAPSERVE_LOCK_DEBUG
    sim_->lock_debug().Register(this, "SimMutex", name, rank);
#else
    (void)name;
    (void)rank;
#endif
  }
#if SWAPSERVE_LOCK_DEBUG
  ~SimMutex() { sim_->lock_debug().Unregister(this); }
#endif
  SimMutex(const SimMutex&) = delete;
  SimMutex& operator=(const SimMutex&) = delete;

  // RAII ownership of the mutex; released on destruction.
  class [[nodiscard]] Guard {
   public:
    Guard() = default;
    explicit Guard(SimMutex* m) : mutex_(m) {}
#if SWAPSERVE_LOCK_DEBUG
    Guard(SimMutex* m, const void* agent) : mutex_(m), agent_(agent) {}
#endif
    Guard(Guard&& other) noexcept
        : mutex_(std::exchange(other.mutex_, nullptr))
#if SWAPSERVE_LOCK_DEBUG
          ,
          agent_(std::exchange(other.agent_, nullptr))
#endif
    {
    }
    Guard& operator=(Guard&& other) noexcept {
      if (this != &other) {
        Release();
        mutex_ = std::exchange(other.mutex_, nullptr);
#if SWAPSERVE_LOCK_DEBUG
        agent_ = std::exchange(other.agent_, nullptr);
#endif
      }
      return *this;
    }
    ~Guard() { Release(); }

    bool owns_lock() const { return mutex_ != nullptr; }
    void Release() {
      if (mutex_ == nullptr) return;
#if SWAPSERVE_LOCK_DEBUG
      std::exchange(mutex_, nullptr)->Unlock(std::exchange(agent_, nullptr));
#else
      std::exchange(mutex_, nullptr)->Unlock();
#endif
    }
    // Must be called before the guard escapes (outlives) the coroutine
    // frame that acquired it: the dead frame's address can be reused by a
    // new coroutine, which the debug validator would then mistake for a
    // holder waiting on its own lock. No-op in release builds.
    void DetachAgent() {
#if SWAPSERVE_LOCK_DEBUG
      if (mutex_ != nullptr && agent_ != nullptr) {
        mutex_->sim_->lock_debug().Reattribute(
            mutex_, std::exchange(agent_, nullptr));
      }
#endif
    }

   private:
    SimMutex* mutex_ = nullptr;
#if SWAPSERVE_LOCK_DEBUG
    const void* agent_ = nullptr;
#endif
  };

  struct [[nodiscard]] Awaiter {
    SimMutex* mutex;
#if SWAPSERVE_LOCK_DEBUG
    // Always reach await_suspend so the coroutine frame is known; returning
    // false there resumes immediately, matching the release fast path.
    const void* agent = nullptr;
    bool await_ready() { return false; }
    bool await_suspend(std::coroutine_handle<> h) {
      agent = h.address();
      if (!mutex->locked_) {
        mutex->locked_ = true;
        mutex->sim_->lock_debug().OnAcquired(mutex, agent);
        return false;
      }
      mutex->sim_->lock_debug().OnWait(mutex, agent);
      mutex->waiters_.push_back(h);
      return true;
    }
    Guard await_resume() { return Guard(mutex, agent); }
#else
    bool await_ready() {
      if (!mutex->locked_) {
        mutex->locked_ = true;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      mutex->waiters_.push_back(h);
    }
    Guard await_resume() { return Guard(mutex); }
#endif
  };

  // co_await mutex.Acquire() -> Guard
  Awaiter Acquire() { return Awaiter{this}; }

  bool locked() const { return locked_; }
  bool TryAcquireNow(Guard& out) {
    if (locked_) return false;
    locked_ = true;
#if SWAPSERVE_LOCK_DEBUG
    // No coroutine handle here; register an opaque holder so the validator
    // sees the lock as held without attributing it to a frame.
    sim_->lock_debug().OnAcquired(this, nullptr);
    out = Guard(this, nullptr);
#else
    out = Guard(this);
#endif
    return true;
  }

 private:
  friend struct Awaiter;
#if SWAPSERVE_LOCK_DEBUG
  void Unlock(const void* agent) {
    SWAP_CHECK_MSG(locked_, "unlock of unlocked SimMutex");
    sim_->lock_debug().OnReleased(this, agent);
    if (!waiters_.empty()) {
      // Ownership transfers to the first waiter; locked_ stays true.
      auto h = waiters_.front();
      waiters_.pop_front();
      sim_->lock_debug().OnGranted(this, h.address());
      sim_->Post(h);
    } else {
      locked_ = false;
    }
  }
#else
  void Unlock() {
    SWAP_CHECK_MSG(locked_, "unlock of unlocked SimMutex");
    if (!waiters_.empty()) {
      // Ownership transfers to the first waiter; locked_ stays true.
      auto h = waiters_.front();
      waiters_.pop_front();
      sim_->Post(h);
    } else {
      locked_ = false;
    }
  }
#endif

  Simulation* sim_;
  bool locked_ = false;
  SmallRing<std::coroutine_handle<>> waiters_;
};

// Reader-writer lock with strict FIFO fairness: a queued writer blocks
// later readers (no writer starvation), matching the paper's §3.5
// write-locking of eviction candidates — request forwarding holds shared
// access, a swap operation takes exclusive access and thereby waits for
// in-flight requests to drain.
class SimRwLock {
 public:
  explicit SimRwLock(Simulation& sim, std::string_view name = "",
                     int rank = kLockUnranked)
      : sim_(&sim) {
#if SWAPSERVE_LOCK_DEBUG
    sim_->lock_debug().Register(this, "SimRwLock", name, rank);
#else
    (void)name;
    (void)rank;
#endif
  }
#if SWAPSERVE_LOCK_DEBUG
  ~SimRwLock() { sim_->lock_debug().Unregister(this); }
#endif
  SimRwLock(const SimRwLock&) = delete;
  SimRwLock& operator=(const SimRwLock&) = delete;

  class [[nodiscard]] SharedGuard {
   public:
    SharedGuard() = default;
    explicit SharedGuard(SimRwLock* l) : lock_(l) {}
#if SWAPSERVE_LOCK_DEBUG
    SharedGuard(SimRwLock* l, const void* agent)
        : lock_(l), agent_(agent) {}
#endif
    SharedGuard(SharedGuard&& o) noexcept
        : lock_(std::exchange(o.lock_, nullptr))
#if SWAPSERVE_LOCK_DEBUG
          ,
          agent_(std::exchange(o.agent_, nullptr))
#endif
    {
    }
    SharedGuard& operator=(SharedGuard&& o) noexcept {
      if (this != &o) {
        Release();
        lock_ = std::exchange(o.lock_, nullptr);
#if SWAPSERVE_LOCK_DEBUG
        agent_ = std::exchange(o.agent_, nullptr);
#endif
      }
      return *this;
    }
    ~SharedGuard() { Release(); }
    void Release() {
      if (lock_ == nullptr) return;
#if SWAPSERVE_LOCK_DEBUG
      std::exchange(lock_, nullptr)
          ->UnlockShared(std::exchange(agent_, nullptr));
#else
      std::exchange(lock_, nullptr)->UnlockShared();
#endif
    }
    // See SimMutex::Guard::DetachAgent: required before the guard escapes
    // its acquiring coroutine frame. No-op in release builds.
    void DetachAgent() {
#if SWAPSERVE_LOCK_DEBUG
      if (lock_ != nullptr && agent_ != nullptr) {
        lock_->sim_->lock_debug().Reattribute(
            lock_, std::exchange(agent_, nullptr));
      }
#endif
    }
    bool owns_lock() const { return lock_ != nullptr; }

   private:
    SimRwLock* lock_ = nullptr;
#if SWAPSERVE_LOCK_DEBUG
    const void* agent_ = nullptr;
#endif
  };

  class [[nodiscard]] ExclusiveGuard {
   public:
    ExclusiveGuard() = default;
    explicit ExclusiveGuard(SimRwLock* l) : lock_(l) {}
#if SWAPSERVE_LOCK_DEBUG
    ExclusiveGuard(SimRwLock* l, const void* agent)
        : lock_(l), agent_(agent) {}
#endif
    ExclusiveGuard(ExclusiveGuard&& o) noexcept
        : lock_(std::exchange(o.lock_, nullptr))
#if SWAPSERVE_LOCK_DEBUG
          ,
          agent_(std::exchange(o.agent_, nullptr))
#endif
    {
    }
    ExclusiveGuard& operator=(ExclusiveGuard&& o) noexcept {
      if (this != &o) {
        Release();
        lock_ = std::exchange(o.lock_, nullptr);
#if SWAPSERVE_LOCK_DEBUG
        agent_ = std::exchange(o.agent_, nullptr);
#endif
      }
      return *this;
    }
    ~ExclusiveGuard() { Release(); }
    void Release() {
      if (lock_ == nullptr) return;
#if SWAPSERVE_LOCK_DEBUG
      std::exchange(lock_, nullptr)
          ->UnlockExclusive(std::exchange(agent_, nullptr));
#else
      std::exchange(lock_, nullptr)->UnlockExclusive();
#endif
    }
    // See SimMutex::Guard::DetachAgent: required before the guard escapes
    // its acquiring coroutine frame. No-op in release builds.
    void DetachAgent() {
#if SWAPSERVE_LOCK_DEBUG
      if (lock_ != nullptr && agent_ != nullptr) {
        lock_->sim_->lock_debug().Reattribute(
            lock_, std::exchange(agent_, nullptr));
      }
#endif
    }
    bool owns_lock() const { return lock_ != nullptr; }

   private:
    SimRwLock* lock_ = nullptr;
#if SWAPSERVE_LOCK_DEBUG
    const void* agent_ = nullptr;
#endif
  };

  struct [[nodiscard]] SharedAwaiter {
    SimRwLock* lock;
#if SWAPSERVE_LOCK_DEBUG
    const void* agent = nullptr;
    bool await_ready() { return false; }
    bool await_suspend(std::coroutine_handle<> h) {
      agent = h.address();
      if (!lock->writer_active_ && lock->waiters_.empty()) {
        ++lock->readers_active_;
        lock->sim_->lock_debug().OnAcquired(lock, agent);
        return false;
      }
      lock->sim_->lock_debug().OnWait(lock, agent);
      lock->waiters_.push_back({h, /*writer=*/false});
      return true;
    }
    SharedGuard await_resume() { return SharedGuard(lock, agent); }
#else
    bool await_ready() {
      if (!lock->writer_active_ && lock->waiters_.empty()) {
        ++lock->readers_active_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      lock->waiters_.push_back({h, /*writer=*/false});
    }
    SharedGuard await_resume() { return SharedGuard(lock); }
#endif
  };

  struct [[nodiscard]] ExclusiveAwaiter {
    SimRwLock* lock;
#if SWAPSERVE_LOCK_DEBUG
    const void* agent = nullptr;
    bool await_ready() { return false; }
    bool await_suspend(std::coroutine_handle<> h) {
      agent = h.address();
      if (!lock->writer_active_ && lock->readers_active_ == 0 &&
          lock->waiters_.empty()) {
        lock->writer_active_ = true;
        lock->sim_->lock_debug().OnAcquired(lock, agent);
        return false;
      }
      lock->sim_->lock_debug().OnWait(lock, agent);
      lock->waiters_.push_back({h, /*writer=*/true});
      return true;
    }
    ExclusiveGuard await_resume() { return ExclusiveGuard(lock, agent); }
#else
    bool await_ready() {
      if (!lock->writer_active_ && lock->readers_active_ == 0 &&
          lock->waiters_.empty()) {
        lock->writer_active_ = true;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      lock->waiters_.push_back({h, /*writer=*/true});
    }
    ExclusiveGuard await_resume() { return ExclusiveGuard(lock); }
#endif
  };

  SharedAwaiter AcquireShared() { return SharedAwaiter{this}; }
  ExclusiveAwaiter AcquireExclusive() { return ExclusiveAwaiter{this}; }

  bool write_locked() const { return writer_active_; }
  int readers() const { return readers_active_; }
  std::size_t waiting() const { return waiters_.size(); }

 private:
  friend struct SharedAwaiter;
  friend struct ExclusiveAwaiter;
  struct Waiter {
    std::coroutine_handle<> handle;
    bool writer;
  };

#if SWAPSERVE_LOCK_DEBUG
  void UnlockShared(const void* agent) {
    SWAP_CHECK_MSG(readers_active_ > 0, "unlock-shared without readers");
    sim_->lock_debug().OnReleased(this, agent);
    --readers_active_;
    Drain();
  }
  void UnlockExclusive(const void* agent) {
    SWAP_CHECK_MSG(writer_active_, "unlock-exclusive without writer");
    sim_->lock_debug().OnReleased(this, agent);
    writer_active_ = false;
    Drain();
  }
#else
  void UnlockShared() {
    SWAP_CHECK_MSG(readers_active_ > 0, "unlock-shared without readers");
    --readers_active_;
    Drain();
  }
  void UnlockExclusive() {
    SWAP_CHECK_MSG(writer_active_, "unlock-exclusive without writer");
    writer_active_ = false;
    Drain();
  }
#endif
  void Drain() {
    // Strict FIFO: grant a leading writer alone, or a run of readers up to
    // the next queued writer.
    while (!waiters_.empty()) {
      const Waiter& front = waiters_.front();
      if (front.writer) {
        if (writer_active_ || readers_active_ > 0) break;
        writer_active_ = true;
#if SWAPSERVE_LOCK_DEBUG
        sim_->lock_debug().OnGranted(this, front.handle.address());
#endif
        sim_->Post(front.handle);
        waiters_.pop_front();
        break;
      }
      if (writer_active_) break;
      ++readers_active_;
#if SWAPSERVE_LOCK_DEBUG
      sim_->lock_debug().OnGranted(this, front.handle.address());
#endif
      sim_->Post(front.handle);
      waiters_.pop_front();
    }
  }

  Simulation* sim_;
  bool writer_active_ = false;
  int readers_active_ = 0;
  SmallRing<Waiter> waiters_;
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
