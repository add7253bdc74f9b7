// Deadlock validator for the sim synchronization primitives.
//
// Every SimMutex / SimRwLock registers itself here with a human-readable
// name and an optional hierarchy rank. The registry maintains a waits-for
// graph over coroutine frames: when a coroutine suspends waiting for a lock
// whose holder is itself suspended waiting for a lock the first coroutine
// holds (directly or through a chain), the wait can never be granted — the
// registry reports the full named lock chain and, by default, aborts.
//
// Scope and limitations (see DESIGN.md §10):
//  - Agents are identified by the coroutine frame that performs the
//    co_await. A chain where a lock is taken in a parent coroutine and the
//    conflicting wait happens in a callee coroutine is invisible here (the
//    frames differ); swaplint's static lock-order rule covers that shape.
//  - A guard that escapes its acquiring frame (returned to a caller) must
//    sever the frame attribution with DetachAgent() before that frame
//    dies: the allocator can hand the dead frame's address to a brand-new
//    coroutine, and a wait by that coroutine would otherwise look like a
//    self-deadlock on a lock "it" already holds. Detached holds stay
//    visible (the lock still counts as held) but are opaque: they never
//    rank-check and never extend waits-for chains.
//  - Hierarchy ranks are validated on acquisition: acquiring a ranked lock
//    while the same frame holds a lock of equal or higher rank is reported
//    even when no cycle has formed yet.
//  - The registry is compiled in every build, and every Simulation holds
//    one. The primitives call it only under `if constexpr (kLockDebug)`,
//    so builds without the validator (NDEBUG, unless SWAPSERVE_LOCK_DEBUG
//    is set) run the same lock code with those calls compiled away.
//
// The validator never changes scheduling: with it on, acquisition happens
// in `await_suspend`, returning false for the uncontended path, which
// resumes the awaiting coroutine immediately — indistinguishable from the
// `await_ready` fast path taken without it.

#pragma once

#ifndef SWAPSERVE_LOCK_DEBUG
#ifdef NDEBUG
#define SWAPSERVE_LOCK_DEBUG 0
#else
#define SWAPSERVE_LOCK_DEBUG 1
#endif
#endif

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace swapserve::sim {

// Whether the sync primitives report to the validator. Not `inline`: each
// translation unit gets its own copy, so a test that defines
// SWAPSERVE_LOCK_DEBUG differently from the library it links violates no
// one-definition rule for this constant. The sync.h lock functions do
// differ between the two settings, so such a test may link only code that
// defines none of them (swapserve_sim does not).
constexpr bool kLockDebug = SWAPSERVE_LOCK_DEBUG;

// No rank assigned; the lock participates in cycle detection only.
inline constexpr int kLockUnranked = -1;

class LockDebugRegistry {
 public:
  using LockId = const void*;    // address of the SimMutex / SimRwLock
  using AgentId = const void*;   // coroutine frame address

  // Receives a fully formatted report ("deadlock detected: ..." or
  // "lock rank violation: ..."). The default handler prints the report to
  // stderr and aborts; tests install a recording handler instead.
  using ViolationHandler = std::function<void(const std::string&)>;

  LockDebugRegistry() = default;
  LockDebugRegistry(const LockDebugRegistry&) = delete;
  LockDebugRegistry& operator=(const LockDebugRegistry&) = delete;

  void Register(LockId lock, std::string_view kind, std::string_view name,
                int rank);
  void Unregister(LockId lock);

  // `agent` now holds `lock` (the exclusive slot, or one shared slot).
  // Validates the hierarchy rank against every lock the frame already
  // holds. `agent` may be null, the opaque holder that DetachAgent leaves
  // behind: null holders never rank-check and never extend a waits-for
  // chain.
  void OnAcquired(LockId lock, AgentId agent);
  void OnReleased(LockId lock, AgentId agent);

  // Re-attribute one of `agent`'s holds on `lock` to the opaque null
  // holder. Called (via Guard::DetachAgent) when a guard is about to
  // outlive its acquiring coroutine frame, whose address may be reused.
  void Reattribute(LockId lock, AgentId agent);

  // `agent` is about to suspend waiting for `lock`. Runs cycle detection
  // over the waits-for graph and reports the named chain if this wait can
  // never be granted.
  void OnWait(LockId lock, AgentId agent);
  // The wait was granted (ownership handed over by the releasing side).
  void OnGranted(LockId lock, AgentId agent);

  void SetViolationHandler(ViolationHandler handler);
  // Violations reported since construction / the last ResetStats().
  std::uint64_t violations() const { return violations_; }
  void ResetStats() { violations_ = 0; }

 private:
  struct LockState {
    std::string kind;   // "SimMutex" / "SimRwLock"
    std::string name;
    int rank = kLockUnranked;
    std::vector<AgentId> holders;  // >1 only for shared rwlock holders
  };

  const LockState* Find(LockId lock) const;
  std::string Describe(LockId lock) const;
  void Report(const std::string& message);

  std::unordered_map<LockId, LockState> locks_;
  // A suspended coroutine waits on at most one awaitable at a time.
  std::unordered_map<AgentId, LockId> waiting_on_;
  std::unordered_map<AgentId, std::vector<LockId>> held_by_;
  ViolationHandler handler_;
  std::uint64_t violations_ = 0;
};

}  // namespace swapserve::sim
