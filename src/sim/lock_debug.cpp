#include "sim/lock_debug.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <sstream>

namespace swapserve::sim {

void LockDebugRegistry::Register(LockId lock, std::string_view kind,
                                 std::string_view name, int rank) {
  LockState& state = locks_[lock];
  state.kind = std::string(kind);
  state.name = name.empty() ? "<unnamed>" : std::string(name);
  state.rank = rank;
}

void LockDebugRegistry::Unregister(LockId lock) {
  auto it = locks_.find(lock);
  if (it == locks_.end()) return;
  for (AgentId agent : it->second.holders) {
    auto held = held_by_.find(agent);
    if (held == held_by_.end()) continue;
    std::erase(held->second, lock);
    if (held->second.empty()) held_by_.erase(held);
  }
  // Drop any stale waits-for edges pointing at the destroyed lock.
  for (auto wit = waiting_on_.begin(); wit != waiting_on_.end();) {
    wit = wit->second == lock ? waiting_on_.erase(wit) : std::next(wit);
  }
  locks_.erase(it);
}

const LockDebugRegistry::LockState* LockDebugRegistry::Find(
    LockId lock) const {
  auto it = locks_.find(lock);
  return it == locks_.end() ? nullptr : &it->second;
}

std::string LockDebugRegistry::Describe(LockId lock) const {
  const LockState* state = Find(lock);
  if (state == nullptr) return "<unregistered>";
  std::ostringstream os;
  os << state->kind << " \"" << state->name << '"';
  if (state->rank != kLockUnranked) os << " (rank " << state->rank << ')';
  return os.str();
}

void LockDebugRegistry::Report(const std::string& message) {
  ++violations_;
  if (handler_) {
    handler_(message);
    return;
  }
  std::cerr << "[lock-debug] " << message << '\n';
  std::abort();
}

void LockDebugRegistry::OnAcquired(LockId lock, AgentId agent) {
  LockState* state = &locks_[lock];
  state->holders.push_back(agent);
  if (agent == nullptr) return;
  std::vector<LockId>& held = held_by_[agent];
  if (state->rank != kLockUnranked) {
    for (LockId other : held) {
      const LockState* os = Find(other);
      if (os == nullptr || os->rank == kLockUnranked) continue;
      if (os->rank >= state->rank) {
        Report("lock rank violation: acquiring " + Describe(lock) +
               " while holding " + Describe(other) +
               "; ranked locks must be acquired in increasing rank order");
        break;
      }
    }
  }
  held.push_back(lock);
}

void LockDebugRegistry::OnReleased(LockId lock, AgentId agent) {
  auto it = locks_.find(lock);
  if (it != locks_.end()) {
    std::vector<AgentId>& holders = it->second.holders;
    auto pos = std::find(holders.begin(), holders.end(), agent);
    if (pos != holders.end()) holders.erase(pos);
  }
  if (agent == nullptr) return;
  auto held = held_by_.find(agent);
  if (held != held_by_.end()) {
    std::erase(held->second, lock);
    if (held->second.empty()) held_by_.erase(held);
  }
}

void LockDebugRegistry::Reattribute(LockId lock, AgentId agent) {
  if (agent == nullptr) return;
  auto it = locks_.find(lock);
  if (it != locks_.end()) {
    std::vector<AgentId>& holders = it->second.holders;
    auto pos = std::find(holders.begin(), holders.end(), agent);
    if (pos != holders.end()) *pos = nullptr;
  }
  auto held = held_by_.find(agent);
  if (held != held_by_.end()) {
    std::erase(held->second, lock);
    if (held->second.empty()) held_by_.erase(held);
  }
}

void LockDebugRegistry::OnWait(LockId lock, AgentId agent) {
  waiting_on_[agent] = lock;
  // Follow holder -> waits-on edges from `lock`. If any path reaches a lock
  // held by `agent`, this wait closes a cycle that no grant can ever break.
  std::vector<LockId> chain{lock};
  std::vector<LockId> visited{lock};
  LockId current = lock;
  while (true) {
    const LockState* state = Find(current);
    if (state == nullptr) return;
    LockId next = nullptr;
    for (AgentId holder : state->holders) {
      if (holder == nullptr) continue;
      if (holder == agent) {
        std::ostringstream os;
        os << "deadlock detected: coroutine waits on " << Describe(chain[0]);
        for (std::size_t i = 1; i < chain.size(); ++i) {
          os << "; its holder waits on " << Describe(chain[i]);
        }
        os << "; its holder is the waiting coroutine itself, which holds "
           << Describe(current) << " -- the chain can never be granted";
        Report(os.str());
        return;
      }
      auto wit = waiting_on_.find(holder);
      if (wit == waiting_on_.end()) continue;
      if (std::find(visited.begin(), visited.end(), wit->second) !=
          visited.end()) {
        continue;  // a cycle not involving `agent`: already reported when
                   // it formed, don't re-walk it forever
      }
      next = wit->second;
      break;
    }
    if (next == nullptr) return;
    chain.push_back(next);
    visited.push_back(next);
    current = next;
  }
}

void LockDebugRegistry::OnGranted(LockId lock, AgentId agent) {
  auto it = waiting_on_.find(agent);
  if (it != waiting_on_.end() && it->second == lock) waiting_on_.erase(it);
  OnAcquired(lock, agent);
}

void LockDebugRegistry::SetViolationHandler(ViolationHandler handler) {
  handler_ = std::move(handler);
}

}  // namespace swapserve::sim
