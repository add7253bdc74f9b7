// Canonical registry of fault-point names.
//
// Every place the codebase can inject a failure is a *named fault point*:
// a `fault::Evaluate(injector, "<ns.point>", owner)` call at the site, and
// optionally a FaultRule arming it in a chaos plan. Before this registry
// those names were bare string literals spread across src/hw, src/engine,
// src/ckpt, src/cluster, and src/core/config.cpp — and a typo'd literal
// silently never fires. The registry is the single source of truth:
//
//   * Config::Validate rejects fault rules naming unregistered points
//     (IsRegisteredFaultPoint below), so a typo in a config file is a
//     startup error instead of a chaos run that quietly tests nothing.
//   * swaplint's fault-point-name rule cross-checks every "ns.point"
//     literal at Evaluate()/fires()/`point =` sites against this list, and
//     its fault-point-coverage check reports registered points no chaos
//     table arms (see tools/swaplint/lint.h).
//
// swaplint parses the initializer of kFaultPointRegistry straight out of
// this header's source text, so keep the array literal-only: no macros, no
// computed entries, one "ns.point" string per entry.
//
// What each point means (semantics live at the injection site):
//   ckpt.swap_out    checkpoint fails before the container is frozen
//   ckpt.swap_in     restore fails before any memory is re-acquired
//                    (snapshot retained — the failure is retryable)
//   snapshot.corrupt the staged snapshot's checksum is flipped at Put;
//                    detected by SnapshotStore::Verify on the next restore
//   storage.promote  an NVMe->host snapshot promotion fails at start. A
//                    DATA_LOSS-coded rule instead corrupts the promoted
//                    copy (bit rot the firmware missed — caught by the
//                    checksum, never served silently); any other code
//                    aborts the promotion and the restore falls back to a
//                    direct NVMe read
//   storage.read     an NVMe payload read (promotion or direct restore)
//                    fails before bytes move; retryable
//   hw.acquire       device memory acquisition fails (fail-only: the
//                    allocator is synchronous, stalls are ignored)
//   hw.link          the link channel wedges before a transfer (stall-only:
//                    transfers cannot fail, they only take longer)
//   engine.crash     the engine process dies at request entry
//   engine.hang      the engine stops making progress for stall_s; a
//                    crash during the stall fails the request on resume
//   engine.restart   the scheduler's restore of a crashed backend with no
//                    usable snapshot fails to come back up; repeated
//                    failures exhaust the retry budget and trip the
//                    breaker
//   cluster.fetch    a cross-node snapshot fetch fails before bytes move
//                    (retryable — the placeholder survives); a
//                    DATA_LOSS-coded rule instead lands the payload and
//                    corrupts it, caught by the restore-time checksum
//   node.crash       the whole machine powers off (owner = node name,
//                    evaluated once per heartbeat on the node's own
//                    injector); stall_s is the *outage duration* before
//                    the reboot starts, not a pre-delay
//   node.partition   a node pair's fabric path fails (owner =
//                    "nodeA:nodeB", evaluated on the lower node's
//                    injector); a failing rule blackholes the pair for
//                    stall_s, a stall-only rule degrades its bandwidth
//   node.restart     a node reboot fails to come back up; each failure
//                    waits another node_restart_s and retries, so a
//                    probability below 1 recovers eventually
//   request.admit    the admission controller sheds a request it would
//                    have admitted (owner = model; fail-only: Accept is
//                    synchronous, stalls are ignored). Only evaluated when
//                    admission control is enabled, so fault-free default
//                    configs never reach the injector from this site

#pragma once

#include <string_view>

namespace swapserve::fault {

inline constexpr std::string_view kFaultPointRegistry[] = {
    "ckpt.swap_out",
    "ckpt.swap_in",
    "snapshot.corrupt",
    "storage.promote",
    "storage.read",
    "hw.acquire",
    "hw.link",
    "engine.crash",
    "engine.hang",
    "engine.restart",
    "cluster.fetch",
    "node.crash",
    "node.partition",
    "node.restart",
    "request.admit",
};

constexpr bool IsRegisteredFaultPoint(std::string_view point) {
  for (std::string_view entry : kFaultPointRegistry) {
    if (entry == point) return true;
  }
  return false;
}

}  // namespace swapserve::fault
