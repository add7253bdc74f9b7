// swaplint — project-specific static analysis for the swap-serve codebase.
//
// v1 (PR 4) shipped five token-pattern rules over a two-pass symbol index;
// v2 adds a lightweight per-function model (declarations, co_await
// suspension points, lambda captures, call sites) and three new rule
// families derived from later bug classes (see DESIGN.md §10 and §15):
//
// Coroutine lifetime:
//   coro-ref-param      Reference/pointer parameters on Task<>-returning
//                       coroutines, and borrowed views passed by value
//                       (std::string_view, std::span). A coroutine frame
//                       outlives the call expression; a reference or view
//                       parameter captured into a Spawn()ed or suspended
//                       frame dangles once the caller's frame unwinds (a
//                       use-after-free).
//   spawn-ref-capture   A sim::Spawn() lambda inside a coroutine capturing
//                       by reference ([&]/[&x]). The spawned frame is
//                       detached; if the enclosing coroutine frame is
//                       destroyed at a suspension point (node crash,
//                       cancelled swap) the captures dangle. Sites that
//                       block on a completion event before returning are
//                       the sanctioned exception — annotated, not silent.
//   stale-state-after-await
//                       A coroutine reads crashable state (engine/node
//                       status via state()/alive() or an annotated
//                       re-check helper) before a suspension point and
//                       mutates it (Mark*() transition, snapshot-handle
//                       assignment) after a later co_await without
//                       re-checking. The exact PR 8 bug shape: a node
//                       crash lands between two co_awaits of an in-flight
//                       swap and the resumed coroutine clobbers the
//                       crashed state machine.
//   borrow-across-await A `const ...Snapshot*` (or reference) taken from
//                       the snapshot store's borrowed accessor
//                       (Find/FindByOwner), or from another such borrow,
//                       used after a later co_await of the same coroutine.
//                       The store may drop or move the snapshot while the
//                       coroutine is suspended; copy it before awaiting.
//   unawaited-task      A statement-level call to a Task<>-returning
//                       function that is neither co_await-ed nor handed to
//                       Spawn(). Tasks are lazy: such a call never runs.
//   discarded-status    A statement-level call to a Status/Result-returning
//                       function whose result is dropped on the floor.
//                       `(void)call();` is treated as a deliberate discard.
//
// Fault-point registry (src/fault/fault_points.h):
//   fault-point-name    Every `"ns.point"` string literal at an injector
//                       Evaluate()/fires() call or a `point = "..."`
//                       assignment must name a registered fault point. A
//                       typo'd point silently never fires; this makes it a
//                       lint error instead.
//   fault-point-coverage
//                       Registry entries no chaos-suite file arms (only
//                       emitted when chaos tables are supplied via
//                       AddChaosFile / --coverage).
//
// Determinism (golden traces are byte-identical across runs):
//   unordered-iteration Range-for over a std::unordered_{map,set}:
//                       iteration order leaks into event order. Debug-only
//                       code (sim/lock_debug) is allowlisted.
//   nondeterministic-source
//                       std::chrono::system_clock, std::random_device,
//                       rand()/srand(): wall-clock and unseeded entropy
//                       have no place outside the seeded fault streams.
//   pointer-order       An ordered map/set keyed on a pointer type:
//                       allocator-dependent iteration order breaks run-to-
//                       run determinism.
//
// Telemetry cost (tracing that is off costs one branch):
//   eager-trace-format  std::to_string(...), .ToString() or a string
//                       concatenation with a literal inside the arguments
//                       of AddArg(), Instant() or StartSpan(). Arguments
//                       are evaluated before the recorder checks whether
//                       it is on, so these build strings on every call;
//                       pass numbers and {prefix, suffix} names instead,
//                       or guard the call with `if (span.active())`.
//
// Event cost (an idle simulated day should cost almost no events):
//   polling-loop        A `while` loop whose first statement is
//                       `co_await <x>.Delay(...)`: a fixed-cadence timer
//                       that wakes whether or not anything changed. Park
//                       on a change signal instead (the fleet heartbeat,
//                       the idle reaper) or WaitUntil() a known
//                       instant. Workload drivers under bench/ and
//                       examples/ are exempt.
//
// Lock discipline (unchanged from v1):
//   guard-across-await  A SimMutex::Guard obtained via `co_await
//                       x.Acquire()` is still live at a later co_await.
//   lock-order          Two different locks held concurrently without the
//                       name-ordered acquisition idiom shown in
//                       tests/lint/fixtures/lock_order_ok.cc.
//
// Suppression: a comment `// swaplint-ok(<rule>): <reason>` on the flagged
// line, the line above it, or (for coro-ref-param) the line declaring the
// function silences the rule at that site. Reasons are for reviewers; the
// matcher ignores them. `// swaplint-recheck(<fn>)` registers <fn> as a
// crash re-check helper for stale-state-after-await.

#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "lexer.h"

namespace swaplint {

struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

struct RuleInfo {
  std::string_view name;
  std::string_view summary;
};

// All rules, in documentation order.
const std::vector<RuleInfo>& Rules();

// The canonical fault-point registry is parsed straight out of the source
// of src/fault/fault_points.h: the string literals inside the initializer
// of the identifier `kFaultPointRegistry`. One source of truth for the
// runtime (config validation), the linter, and the coverage check.
std::vector<std::string> ExtractFaultPointNames(std::string_view content);

// Registry entries that no chaos-table source arms (mentions as a string
// literal). Order follows the registry.
std::vector<std::string> UnarmedFaultPoints(
    const std::vector<std::string>& registry,
    const std::vector<std::string_view>& chaos_contents);

// --- Baseline support (incremental adoption) -------------------------------
//
// A baseline file holds one finding key per line ("file:line: [rule]");
// blank lines and '#' comments are ignored. Findings whose key appears in
// the baseline are filtered out of the report, so a tree with known,
// not-yet-fixed findings still gates on *new* findings.

std::string BaselineKey(const Diagnostic& d);
std::string SerializeBaseline(const std::vector<Diagnostic>& diags);
std::set<std::string> ParseBaseline(std::string_view text);
// Drops baselined diagnostics in place; returns how many were dropped.
std::size_t ApplyBaseline(std::vector<Diagnostic>& diags,
                          const std::set<std::string>& baseline);

class Linter {
 public:
  // Register a file. Pass 1 (symbol index, fault-point registry, re-check
  // helper discovery) runs on every added file before any rule fires, so
  // add every file of the tree before calling Run().
  void AddFile(std::string path, std::string_view content);

  // Register a chaos-table source: not linted, only scanned for armed
  // fault points. With at least one chaos file and a discovered registry,
  // Run() emits a fault-point-coverage diagnostic per unarmed point.
  void AddChaosFile(std::string path, std::string_view content);

  // Run all rules over every added file. Diagnostics are ordered by file,
  // then line. Suppressed sites are dropped.
  std::vector<Diagnostic> Run();

 private:
  struct FileData {
    std::string path;
    LexedFile lexed;
  };
  std::vector<FileData> files_;
  std::vector<std::string> chaos_contents_;
};

// Convenience for tests: lint one in-memory file in isolation.
std::vector<Diagnostic> LintSource(std::string path, std::string_view content);

}  // namespace swaplint
