#!/usr/bin/env bash
# How often bench_e2e's run window calls the heap allocator, and from where.
#
#   scripts/alloc_e2e.sh <workload> [bench_e2e args...]
#
# Builds bench_e2e into build/e2e/ (as bench/e2e/run.sh does) and the
# LD_PRELOAD allocation counter in tools/alloccount/, runs one untraced
# bench_e2e invocation under it, and one traced rep without it for the
# per-rep swap-in count. It symbolizes every recorded allocation stack with
# `addr2line -i` (inlined frames included; scripts/symbolize.py names a
# frame the debug info leaves bare, such as a coroutine body, Name@file)
# and prints:
#   - heap allocations per rep, over the whole rep and over its run window
#     (every allocation with sim::Simulation::Run on its stack);
#   - the run window's allocations per request, and per swap-in net of
#     one allocation per request (the request's response channel; the
#     gross figure follows in parentheses);
#   - the top allocating call sites in the run window: the innermost
#     function in namespace swapserve, and the swapserve function that
#     called it.
# Defaults: --seed 1 --seconds 0 --reps 3 --trace 0 (later arguments
# override them). Environment: ALLOCCOUNT_EVERY (record the stack of one
# allocation in N, default 1: every one; counts are scaled back by N),
# ALLOC_TOP (call sites listed, default 25). The raw stacks stay in
# build/alloccount/<workload>.txt. Not a gate: a tool for finding where a
# layer allocates.
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: scripts/alloc_e2e.sh <workload> [bench_e2e args...]" >&2
  exit 2
fi
workload="$1"
shift

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
source "$root/scripts/e2e_tool.sh"
out_dir="$root/build/alloccount"
shim="$out_dir/alloccount.so"
build_e2e_tool "$root/tools/alloccount/alloccount.c" "$shim"

stacks="$out_dir/$workload.txt"
log="$out_dir/$workload.log"
ALLOCCOUNT_OUT="$stacks" LD_PRELOAD="$shim" "$bench_e2e" \
  --workload "$workload" --seed 1 --seconds 0 --reps 3 --trace 0 "$@" >"$log"
# The traced rep writes its artefacts into the working directory.
traced_dir="$(mktemp -d)"
trap 'rm -rf "$traced_dir"' EXIT
(cd "$traced_dir" && "$bench_e2e" --workload "$workload" --seed 1 \
  --seconds 0 "$@" --reps 1 --trace 1 >"$out_dir/$workload.traced.log")

PYTHONPATH="$root/scripts" python3 - "$stacks" "$log" \
  "$out_dir/$workload.traced.log" "${ALLOC_TOP:-25}" <<'PY'
import collections
import json
import re
import sys

from symbolize import qualified, read_dump, symbolize, under_run

path, log, traced_log, top = sys.argv[1], sys.argv[2], sys.argv[3], \
    int(sys.argv[4])
maps, header, rows = read_dump(path)
fields = dict(kv.split("=") for kv in header.split())
total, every = int(fields["total"]), int(fields["every"])
dropped = int(fields["dropped"])
counts = [int(row[0]) for row in rows]
chains = symbolize(maps, [[int(v, 16) for v in row[1:]] for row in rows])

reps = 0
sent = 0
with open(log) as f:
    for line in f:
        m = re.match(r"\s*rep \d+:.* (\d+) sent", line)
        if m:
            reps += 1
            sent = int(m.group(1))
swap_ins = 0
with open(traced_log) as f:
    for line in f:
        if line.startswith("{"):
            metrics = json.loads(line)["metrics"]
            swap_ins = int(metrics.get("ckpt.swap_ins", {}).get("value", 0))


def Site(chain):
    """(innermost swapserve function, the swapserve function above it)."""
    own = [q for q in (qualified(fn) for fn in chain)
           if q.startswith("swapserve::")]
    # Drop a function's own recursion/inlined repeats of the same name.
    dedup = [q for i, q in enumerate(own) if i == 0 or q != own[i - 1]]
    if not dedup:
        return (qualified(chain[0]) if chain else "??"), ""
    return dedup[0], dedup[1] if len(dedup) > 1 else ""


run_total = 0
sites = collections.Counter()
for count, chain in zip(counts, chains):
    if not under_run(chain):
        continue
    run_total += count * every
    sites[Site([fn for fn, _ in chain])] += count * every

reps = max(reps, 1)
per_rep = total / reps
run_per_rep = run_total / reps
approx = "" if every == 1 else "~"
print(f"heap allocations: {total} over {reps} rep(s): {per_rep:,.0f} per rep, "
      f"{approx}{run_per_rep:,.0f} of them in the run window"
      + (f" (stacks recorded for 1 in {every})" if every > 1 else "")
      + (f"; {dropped} recorded stacks did not fit the table" if dropped
         else ""))
if sent:
    print(f"  per request: {run_per_rep / sent:.2f} "
          f"({sent} requests per rep)")
if swap_ins:
    # A request's response channel is its one allocation on the request
    # path; what is left over is the swap path's.
    net = max(run_per_rep - sent, 0) / swap_ins
    print(f"  per swap-in: {net:.2f} net of one per request "
          f"({run_per_rep / swap_ins:.2f} gross; {swap_ins} swap-ins per "
          f"rep)")
if run_total:
    print(f"\ntop {top} allocating call sites in the run window "
          f"(allocations per rep, share)")
    for (site, caller), n in sites.most_common(top):
        print(f"  {n / reps:10,.0f}  {100.0 * n / run_total:5.1f} %  {site}"
              + (f"  <- {caller}" if caller else ""))
PY
