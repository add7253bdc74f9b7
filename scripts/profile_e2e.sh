#!/usr/bin/env bash
# Where bench_e2e's wall time goes, by layer and by owning function.
#
#   scripts/profile_e2e.sh <workload> [bench_e2e args...]
#
# Builds bench_e2e into build/e2e/ (as bench/e2e/run.sh does) and the SIGPROF
# sampler in tools/sigprof/, runs one untraced bench_e2e invocation under
# LD_PRELOAD, symbolizes every sampled return address with `addr2line -i`
# (inlined frames included; scripts/symbolize.py names a frame the debug
# info leaves bare, such as a coroutine body, Name@file) and prints, over
# the run window:
#   - the self share of each swapserve::<layer>: a sample is charged to the
#     innermost frame, inlined or not, in namespace swapserve (src/util's
#     types sit directly in swapserve and count as util);
#   - the string-work share: samples whose frames below that owner include
#     std::string code or a string-keyed std::map/_Rb_tree walk (copies,
#     compares, and the allocations they make);
#   - the top owning functions, with their string-work part;
# and the top owning functions of the setup and report windows. Last, from
# the RSS high-water mark (ru_maxrss) the sampler records with each sample,
# how much it rose in each rep's setup, run and report window, and the
# window where it reached its final value (bench_e2e's peak_rss_mib).
# Each rep (e2e::RunRep) sets up, runs and reports:
#   - run: every sample under sim::Simulation::Run. The fleet's Initialize
#     runs there too, but is a few hundred events of the run's hundreds of
#     thousands.
#   - setup: RunRep before the run: config parsing, input generation
#     (workload.gen_s: the arrival trace, request bodies) and
#     construction. bench_e2e's setup_s times this window (plus
#     Initialize).
#   - report: RunRep after the run: the output checks, the simulated
#     metrics (their percentile sorts), the traced export and the
#     teardown of the rep's fleet. No wall metric times it.
# Samples are in time order, so between two runs lie one rep's report and
# the next rep's setup. The report ends with the last of them taken at a
# RunRep line after the run's: a callee inlined into RunRep may report its
# own line, so the line alone cannot place every sample. Samples outside
# any rep (argument parsing, the final JSON) are only counted.
#
# Defaults: --seed 1 --seconds 0 --reps 16 --trace 0 (later arguments
# override them). Environment: SIGPROF_HZ (samples per CPU second, default
# 1000), PROFILE_TOP (functions listed, default 25). The raw samples stay in
# build/sigprof/<workload>.txt.
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: scripts/profile_e2e.sh <workload> [bench_e2e args...]" >&2
  exit 2
fi
workload="$1"
shift

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
source "$root/scripts/e2e_tool.sh"
out_dir="$root/build/sigprof"
sampler="$out_dir/sampler.so"
build_e2e_tool "$root/tools/sigprof/sampler.c" "$sampler"

samples="$out_dir/$workload.txt"
SIGPROF_OUT="$samples" LD_PRELOAD="$sampler" "$bench_e2e" \
  --workload "$workload" --seed 1 --seconds 0 --reps 16 --trace 0 "$@" \
  >"$out_dir/$workload.log"

PYTHONPATH="$root/scripts" python3 - "$samples" "${PROFILE_TOP:-25}" <<'PY'
import collections
import re
import sys

from symbolize import qualified, read_dump, symbolize, under_run

path, top = sys.argv[1], int(sys.argv[2])
maps, _, rows = read_dump(path)
# Each row: the RSS high-water mark in KiB, then the PC and the stack.
max_rss = [int(row[0]) for row in rows]
chains = symbolize(maps, [[int(v, 16) for v in row[1:]] for row in rows],
                   pc_first=True)


def Layer(owner):
    """swapserve::<layer>::...; src/util declares straight into namespace
    swapserve (Status, Samples, ...)."""
    parts = owner.split("::")
    return parts[1] if len(parts) > 2 and parts[1][:1].islower() else "util"


STRING = re.compile(r"basic_string|char_traits")

def Owner(chain):
    """(owner, frames below it): the innermost frame in namespace swapserve,
    else the innermost frame."""
    below = []
    for fn in chain:
        q = qualified(fn)
        if q.startswith("swapserve::"):
            return q, below
        below.append(fn)
    return (qualified(below[0]) if below else "??"), below


REP = "swapserve::bench::e2e::RunRep"


def RepLine(frames):
    """The line of e2e::RunRep this sample was taken under, or None."""
    for fn, line in frames:
        if qualified(fn) == REP:
            return line
    return None


in_run = [under_run(chain) for chain in chains]
# The sim.Run() call: the RunRep line the run window's samples share.
run_lines = collections.Counter(
    RepLine(chain) for chain, run in zip(chains, in_run) if run)
run_line = run_lines.most_common(1)[0][0] if run_lines else None

# Walk back from the end: after the last run comes its rep's report; the
# samples before a run are its rep's setup, back to the previous rep's
# last sample taken at a RunRep line after the run's.
windows = []
window = "report"
for chain, is_run in zip(reversed(chains), reversed(in_run)):
    line = RepLine(chain)
    if is_run:
        window = "setup"
    elif line is not None and run_line is not None and line > run_line:
        window = "report"
    windows.append("run" if is_run else "outside" if line is None else window)
windows.reverse()

total = len(chains)
run = 0
outside = 0
layer_self = collections.Counter()
owner_self = collections.Counter()
owner_string = collections.Counter()
window_self = {"setup": collections.Counter(),
               "report": collections.Counter()}
string_total = 0
for chain, window in zip(chains, windows):
    owner, below = Owner([fn for fn, _ in chain])
    if window == "outside":
        outside += 1
        continue
    if window != "run":
        window_self[window][owner] += 1
        continue
    run += 1
    layer = Layer(owner) if owner.startswith("swapserve::") else \
        "(outside swapserve)"
    layer_self[layer] += 1
    owner_self[owner] += 1
    if any(STRING.search(fn) for fn in below):
        string_total += 1
        owner_string[owner] += 1

setup = sum(window_self["setup"].values())
report = sum(window_self["report"].values())
print(f"samples: {total} total, {run} in the run window "
      f"({100.0 * run / max(total, 1):.1f} %), {setup} in the setup window, "
      f"{report} in the report window, {outside} outside any rep")
if run:
    print("\nrun-window self share by layer")
    for layer, n in layer_self.most_common():
        print(f"  swapserve::{layer:<22} {100.0 * n / run:6.1f} %  ({n})"
              if not layer.startswith("(") else
              f"  {layer:<33} {100.0 * n / run:6.1f} %  ({n})")
    print(f"\nstring work (std::string code or string-keyed map walks below "
          f"the owner): {100.0 * string_total / run:.1f} % ({string_total})")
    print(f"\ntop {top} owning functions (self share, string-work part)")
    for owner, n in owner_self.most_common(top):
        print(f"  {100.0 * n / run:5.1f} %  "
              f"{100.0 * owner_string[owner] / run:5.1f} %  {owner}")
for window, counts in window_self.items():
    n_window = sum(counts.values())
    if not n_window:
        continue
    print(f"\n{window} window: top {top} owning functions (share of the "
          f"{window} window's {n_window} samples)")
    for owner, n in counts.most_common(top):
        print(f"  {100.0 * n / n_window:5.1f} %  ({n})  {owner}")

# The high-water mark only rises. A rise between two samples is charged to
# the later sample's window, so a window's figure can include the end of
# the window before it (at most one sampling interval of CPU time).
rises = []  # per rep: KiB by window
rep_of = []  # each sample's rep (-1: before the first rep)
outside_rise = 0
previous_kib = max_rss[0] if max_rss else 0
previous_window = None
for window, kib in zip(windows, max_rss):
    if (window == "setup" and previous_window != "setup") or \
            (window == "run" and previous_window not in ("setup", "run")):
        rises.append(collections.Counter())
    rep_of.append(len(rises) - 1)
    if window == "outside" or not rises:
        outside_rise += kib - previous_kib
    else:
        rises[-1][window] += kib - previous_kib
    previous_kib = kib
    previous_window = window
if max_rss:
    peak = max(max_rss)
    at = max_rss.index(peak)
    where = (f"rep {rep_of[at] + 1}'s {windows[at]} window"
             if windows[at] != "outside" and rep_of[at] >= 0
             else "outside any rep")
    mib = 1024.0
    print(f"\nRSS high-water mark {peak / mib:.1f} MiB, reached in {where}")
    print(f"  rise in MiB   {'setup':>7} {'run':>7} {'report':>7}")
    for rep, rise in enumerate(rises):
        print(f"  rep {rep + 1:<9} " + " ".join(
            f"{rise[w] / mib:7.2f}" for w in ("setup", "run", "report")))
    print(f"  at the first sample {max_rss[0] / mib:.2f}, outside any rep "
          f"{outside_rise / mib:.2f}")
PY
