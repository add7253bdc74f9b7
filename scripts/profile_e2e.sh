#!/usr/bin/env bash
# Where bench_e2e's wall time goes, by layer and by owning function.
#
#   scripts/profile_e2e.sh <workload> [bench_e2e args...]
#
# Builds bench_e2e into build/e2e/ (as bench/e2e/run.sh does) and the SIGPROF
# sampler in tools/sigprof/, runs one untraced bench_e2e invocation under
# LD_PRELOAD, symbolizes every sampled return address with `addr2line -i`
# (inlined frames included) and prints, over the run window:
#   - the self share of each swapserve::<layer>: a sample is charged to the
#     innermost frame, inlined or not, in namespace swapserve (src/util's
#     types sit directly in swapserve and count as util);
#   - the string-work share: samples whose frames below that owner include
#     std::string code or a string-keyed std::map/_Rb_tree walk (copies,
#     compares, and the allocations they make);
#   - the top owning functions, with their string-work part;
# and, over the setup window, its top owning functions.
# The run window is every sample under sim::Simulation::Run; the fleet's
# Initialize runs there too, but is a few hundred events of the run's
# hundreds of thousands. The setup window is every other sample: mostly
# input generation (workload.gen_s: the arrival trace, request bodies),
# then config parsing and the result report.
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
out_dir="$root/build/sigprof"
mkdir -p "$out_dir"
sampler="$out_dir/sampler.so"
cc -O2 -shared -fPIC -o "$sampler" "$root/tools/sigprof/sampler.c"
build="$root/build/e2e"
{
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S "$root/bench/e2e" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  fi
  cmake --build "$build" -j "$(nproc)"
} >&2
bin="$build/bench_e2e"

samples="$out_dir/$workload.txt"
SIGPROF_OUT="$samples" LD_PRELOAD="$sampler" "$bin" --workload "$workload" \
  --seed 1 --seconds 0 --reps 16 --trace 0 "$@" >"$out_dir/$workload.log"

python3 - "$samples" "${PROFILE_TOP:-25}" <<'PY'
import collections
import re
import subprocess
import sys

path, top = sys.argv[1], int(sys.argv[2])
maps, samples = [], []
with open(path) as f:
    section = None
    for line in f:
        if line.startswith("# maps"):
            section = "maps"
            continue
        if line.startswith("# samples"):
            section = "samples"
            continue
        if section == "maps":
            parts = line.split()
            if len(parts) >= 6 and "x" in parts[1]:
                lo, hi = (int(v, 16) for v in parts[0].split("-"))
                maps.append((lo, hi, int(parts[2], 16), parts[5]))
        elif section == "samples" and line.strip():
            samples.append([int(v, 16) for v in line.split()])


def is_pie(module, cache={}):
    if module not in cache:
        with open(module, "rb") as elf:
            header = elf.read(18)
        cache[module] = header[16] == 3  # ET_DYN
    return cache[module]


def locate(addr):
    for lo, hi, offset, module in maps:
        if lo <= addr < hi:
            return module, (addr - lo + offset) if is_pie(module) else addr
    return None, addr


# Every frame above the interrupted PC is a return address: look up the
# call instruction before it.
by_module = collections.defaultdict(set)
located = []
for sample in samples:
    frames = []
    for depth, addr in enumerate(sample):
        module, rel = locate(addr if depth == 0 else addr - 1)
        frames.append((module, rel))
        if module is not None:
            by_module[module].add(rel)
    located.append(frames)

names = {}  # (module, rel) -> [function, ...] innermost inline level first
for module, rels in by_module.items():
    rels = sorted(rels)
    proc = subprocess.run(
        ["addr2line", "-a", "-i", "-f", "-C", "-e", module],
        input="\n".join(hex(r) for r in rels), capture_output=True,
        text=True, check=True)
    current, chain, expect_name = None, [], True
    for line in proc.stdout.splitlines():
        if line.startswith("0x") and expect_name:
            if current is not None:
                names[(module, current)] = chain
            current, chain = int(line, 16), []
            continue
        if expect_name:
            chain.append(line)
        expect_name = not expect_name
    if current is not None:
        names[(module, current)] = chain

OPERATORS = re.compile(r"operator(<=>|<<=|>>=|<<|>>|<=|>=|->\*|->|<|>|\(\))")


def qualified(function):
    """The function's own qualified name: templates, parameter lists and
    return type dropped."""
    s = OPERATORS.sub("operator", function).split(" [clone")[0]
    out, angle, paren = [], 0, 0
    for ch in s:
        if ch == "<":
            angle += 1
        elif ch == ">" and angle:
            angle -= 1
        elif ch == "(":
            paren += 1
        elif ch == ")" and paren:
            paren -= 1
        elif not angle and not paren:
            out.append(ch)
    tokens = [t for t in "".join(out).split() if "::" in t]
    return tokens[-1] if tokens else function


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


total = len(located)
run = 0
layer_self = collections.Counter()
owner_self = collections.Counter()
owner_string = collections.Counter()
setup_self = collections.Counter()
string_total = 0
for frames in located:
    chain = []
    for key in frames:
        chain.extend(names.get(key, ["??"]))
    owner, below = Owner(chain)
    if not any("swapserve::sim::Simulation::Run(" in fn for fn in chain):
        setup_self[owner] += 1
        continue
    run += 1
    layer = Layer(owner) if owner.startswith("swapserve::") else \
        "(outside swapserve)"
    layer_self[layer] += 1
    owner_self[owner] += 1
    if any(STRING.search(fn) for fn in below):
        string_total += 1
        owner_string[owner] += 1

setup = total - run
print(f"samples: {total} total, {run} in the run window "
      f"({100.0 * run / max(total, 1):.1f} %), {setup} in the setup window")
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
if setup:
    print(f"\nsetup window: top {top} owning functions (share of the "
          f"setup window's {setup} samples)")
    for owner, n in setup_self.most_common(top):
        print(f"  {100.0 * n / setup:5.1f} %  ({n})  {owner}")
PY
