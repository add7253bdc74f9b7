#!/usr/bin/env bash
# Coverage census: which src/ code does any bench or workload execute?
#
#   scripts/coverage_census.sh [dir]      (default dir: build-coverage/)
#
# Builds an -O0 --coverage tree of the repository's benches in <dir>/tree
# and bench/e2e's standalone project in <dir>/e2e (bench/e2e is configured
# from its own CMakeLists.txt with coverage flags; nothing under it is
# edited). Runs every figure, ablation, fault and cluster bench except the
# wall-clock bench_sim_micro, then `bench_e2e --smoke` on all four
# workloads, untraced and traced. Prints the share of executable src/ lines
# that ran and the src/ functions no run called, by file.
#
# Informational, not a gate. Counts from both trees are merged per source
# line; a function counts as called when any tree called it. An inline
# function no translation unit uses is never emitted, so it appears in
# neither count. Build and run output goes to stderr; stdout carries only
# the report. About six minutes on a 4-core x86-64 VM from an empty <dir>,
# half a minute once both trees are built.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
dir="$(realpath -m "${1:-$root/build-coverage}")"
jobs="$(nproc)"
flags="-O0 --coverage"

benches=()
while read -r name; do
  [[ "$name" == bench_sim_micro ]] || benches+=("$name")
done < <(grep -o 'swapserve_add_bench(bench_[a-z0-9_]*' \
           "$root/bench/CMakeLists.txt" | cut -d'(' -f2)

{
  cmake -S "$root" -B "$dir/tree" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="$flags" -DBUILD_TESTING=OFF -DSWAPSERVE_WERROR=OFF
  cmake --build "$dir/tree" -j "$jobs" --target "${benches[@]}"
  cmake -S "$root/bench/e2e" -B "$dir/e2e" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="$flags"
  cmake --build "$dir/e2e" -j "$jobs"
} >&2

# Counts accumulate across runs: start from zero.
find "$dir" -name '*.gcda' -delete
mkdir -p "$dir/run"
(
  cd "$dir/run"  # some benches write their trace and metrics to the cwd
  for bench in "${benches[@]}"; do
    echo "census: $bench" >&2
    SWAPSERVE_BENCH_N=1000 "$dir/tree/bench/$bench" >/dev/null
  done
  for trace in 0 1; do
    for workload in chat-stream swap-storm fleet-diurnal year-sparse; do
      echo "census: bench_e2e $workload --trace $trace" >&2
      "$dir/e2e/bench_e2e" --workload "$workload" --smoke --trace "$trace" \
        >/dev/null
    done
  done
)

# Every object is read, the benches' own included: the linker keeps one
# copy of an inline function, and its counts land in whichever object that
# copy came from.
python3 - "$root" "$dir/tree" "$dir/e2e" <<'EOF'
import json
import os
import re
import subprocess
import sys
from collections import defaultdict

root = os.path.realpath(sys.argv[1])
src = os.path.join(root, "src") + os.sep
lines = defaultdict(dict)   # file -> line -> executed
funcs = defaultdict(dict)   # file -> start line -> [name, calls]
spellings = [
    ("std::__cxx11::basic_string<char, std::char_traits<char>, "
     "std::allocator<char> >", "std::string"),
    ("std::basic_string_view<char, std::char_traits<char> >",
     "std::string_view"),
    ("[abi:cxx11]", ""),
    ("std::__n4861::", "std::"),
]

for objroot in sys.argv[2:]:
    for base, _, names in os.walk(objroot):
        for name in sorted(n for n in names if n.endswith(".gcno")):
            out = subprocess.run(
                ["gcov", "--json-format", "--stdout", name], cwd=base,
                capture_output=True, text=True, check=True).stdout
            for doc in map(json.loads, filter(None, out.splitlines())):
                cwd = doc["current_working_directory"]
                for f in doc["files"]:
                    path = os.path.realpath(os.path.join(cwd, f["file"]))
                    if not path.startswith(src):
                        continue
                    rel = os.path.relpath(path, root)
                    for ln in f["lines"]:
                        n = ln["line_number"]
                        lines[rel][n] = lines[rel].get(n, False) or \
                            ln["count"] > 0
                    for fn in f["functions"]:
                        # Coroutine clones (.actor, .destroy) share the
                        # ramp's start line; keep the plain name.
                        label = re.sub(r" \[clone [^]]*\]", "",
                                       fn["demangled_name"])
                        for long, short in spellings:
                            label = label.replace(long, short)
                        entry = funcs[rel].setdefault(fn["start_line"],
                                                      [label, 0])
                        entry[1] += fn["execution_count"]

total = sum(len(v) for v in lines.values())
ran = sum(sum(v.values()) for v in lines.values())
print(f"src/ lines executed: {ran} of {total} "
      f"({100.0 * ran / max(total, 1):.1f} %)")
print("never-called src/ functions, by file:")
for rel in sorted(funcs):
    dead = [(line, label) for line, (label, calls) in sorted(funcs[rel].items())
            if calls == 0]
    if dead:
        print(f"  {rel}")
        for line, label in dead:
            print(f"    {line:5d}  {label}")
EOF
