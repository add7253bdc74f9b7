#!/usr/bin/env bash
# Paired end-to-end comparison of a revision against the working tree.
#
#   scripts/pair_e2e.sh <rev> <workload> [--pairs N] [--seed S]
#
# Exports <rev> (`git archive`) and the working tree (tracked and untracked,
# unignored files) into two sibling directories of equal path length under
# build/pair_e2e/ — the results directory is baked into bench_e2e as an
# absolute path, and its length moves peak RSS — and builds bench_e2e in
# each as bench/e2e/run.sh does. Then runs N pairs (default 10) of untraced
# bench_e2e reps at seed S (default 1), alternating which side runs first,
# and one traced run per side. Prints each run, then for both sides the
# median and q1-q3 of run_wall_s, setup_s and peak_rss_mib, the pairs the
# working tree won, whether the median gap exceeds the base's q1-q3 (the
# choosing-metrics rule), and sim.events_per_req, obs.export_s and
# workload.gen_s from each side's traced run.
# Build output goes to stderr.
set -euo pipefail

usage() {
  echo "usage: scripts/pair_e2e.sh <rev> <workload> [--pairs N] [--seed S]" >&2
  exit 2
}
[[ $# -ge 2 ]] || usage
rev="$1"
workload="$2"
shift 2
pairs=10
seed=1
while [[ $# -gt 0 ]]; do
  case "$1" in
    --pairs) pairs="${2:?}"; shift 2 ;;
    --seed) seed="${2:?}"; shift 2 ;;
    *) usage ;;
  esac
done

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
sha="$(git -C "$root" rev-parse --verify "$rev^{commit}")"
dir="$root/build/pair_e2e"
base="$dir/base"
work="$dir/work"

# Each side's source lands in its own directory; a build tree is reused
# while the base stays at the same commit.
{
  if [[ "$(cat "$base/.rev" 2>/dev/null)" != "$sha" ]]; then
    rm -rf "$base"
    mkdir -p "$base"
    git -C "$root" archive "$sha" | tar -x -C "$base"
    echo "$sha" > "$base/.rev"
  fi
  # The working tree's files are staged, then copied over the previous
  # export only where their content changed: a copy takes the current
  # time, so make rebuilds what it must and nothing else.
  stage="$dir/stage"
  rm -rf "$stage"
  mkdir -p "$stage" "$work"
  (cd "$root" && git ls-files -z --cached --others --exclude-standard |
     xargs -0 tar -c --ignore-failed-read) | tar -x -C "$stage"
  (cd "$work" && find . -path ./build -prune -o -type f -print) |
    while read -r f; do [[ -e "$stage/$f" ]] || rm -f "$work/$f"; done
  (cd "$stage" && find . -type f -print) | while read -r f; do
    if ! cmp -s "$stage/$f" "$work/$f"; then
      mkdir -p "$(dirname "$work/$f")"
      cp "$stage/$f" "$work/$f"
    fi
  done
  rm -rf "$stage"
  for side in "$base" "$work"; do
    if [[ ! -f "$side/build/e2e/CMakeCache.txt" ]]; then
      cmake -S "$side/bench/e2e" -B "$side/build/e2e" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
    fi
    cmake --build "$side/build/e2e" -j "$(nproc)"
  done
} >&2

# run <side dir> <trace 0|1> -> the metrics JSON line
run() {
  "$1/build/e2e/bench_e2e" --workload "$workload" --seed "$seed" \
    --trace "$2" | tail -n 1
}

results="$dir/results.tsv"
: > "$results"
for ((i = 0; i < pairs; i++)); do
  if ((i % 2 == 0)); then order="base work"; else order="work base"; fi
  for side in $order; do
    if [[ "$side" == base ]]; then path="$base"; else path="$work"; fi
    printf '%s\t%d\t%s\n' "$side" "$i" "$(run "$path" 0)" >> "$results"
  done
done
for side in base work; do
  if [[ "$side" == base ]]; then path="$base"; else path="$work"; fi
  printf '%s\ttraced\t%s\n' "$side" "$(run "$path" 1)" >> "$results"
done

python3 - "$results" "$rev" "$workload" "$seed" <<'EOF'
import json
import statistics
import sys

path, rev, workload, seed = sys.argv[1:]
runs = {"base": {}, "work": {}}
traced = {}
for line in open(path):
    side, pair, text = line.rstrip("\n").split("\t", 2)
    doc = json.loads(text)
    if not doc.get("correct", False):
        print(f"{side} run {pair}: output checks failed")
    metrics = {k: v["value"] for k, v in doc["metrics"].items()}
    if pair == "traced":
        traced[side] = metrics
    else:
        runs[side][int(pair)] = metrics

def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return statistics.median(xs), q[0], q[2]

print(f"{workload}, seed {seed}: base {rev} vs working tree, "
      f"{len(runs['base'])} alternating untraced pairs")
pairs = sorted(runs["base"])
for metric in ("run_wall_s", "setup_s", "peak_rss_mib"):
    base = [runs["base"][i][metric] for i in pairs]
    work = [runs["work"][i][metric] for i in pairs]
    print(f"\n{metric}")
    print("  runs base: " + " ".join(f"{x:.4g}" for x in base))
    print("  runs work: " + " ".join(f"{x:.4g}" for x in work))
    bm, bq1, bq3 = quartiles(base)
    wm, wq1, wq3 = quartiles(work)
    wins = sum(w < b for b, w in zip(base, work))
    change = (wm / bm - 1) * 100 if bm else 0.0
    gap = abs(bm - wm) > bq3 - bq1
    print(f"  base {bm:.4g} [q1-q3 {bq1:.4g}-{bq3:.4g}]  "
          f"work {wm:.4g} [{wq1:.4g}-{wq3:.4g}]  {change:+.1f} %")
    print(f"  work lower in {wins}/{len(pairs)} pairs; median gap "
          f"{'exceeds' if gap else 'within'} the base's q1-q3")
print()
for metric in ("sim.events_per_req", "obs.export_s", "workload.gen_s"):
    values = [traced.get(side, {}).get(metric) for side in ("base", "work")]
    print(f"{metric} (traced): base {values[0]}  work {values[1]}")
EOF
