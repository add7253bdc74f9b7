#!/usr/bin/env bash
# How bench_e2e's peak RSS grows with the number of requests.
#
#   scripts/rss_per_request.sh <workload> [bench_e2e args...]
#
# Writes three variants of bench/e2e/workloads/<workload>.json under
# build/rss_per_request/, with bench.horizon_s at 1/4, 1 and 4 times the
# original (and bench.name suffixed, so their results land beside the
# workload's in build/e2e/out/), builds bench_e2e as bench/e2e/run.sh does,
# runs each variant once untraced (--reps 1 --trace 0, seed 1 unless an
# argument overrides it) and prints, per variant, the requests sent and
# peak_rss_mib, then the bytes of peak RSS per extra request between
# consecutive horizons: (rss_b - rss_a) / (requests_b - requests_a). A store
# that grows with the run shows up as a constant per-request cost; one that
# does not, as a number near 0.
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 <workload> [bench_e2e args...]" >&2
  exit 2
fi
workload="$1"
shift
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
source="$root/bench/e2e/workloads/$workload.json"
if [[ ! -f "$source" ]]; then
  echo "$0: no workload file $source" >&2
  exit 2
fi
out="$root/build/rss_per_request"
mkdir -p "$out"

build="$root/build/e2e"
{
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S "$root/bench/e2e" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  fi
  cmake --build "$build" -j "$(nproc)"
} >&2
bench_e2e="$build/bench_e2e"

results="$out/$workload.results"
: > "$results"
for scale in 0.25 1 4; do
  variant="$out/$workload-h$scale.json"
  python3 - "$source" "$variant" "$scale" <<'EOF'
import json, sys
source, variant, scale = sys.argv[1], sys.argv[2], float(sys.argv[3])
with open(source) as f:
    spec = json.load(f)
spec["bench"]["horizon_s"] *= scale
spec["bench"]["name"] += "-h" + sys.argv[3]
with open(variant, "w") as f:
    json.dump(spec, f, indent=2)
EOF
  echo "running $workload at ${scale}x horizon" >&2
  # The last line of bench_e2e's stdout is its JSON result.
  line="$("$bench_e2e" --workload "$variant" --seed 1 "$@" --reps 1 \
            --seconds 0 --trace 0 | tail -n 1)"
  echo "$scale $line" >> "$results"
done

python3 - "$workload" "$results" <<'EOF'
import json, sys
workload, results = sys.argv[1], sys.argv[2]
rows = []
with open(results) as f:
    for line in f:
        scale, doc = line.split(" ", 1)
        doc = json.loads(doc)
        if not doc["correct"]:
            sys.exit(f"{workload} at {scale}x: bench_e2e output checks failed")
        rows.append((scale, doc["attempted"],
                     doc["metrics"]["peak_rss_mib"]["value"]))
print(f"{workload}: peak RSS against requests (untraced, one rep)")
print(f"  {'horizon':>8} {'requests':>10} {'peak_rss_mib':>13}")
for scale, requests, rss in rows:
    print(f"  {scale + 'x':>8} {requests:>10.0f} {rss:>13.2f}")
for (sa, ra, ma), (sb, rb, mb) in zip(rows, rows[1:]):
    per_request = (mb - ma) * 2**20 / (rb - ra)
    print(f"  {sa}x -> {sb}x: {per_request:.1f} bytes per request")
EOF
