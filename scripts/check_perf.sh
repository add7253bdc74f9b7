#!/usr/bin/env bash
# Perf regression gate for the two checked-in micro baselines:
#
#   BENCH_sim_core.json       bench_sim_micro: event-core events/sec
#                             (higher is better)
#   BENCH_request_plane.json  bench_request_plane: µs and heap allocations
#                             per request (lower is better)
#
# Both go through one comparison routine. It fails when a baseline "post"
# timing regresses past the baseline's regression_gate_pct, when a
# speedup_floor is missed (`parse`: in-situ parse over DOM parse), or when
# an alloc_ceiling is exceeded. Wall-clock numbers drift run-to-run on
# shared machines, so one slow sample is not a regression: each bench runs
# up to 3 times and is gated on the per-metric best, stopping once it
# passes.
#
# Usage: scripts/check_perf.sh [--update] [build-dir]
#   --update rewrites each baseline's "post" block from one fresh run, and
#   the speedups vs the recorded "pre" numbers; commit the result.
#
# Registered as `ctest -L perf` when configured with
# -DSWAPSERVE_PERF_CHECKS=ON (off by default: wall-clock gates belong in a
# quiet environment, not the tier-1 suite).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="build"
UPDATE=0
for arg in "$@"; do
  case "$arg" in
    --update) UPDATE=1 ;;
    *) BUILD_DIR="$arg" ;;
  esac
done

if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
  cmake --preset default >/dev/null
fi
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target bench_sim_micro bench_request_plane

run_sim_core() {
  SWAPSERVE_BENCH_JSON="$1" "$BUILD_DIR/bench/bench_sim_micro" \
    --benchmark_filter='BM_EventQueueThroughput|BM_CoroutineSpawnDelay|BM_PostThroughput|BM_WaitUntil|BM_MutexUncontended|BM_MutexHandoff|BM_ChannelPingPong' \
    --benchmark_min_time=0.5
}

run_request_plane() {
  SWAPSERVE_BENCH_JSON="$1" "$BUILD_DIR/bench/bench_request_plane"
}

# argv: mode (update|gate) sample merged baseline block better attempt
COMPARE=$(cat <<'PY'
import json, os, sys

mode, sample_path, merged_path, baseline_path, block, better, attempt = (
    sys.argv[1:8])
lower = better == "lower"
sample = json.load(open(sample_path))[block]
baseline = json.load(open(baseline_path))

if mode == "update":
    # Integral events/sec; four decimals for µs and allocation counts.
    post = {k: round(v, 4) if lower else round(v)
            for k, v in sorted(sample.items())}
    baseline["post"] = post
    pre = baseline.get("pre", {})
    baseline.setdefault("speedup_vs_pre", {}).update({
        k.removesuffix("_us"):
            round(pre[k] / post[k] if lower else post[k] / pre[k], 2)
        for k in pre if post.get(k) and not k.endswith("_allocs")})
    json.dump(baseline, open(baseline_path, "w"), indent=2)
    print(f"perf: baseline {baseline_path} updated")
    sys.exit(0)

best = min if lower else max
merged = {}
if os.path.exists(merged_path):
    merged = json.load(open(merged_path))[block]
for name, value in sample.items():
    merged[name] = best(value, merged.get(name, value))
json.dump({block: merged}, open(merged_path, "w"), indent=2)

tolerance = baseline["regression_gate_pct"] / 100.0
failures = []
for name, expected in baseline["post"].items():
    if name.endswith("_allocs"):
        continue  # allocation counts are gated by alloc_ceiling below
    got = merged.get(name)
    if got is None:
        failures.append(f"{name}: missing from current run")
    elif (got > expected * (1.0 + tolerance) if lower
          else got < expected * (1.0 - tolerance)):
        failures.append(f"{name}: {got:,.3f} is more than {tolerance:.0%} "
                        f"worse than baseline {expected:,.3f}")
    else:
        print(f"perf: {name}: {got:,.3f} vs baseline {expected:,.3f} ok")
for name, floor in baseline.get("speedup_floor", {}).items():
    got = merged[f"{name}_dom_us"] / merged[f"{name}_insitu_us"]
    if got < floor:
        failures.append(f"{name}: in-situ speedup {got:.2f}x is below the "
                        f"{floor}x floor")
    else:
        print(f"perf: {name}: in-situ {got:.2f}x vs dom (floor {floor}x) ok")
for name, ceiling in baseline.get("alloc_ceiling", {}).items():
    got = merged[name]
    if got > ceiling:
        failures.append(f"{name}: {got:.2f} allocs/request exceeds ceiling "
                        f"{ceiling}")
    else:
        print(f"perf: {name}: {got:.2f} allocs/request (ceiling {ceiling}) ok")

if failures:
    print(f"perf: {baseline_path}: attempt {attempt} fails the gate",
          file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
PY
)

# gate <bench> <baseline.json> <metric block> <higher|lower>
gate() {
  local bench="$1" baseline="$2" block="$3" better="$4"
  local current="$BUILD_DIR/${baseline%.json}_current.json"
  rm -f "$current"
  if [ "$UPDATE" = 1 ]; then
    "run_$bench" "$current" || return 1
    python3 -c "$COMPARE" update "$current" "" "$baseline" "$block" \
      "$better" 0
    return
  fi
  for attempt in 1 2 3; do
    "run_$bench" "$current.attempt" || return 1
    if python3 -c "$COMPARE" gate "$current.attempt" "$current" \
        "$baseline" "$block" "$better" "$attempt"; then
      return 0
    fi
  done
  echo "perf: $baseline REGRESSION (best of 3 attempts fails the gate)" >&2
  return 1
}

STATUS=0
gate sim_core BENCH_sim_core.json events_per_sec higher || STATUS=1
gate request_plane BENCH_request_plane.json per_request lower || STATUS=1
[ "$STATUS" -eq 0 ] && echo "perf: OK"
exit "$STATUS"
