#!/usr/bin/env bash
# Builds bench_e2e into build/e2e/ and runs it.
#
#   bench/e2e/run.sh                     every workload untraced, then traced;
#                                        one JSON result per workload lands in
#                                        build/e2e/out/<workload>.json
#   bench/e2e/run.sh --smoke             the same at 1/100 of each horizon,
#                                        one rep (a quick "still works" check)
#   bench/e2e/run.sh --workload <w> ...  one bench_e2e invocation; every
#                                        argument is passed through
#
# Suite-mode arguments (e.g. --seed 7, --seconds 10) reach every invocation.
# Build output goes to stderr so stdout carries only the benchmark's report.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build/e2e"

{
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  fi
  cmake --build "$build" -j "$(nproc)"
} >&2

bin="$build/bench_e2e"
for arg in "$@"; do
  if [[ "$arg" == "--workload" ]]; then
    exec "$bin" "$@"
  fi
done

status=0
for trace in 0 1; do
  for workload in chat-stream swap-storm fleet-diurnal year-sparse; do
    "$bin" --workload "$workload" --trace "$trace" "$@" || status=1
  done
done
exit "$status"
