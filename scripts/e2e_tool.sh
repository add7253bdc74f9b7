# Sourced by scripts/profile_e2e.sh and scripts/alloc_e2e.sh.
#
#   build_e2e_tool <tool source> <shared object>
#
# Builds the LD_PRELOAD tool (tools/<tool>/<tool>.c) into the shared object,
# and bench_e2e into build/e2e/ as bench/e2e/run.sh does; sets `bench_e2e`
# to the binary. Build output goes to stderr. Expects `root`, the repo root.
build_e2e_tool() {
  mkdir -p "$(dirname "$2")"
  cc -O2 -shared -fPIC -o "$2" "$1"
  local build="$root/build/e2e"
  {
    if [[ ! -f "$build/CMakeCache.txt" ]]; then
      cmake -S "$root/bench/e2e" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo
    fi
    cmake --build "$build" -j "$(nproc)"
  } >&2
  bench_e2e="$build/bench_e2e"
}
