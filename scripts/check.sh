#!/usr/bin/env bash
# One entry point for every check: configure and build a
# CMakePresets.json preset, then run ctest in its tree. Exits non-zero on
# any configure, build, or test failure.
#
# Usage: scripts/check.sh <default|release|asan|tsan|ubsan|tidy>
#                         [ctest args...]
#
#   default  RelWithDebInfo, build/
#   release  Release (-O3; GCC's optimizer-driven warnings fire only here,
#            and -Werror stays on), build-release/
#   asan     Debug + address,undefined sanitizers, build-asan/
#   tsan     Debug + thread sanitizer, build-tsan/
#   ubsan    Debug + undefined sanitizer alone, plus float-cast-overflow
#            (catches UB the combined asan preset can mask, and builds
#            faster), build-ubsan/
#   tidy     clang-tidy (config: .clang-tidy) over src/ and tools/swaplint
#            with the default build's compile database; extra arguments go
#            to clang-tidy. A no-op when clang-tidy is not installed.
#
# The Debug presets also turn on the lock-debug deadlock validator for
# every lock (sim_deadlock_test runs it in every preset).
# Topic sweeps are ctest label or name filters; a filter that selects no
# test fails the run instead of passing with nothing run, e.g.
#   scripts/check.sh asan -L chaos && scripts/check.sh tsan -L chaos
#   scripts/check.sh default -L golden      # SWAPSERVE_UPDATE_GOLDEN=1 rewrites
# README.md's check matrix lists one invocation per sweep.
set -euo pipefail

cd "$(dirname "$0")/.."

PRESET="${1:-}"
case "$PRESET" in
  default) BUILD_DIR=build ;;
  release | asan | tsan | ubsan) BUILD_DIR="build-$PRESET" ;;
  tidy)
    shift
    TIDY="$(command -v clang-tidy || true)"
    if [ -z "$TIDY" ]; then
      echo "check.sh tidy: clang-tidy not installed; skipping (not a failure)"
      exit 0
    fi
    if [ ! -f build/compile_commands.json ]; then
      cmake --preset default -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    fi
    mapfile -t FILES < <(find src tools/swaplint -name '*.cpp' | sort)
    echo "check.sh tidy: linting ${#FILES[@]} files with $TIDY"
    exec "$TIDY" -p build --quiet "$@" "${FILES[@]}"
    ;;
  *)
    echo "usage: scripts/check.sh <default|release|asan|tsan|ubsan|tidy>" \
      "[ctest args...]" >&2
    exit 2
    ;;
esac
shift

cmake --preset "$PRESET" >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)"

export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:strict_string_checks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"
ctest --test-dir "$BUILD_DIR" --output-on-failure --no-tests=error \
  -j "$(nproc)" "$@"
