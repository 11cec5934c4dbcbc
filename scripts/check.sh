#!/usr/bin/env bash
# Pre-land check. Every lane is a ctest label: `--lane <label>` builds the
# tree the lane needs and runs `ctest -C <label> -L <label>` in it, i.e.
# every test and bench smoke carrying the label (tests/CMakeLists.txt
# declares and describes the lanes). With no arguments it runs what CI runs:
# the tier1, chaos, asan, tsan and bench lanes, then clang-tidy.
#
#   scripts/check.sh                 # everything; run it before pushing
#   scripts/check.sh --lane tier1    # tier-1 tests + bench smokes
#   scripts/check.sh --lane chaos    # wide DST chaos sweep
#   scripts/check.sh --lane asan     # tier-1 under ASan/UBSan
#   scripts/check.sh --lane tsan     # concurrency battery under TSan
#   scripts/check.sh --lane bench    # `python3 configbench/run.py --smoke`
#   scripts/check.sh --lane differential   # also: semdiff, invariants, scale
#
# The bench lane is the benchmark's smoke: every configbench workload at a
# small size, where traced and untraced runs must agree and pass every
# oracle and a perturbed run must fail. run.py builds configbench's own
# Release tree (.bench_build/) from this checkout, so the lane catches a
# src/ change that breaks what the benchmark uses.
#
# The build tree follows from the lane's name: asan builds build-asan/ and
# tsan builds build-tsan/ (TSan cannot share a tree with ASan); every other
# lane uses build/.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

run_lane() {
  local lane="$1" dir=build sanitize=""
  case "$lane" in
    asan) dir=build-asan sanitize="address;undefined" ;;
    tsan) dir=build-tsan sanitize="thread" ;;
  esac
  echo "==> $lane: configure + build ($dir)"
  cmake -B "$dir" -S . -DCONFIGERATOR_SANITIZE="$sanitize" >/dev/null
  cmake --build "$dir" -j "$JOBS"
  echo "==> $lane: ctest -C $lane -L $lane"
  ctest --test-dir "$dir" -C "$lane" -L "^${lane}\$" --no-tests=error \
    --output-on-failure
}

if [[ $# -eq 0 ]]; then
  for lane in tier1 chaos asan tsan bench; do
    run_lane "$lane"
  done
  echo "==> clang-tidy"
  cmake --build build --target lint
  echo "==> all checks passed"
elif [[ $# -eq 2 && "$1" == "--lane" ]]; then
  run_lane "$2"
  echo "==> lane $2 passed"
else
  echo "usage: scripts/check.sh [--lane <label>]" >&2
  exit 2
fi
