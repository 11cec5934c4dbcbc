#!/usr/bin/env bash
# Full pre-land check: tier-1 build + tests, the DST chaos sweep, ASan/UBSan
# build + tests, a TSan build + concurrency-sensitive tests, and clang-tidy.
# This is what CI runs; run it before pushing.
#
#   scripts/check.sh            # everything (chaos sweep included)
#   scripts/check.sh --fast     # tier-1 only (skip chaos, sanitizers, tidy)
#   scripts/check.sh --chaos    # tier-1 + the wide DST chaos sweep only
#   scripts/check.sh --tsan     # tier-1 + the TSan concurrency battery only
#   scripts/check.sh --semdiff  # semantic-diff smoke only: the 20-commit
#                               # scripted sequence, the 500-commit
#                               # differential battery, and a throughput run
#   scripts/check.sh --invariants
#                               # invariant-checker smoke only: the unit +
#                               # pipeline battery, the 500-commit
#                               # zero-spurious property battery, the DST
#                               # inconsistent-commit scenarios, and a
#                               # throughput run
#   scripts/check.sh --differential
#                               # every implementation-vs-oracle suite
#                               # (gatekeeper, semdiff, cached-vs-fresh CSL
#                               # compiles, calendar-queue-vs-heap scheduler)
#   scripts/check.sh --scale    # scale lane only: the 1k/10k-server
#                               # determinism-at-scale sweeps plus a 10k-server
#                               # Fig 14 propagation smoke
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
CHAOS_ONLY=0
TSAN_ONLY=0
SEMDIFF_ONLY=0
INVARIANTS_ONLY=0
DIFFERENTIAL_ONLY=0
SCALE_ONLY=0
if [[ "${1:-}" == "--fast" ]]; then
  FAST=1
elif [[ "${1:-}" == "--chaos" ]]; then
  CHAOS_ONLY=1
elif [[ "${1:-}" == "--tsan" ]]; then
  TSAN_ONLY=1
elif [[ "${1:-}" == "--semdiff" ]]; then
  SEMDIFF_ONLY=1
elif [[ "${1:-}" == "--invariants" ]]; then
  INVARIANTS_ONLY=1
elif [[ "${1:-}" == "--differential" ]]; then
  DIFFERENTIAL_ONLY=1
elif [[ "${1:-}" == "--scale" ]]; then
  SCALE_ONLY=1
fi

JOBS="$(nproc 2>/dev/null || echo 4)"

# ThreadSanitizer over the concurrency-sensitive surface: the shared-snapshot
# Gatekeeper runtime (differential + stress tests), the distribution stack,
# and the DST harness that hot-swaps gatekeeper snapshots from proxy
# callbacks. TSan must be built alone (it is incompatible with ASan).
run_tsan() {
  echo "==> tsan: configure + build (thread)"
  cmake -B build-tsan -S . -DCONFIGERATOR_SANITIZE="thread" >/dev/null
  cmake --build build-tsan -j "$JOBS"

  echo "==> tsan: gatekeeper + distribution + dst tests"
  ctest --test-dir build-tsan --output-on-failure -R \
    '^(gatekeeper_test|gatekeeper_differential_test|gatekeeper_concurrency_test|distribution_test|dst_test)$'

  echo "==> tsan: fig15 2-thread churn smoke"
  (cd build-tsan/bench && ./fig15_gatekeeper_throughput --mt_smoke)
}

echo "==> tier-1: configure + build"
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"

if [[ "$SEMDIFF_ONLY" == "1" ]]; then
  echo "==> semdiff: scripted 20-commit sequence + 500-commit differential battery"
  ctest --test-dir build --output-on-failure -R \
    '^(semdiff_test|semdiff_differential_test)$'
  echo "==> semdiff: throughput smoke (writes BENCH_semdiff.json)"
  (cd build/bench && ./semdiff_throughput >/dev/null)
  echo "==> done (semdiff mode: full tier-1, chaos, sanitizers and clang-tidy skipped)"
  exit 0
fi

if [[ "$INVARIANTS_ONLY" == "1" ]]; then
  echo "==> invariants: unit + pipeline battery, zero-spurious property battery"
  ctest --test-dir build --output-on-failure -R \
    '^(invariant_test|invariant_property_test)$'
  echo "==> invariants: DST inconsistent-commit gate + bypass scenarios"
  (cd build/tests && ./dst_test --gtest_filter='*InconsistentCommit*')
  echo "==> invariants: throughput smoke (writes BENCH_invariants.json)"
  (cd build/bench && ./invariant_throughput >/dev/null)
  echo "==> done (invariants mode: full tier-1, chaos, sanitizers and clang-tidy skipped)"
  exit 0
fi

if [[ "$DIFFERENTIAL_ONLY" == "1" ]]; then
  echo "==> differential: gatekeeper + semdiff + CSL cache + scheduler batteries"
  ctest --test-dir build --output-on-failure -L differential
  echo "==> done (differential mode: full tier-1, chaos, sanitizers and clang-tidy skipped)"
  exit 0
fi

if [[ "$SCALE_ONLY" == "1" ]]; then
  echo "==> scale: tier-1 smoke (1k replay + stride equivalence)"
  ctest --test-dir build --output-on-failure -R '^scale_test$'
  echo "==> scale: 10-seed determinism sweeps at 1k and 10k servers"
  ctest --test-dir build -C scale -L scale --output-on-failure
  echo "==> scale: scheduler differential battery"
  ctest --test-dir build --output-on-failure -R '^sim_differential_test$'
  echo "==> scale: Fig 14 propagation smoke at 10k servers"
  (cd build/bench && ./fig14_scale --smoke)
  echo "==> done (scale mode: full tier-1, chaos, sanitizers and clang-tidy skipped)"
  exit 0
fi

echo "==> tier-1: ctest"
ctest --test-dir build --output-on-failure

echo "==> bench smoke: propagation trace (span-derived per-hop latencies)"
(cd build/bench && ./propagation_trace --commits=25 >/dev/null)

echo "==> bench smoke: fig15 2-thread shared-snapshot churn"
(cd build/bench && ./fig15_gatekeeper_throughput --mt_smoke)

if [[ "$TSAN_ONLY" == "1" ]]; then
  run_tsan
  echo "==> done (tsan mode: chaos, asan and clang-tidy skipped)"
  exit 0
fi

if [[ "$FAST" == "1" ]]; then
  echo "==> done (fast mode: chaos, sanitizers and clang-tidy skipped)"
  exit 0
fi

echo "==> chaos: DST wide-seed fault-injection sweep"
ctest --test-dir build -C chaos -L chaos --output-on-failure

if [[ "$CHAOS_ONLY" == "1" ]]; then
  echo "==> done (chaos mode: sanitizers and clang-tidy skipped)"
  exit 0
fi

echo "==> sanitized: configure + build (address;undefined)"
cmake -B build-asan -S . -DCONFIGERATOR_SANITIZE="address;undefined" >/dev/null
cmake --build build-asan -j "$JOBS"

echo "==> sanitized: ctest"
ctest --test-dir build-asan --output-on-failure

echo "==> sanitized: invariant throughput (ddmin shrink under ASan/UBSan)"
(cd build-asan/bench && ./invariant_throughput >/dev/null)

run_tsan

echo "==> clang-tidy"
cmake --build build --target lint

echo "==> all checks passed"
