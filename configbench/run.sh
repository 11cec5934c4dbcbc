#!/usr/bin/env bash
# Repeated benchmark runs, for spreads and for "no regression" checks.
#
#   configbench/run.sh [-k K] [-s SEED] OUT_A.jsonl [OUT_B.jsonl]
#       Runs every workload in BENCHMARK.json K times (default 5) for
#       run_seconds each, and appends one line per run to each output file.
#       With two files, each repetition runs every workload for set A and
#       then for set B, so the sets alternate and see the same machine.
#       Set A uses seeds SEED+1..SEED+K, set B SEED+101..SEED+100+K
#       (SEED defaults to 0). Prints each set's median and quartiles.
#   configbench/run.sh --agree OUT_A.jsonl OUT_B.jsonl
#       Checks two sets against the bounds in BENCHMARK.json.
#
# Run from anywhere; runs happen at the repository root.

set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--agree" ]]; then
  exec python3 configbench/stats.py agree "$2" "$3"
fi

reps=5
seed=0
while getopts "k:s:" opt; do
  case "$opt" in
    k) reps="$OPTARG" ;;
    s) seed="$OPTARG" ;;
    *) sed -n '2,14p' "$0"; exit 2 ;;
  esac
done
shift $((OPTIND - 1))
if [[ $# -lt 1 || $# -gt 2 ]]; then
  sed -n '2,14p' "$0"
  exit 2
fi
outs=("$@")

seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

for ((rep = 1; rep <= reps; rep++)); do
  for workload in $workloads; do
    for set in "${!outs[@]}"; do
      s=$((seed + 100 * set + rep))
      line=$(python3 configbench/run.py --workload "$workload" --seed "$s" \
               --seconds "$seconds" --trace 0 | tail -n 1) || true
      printf '{"workload": "%s", "seed": %d, "result": %s}\n' \
        "$workload" "$s" "${line:-null}" >> "${outs[$set]}"
      echo "rep $rep/$reps  $workload  seed $s  -> ${outs[$set]}" >&2
    done
  done
done

status=0
for out in "${outs[@]}"; do
  echo "== $out"
  python3 configbench/stats.py summary "$out" || status=1
done
exit $status
