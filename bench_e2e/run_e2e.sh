#!/usr/bin/env bash
# Runs every workload of BENCHMARK.json <runs> times, one process per run and
# workload, reversing the workload order on every other run so no workload
# always runs first. Appends one JSON line per run to <out.jsonl>:
#   {"workload": ..., "run": i, "seed": s, "result": <run.py's result line>}
#
#   bench_e2e/run_e2e.sh <out.jsonl> [runs=10] [seed=1] [trace=0]
#
# Every run uses the same seed, so the spread is the machine's, not the
# inputs'. Compare two such files with bench_e2e/compare.py.
set -euo pipefail

if (($# < 1)); then
  echo "usage: $0 <out.jsonl> [runs=10] [seed=1] [trace=0]" >&2
  exit 2
fi
out="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
runs=${2:-10}
seed=${3:-1}
trace=${4:-0}
cd "$(dirname "$0")/.."

mapfile -t workloads < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])')
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

for ((run = 1; run <= runs; run++)); do
  order=("${workloads[@]}")
  if ((run % 2 == 0)); then
    mapfile -t order < <(printf '%s\n' "${workloads[@]}" | tac)
  fi
  for w in "${order[@]}"; do
    result=$(python3 bench_e2e/run.py --workload "$w" --seed "$seed" \
      --seconds "$seconds" --trace "$trace" | tail -n 1)
    printf '{"workload": "%s", "run": %d, "seed": %d, "result": %s}\n' \
      "$w" "$run" "$seed" "$result" >>"$out"
    echo "run $run/$runs $w done" >&2
  done
done
