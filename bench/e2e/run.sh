#!/usr/bin/env bash
# Builds and runs the end-to-end daemon benchmark (bench/e2e/README.md).
#
#   bench/e2e/run.sh [--workload NAME[,NAME...]] [--seed N] [--seconds S]
#                    [--trace 0|1]
#
# Flags also take the --flag=value form; --workloads is an alias of
# --workload, and a bare --trace means --trace 1. Defaults: all four
# workloads, seed 1, 10 seconds, untraced. Builds into bench/e2e/build/,
# prints every metric as "workload metric value unit" and, as the last
# line, the result JSON; writes results under bench/e2e/results/. Exits
# non-zero when any response fails the benchmark's correctness checks.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
workloads=warm-search,cold-context,grow-progressive,serve-mix
seed=1
seconds=10
trace=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload=* | --workloads=*) workloads=${1#*=} ;;
    --workload | --workloads) workloads=$2; shift ;;
    --seed=*) seed=${1#*=} ;;
    --seed) seed=$2; shift ;;
    --seconds=*) seconds=${1#*=} ;;
    --seconds) seconds=$2; shift ;;
    --trace=*) trace=${1#*=} ;;
    --trace)
      if [[ $# -gt 1 && $2 != --* ]]; then trace=$2; shift; else trace=1; fi ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
  shift
done

build=$here/build
results=$here/results
mkdir -p "$build" "$results"
if ! { cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$build" -j 4 --target oipa_e2e_bench; } \
    > "$build/build.log" 2>&1; then
  tail -n 40 "$build/build.log" >&2
  echo "run.sh: build failed (log: $build/build.log)" >&2
  exit 1
fi
bench=$build/oipa_e2e_bench

IFS=, read -r -a names <<< "$workloads"
status=0
lines=()
for name in "${names[@]}"; do
  # Generator determinism: the same seed gives the same stream, another
  # seed another one.
  common=(--workload="$name" --seconds="$seconds" --dry_run)
  first=$("$bench" "${common[@]}" --seed="$seed")
  again=$("$bench" "${common[@]}" --seed="$seed")
  other=$("$bench" "${common[@]}" --seed="$((seed + 1))")
  if [[ $first != "$again" || ${first##*hash=} == "${other##*hash=}" ]]; then
    echo "run.sh: $name request generator is not deterministic per seed" >&2
    exit 1
  fi

  tag=$name-seed$seed
  args=(--workload="$name" --seed="$seed" --seconds="$seconds"
        --trace="$trace" --out="$results/$tag.json"
        --trace_out="$results/trace-$tag.json")
  if [[ $trace == 0 ]]; then
    out=$("$bench" "${args[@]}") || status=1
    [[ -n $out ]] || exit 1
    sed '$d' <<< "$out"
  else
    rm -f "$results/trace-$tag.json"
    "$bench" "${args[@]}" || status=1
    [[ -f $results/trace-$tag.json ]] || exit 1
    out=$(python3 "$here/trace_summary.py" "$results/trace-$tag.json")
    sed '$d' <<< "$out"
  fi
  lines+=("$(tail -n 1 <<< "$out")")
done

if [[ ${#lines[@]} == 1 ]]; then
  printf '%s\n' "${lines[0]}"
else
  # Several workloads: one result line, metrics keyed workload/metric.
  printf '%s\n' "${lines[@]}" | python3 -c '
import json, sys
names = sys.argv[1].split(",")
runs = [json.loads(line) for line in sys.stdin]
print(json.dumps({
    "correct": all(r["correct"] for r in runs),
    "attempted": sum(r["attempted"] for r in runs),
    "failed": sum(r["failed"] for r in runs),
    "metrics": {f"{n}/{k}": v for n, r in zip(names, runs)
                for k, v in r["metrics"].items()}}))' "$workloads"
fi
exit "$status"
