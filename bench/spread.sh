#!/usr/bin/env bash
# bench/spread.sh <n> <workload...>
# Runs seeds 1..n of each workload through bench/run.sh (untraced, at the
# run_seconds BENCHMARK.json fixes) and prints, per end-to-end metric, the
# median over the seeds and the inter-quartile distance as a share of it,
# beside the metric's bound. Result lines are kept in
# bench/out/spread-<workload>.jsonl.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
n=${1:?usage: bench/spread.sh <n> <workload...>}
shift
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")
mkdir -p "$root/bench/out"
for w in "$@"; do
	lines="$root/bench/out/spread-$w.jsonl"
	: >"$lines"
	for seed in $(seq 1 "$n"); do
		bash "$root/bench/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1 >>"$lines"
	done
	echo "### $w: seeds 1..$n, $seconds s, $(date -u +%Y-%m-%dT%H:%MZ)"
	bash "$root/bench/run.sh" spread "$root/BENCHMARK.json" "$lines"
	echo
done
