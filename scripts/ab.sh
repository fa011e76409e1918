#!/usr/bin/env bash
# scripts/ab.sh <parent-ref> <pairs> <workload...>
#
# Interleaved A/B of the repository's benchmark: the tree at <parent-ref>
# against this checkout as it stands (uncommitted edits included). Each
# pair runs both sides' own bench/run.sh at the run_seconds BENCHMARK.json
# fixes, untraced, alternating which side goes first; then, per bounded
# end-to-end metric, it prints both medians with quartiles, the median of
# the per-pair change/parent ratios, and how many pairs the change won.
#
#   SEED=2 scripts/ab.sh HEAD~1 10 async_ingest mixed_shards
#
# SEED picks the workload seed (default 1). AB_WORK names the directory
# that holds the parent's tree and the result lines (default: a fresh
# mktemp -d); the parent is exported there with `git archive`, so it is a
# plain directory the repository keeps no record of, and it is reused if
# already present.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
ref=${1:?usage: scripts/ab.sh <parent-ref> <pairs> <workload...>}
pairs=${2:?usage: scripts/ab.sh <parent-ref> <pairs> <workload...>}
shift 2
[ $# -gt 0 ] || { echo "usage: scripts/ab.sh <parent-ref> <pairs> <workload...>" >&2; exit 2; }
seed=${SEED:-1}
work=${AB_WORK:-$(mktemp -d)}
parent="$work/parent-$(git -C "$root" rev-parse --short=12 "$ref")"
if [ ! -d "$parent" ]; then
	mkdir -p "$parent"
	git -C "$root" archive "$ref" | tar -x -C "$parent"
fi
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")

# run_side <tree> <workload> <lines-file>: one run, last stdout line kept.
run_side() {
	bash "$1/bench/run.sh" --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1 >>"$3"
}

for w in "$@"; do
	p="$work/ab-$w-seed$seed-parent.jsonl"
	c="$work/ab-$w-seed$seed-change.jsonl"
	: >"$p"
	: >"$c"
	for i in $(seq 1 "$pairs"); do
		if [ $((i % 2)) -eq 1 ]; then
			run_side "$parent" "$w" "$p"
			run_side "$root" "$w" "$c"
		else
			run_side "$root" "$w" "$c"
			run_side "$parent" "$w" "$p"
		fi
	done
	echo "### $w: seed $seed, $pairs pairs, $seconds s, parent $ref, $(date -u +%Y-%m-%dT%H:%MZ)"
	go -C "$root" run ./scripts/abstat "$root/BENCHMARK.json" "$p" "$c"
	echo
done
echo "result lines kept in $work"
