#!/usr/bin/env bash
# Builds the benchmark hermetically into <checkout>/.bench_build/ and runs
# one workload:
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build and the run write stays inside the checkout: the
# Go build cache, module cache, temp files and config dir all live under
# .bench_build/.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi
(
	export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
	export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS=-mod=mod GOWORK=off GOPROXY=off GOTOOLCHAIN=local
	go -C "$root/bench" build -buildvcs=false -o "$out/bench" . >&2
)
export HCBENCH_COMMIT="$commit" TMPDIR="$out/tmp"
if [ "${1:-}" = spread ]; then
	exec "$out/bench" "$@"
fi
exec "$out/bench" --root "$root" "$@"
