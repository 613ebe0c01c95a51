#!/usr/bin/env bash
# Contract entry point (BENCHMARK.json "command"): builds the benchmark and
# the daemons from the checkout it is run in, keeps every byte it writes
# (Go build cache, temp files, binaries, data dirs, traces) under
# ./.bench_build, and runs one workload. Run from the checkout root:
#
#   bash bench/run.sh --workload dash_hot --seed 1 --seconds 10 --trace 0
set -euo pipefail
root=$(pwd)
here="$root/bench"
out="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/graphtempod" ]; then
	echo "bench/run.sh: run from the root of a GraphTempo checkout (no go.mod / cmd/graphtempod in $root)" >&2
	exit 2
fi
mkdir -p "$out/gocache" "$out/gotmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" TMPDIR="$out/gotmp"
export GOPATH="$out/gopath" GOTOOLCHAIN=local GOENV=off GOWORK=off
(cd "$here" && go build -o "$out/bin/gtbaseline" .)
exec "$out/bin/gtbaseline" -out "$out" "$@"
