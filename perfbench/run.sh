#!/usr/bin/env bash
# Builds the shipped binaries and the benchmark program from the source
# tree this script sits in, then runs perfbench with the given flags.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload dns-hot --seed 1 --seconds 20 --trace 0
#
# Everything it writes (Go build cache, binaries, generated corpora,
# learned snapshots, traces) goes under .bench_build/ in the current
# directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/hoiho" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/ and perfbench/ must be present)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/bin" "$build/work"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" TMPDIR="$build/gotmp"
export GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$build/bin/" ./cmd/hoiho ./cmd/geosnap ./cmd/geodns ./cmd/geoserve
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/work" "$@"
