#!/usr/bin/env bash
# Builds cmd/server, cmd/datagen and the benchmark from source into
# .bench_build, then runs the benchmark from the repository root:
#
#   bash perfbench/run.sh --workload lubm_export --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --fingerprint     # recompute the dataset fingerprint
#
# Everything the build and the runs write stays under .bench_build.
set -euo pipefail
cd "$(dirname "$0")/.."
b="$PWD/.bench_build"
mkdir -p "$b/bin" "$b/gocache" "$b/tmp"
export GOCACHE="$b/gocache" GOTMPDIR="$b/tmp" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off

trace=0 prev=""
for a in "$@"; do
	if [ "$prev" = "--trace" ]; then trace=$a; fi
	prev=$a
done

go build -o "$b/bin/datagen" ./cmd/datagen
if [ "${1:-}" = "--fingerprint" ]; then
	(cd perfbench && go build -o "$b/bin/fingerprint" ./cmd/fingerprint)
	exec "$b/bin/fingerprint" -datagen "$b/bin/datagen" -dir "$b"
fi
go build -o "$b/bin/server" ./cmd/server
(cd perfbench && go build -o "$b/bin/bench" ./cmd/bench)
if [ "$trace" = 1 ]; then
	(cd perfbench && go build -o "$b/bin/traced" ./cmd/traced)
fi
exec "$b/bin/bench" "$@"
