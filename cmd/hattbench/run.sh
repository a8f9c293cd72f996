#!/usr/bin/env bash
# Builds hattd and hattbench from the tree this script sits in, then runs
# one benchmark workload with the given flags, for example
#
#   bash cmd/hattbench/run.sh --workload hit-small --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root: the Go build cache, the two binaries, the daemons'
# store directories and the trace files. Build time is not measured.
set -euo pipefail
cd "$(dirname "$0")/../.."
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$build/bin/hattd" ./cmd/hattd
(cd cmd/hattbench && go build -o "$build/bin/hattbench" .)
exec "$build/bin/hattbench" "$@"
