#!/usr/bin/env bash
# Builds the harness and the two server binaries from the tree this script
# sits in, then runs the harness with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload serve_ingest --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache, temporary files and binaries under .bench_build/, trace files
# and server scratch space under benchmark/out/. Build time is outside every
# metric (the harness times only what it does itself).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/gopath"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOENV=off GOPROXY=off GOFLAGS= CGO_ENABLED=0

go build -o "$build/bin/" ./benchmark ./cmd/freeway-serve ./cmd/freeway-router
exec "$build/bin/benchmark" "$@"
