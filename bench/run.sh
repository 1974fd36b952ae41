#!/usr/bin/env bash
# Builds ssdload and execs it: no `go run`, so no child process can outlive
# the benchmark. Run from the root of a checkout:
#
#   bash bench/run.sh --workload read_mem --seed 1 --seconds 14 --trace 0
#
# Everything built or written lands in .bench_build/ at the root of the
# checkout (listed in .gitignore): the binary, the Go build cache, the run's
# data directories (removed on exit) and the traced run's span file.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/ssdload" ./ssdload)
exec "$build/ssdload" -dir "$build" "$@"
