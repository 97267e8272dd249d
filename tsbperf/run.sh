#!/usr/bin/env bash
# Builds the served-path benchmark from this checkout's sources and runs
# it:
#
#   bash tsbperf/run.sh --workload point-hot --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at
# the repository root: the Go build cache, the binary, the database
# directories (removed when the run ends) and the trace files.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

(cd "$root/tsbperf" && go build -o "$out/tsbperf" .)
exec "$out/tsbperf" -root "$out" "$@"
