#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments (see README.md). Run from the repository root:
#
#	bash perfbench/run.sh --workload ingest-refresh --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the current
# directory: the Go build cache, the binary, span dumps and the digest
# record of earlier runs.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOTELEMETRY=off \
	XDG_CONFIG_HOME="$out/xdg"
(cd perfbench && go build -trimpath -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
