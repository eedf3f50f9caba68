#!/usr/bin/env bash
# Builds the benchmark of record from this checkout and runs it, from the
# repository root:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOENV=off \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --data "$out/data" "$@"
