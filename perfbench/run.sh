#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Every
# build and result file stays under .bench_build/ at the checkout root.
#
#   bash perfbench/run.sh --workload cold-large --seed 1 --seconds 30 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOFLAGS= GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOTELEMETRY=off CGO_ENABLED=0
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build/results" "$@"
