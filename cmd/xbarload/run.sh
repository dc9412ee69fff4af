#!/usr/bin/env bash
# Builds xbard and the xbarload benchmark from source, then runs
# xbarload with the given arguments. Run it from the repository root:
#
#   bash cmd/xbarload/run.sh --workload hot-hit --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build, the Go build
# cache included, so a fresh checkout builds from scratch (about 20 s on
# 2 cores) and later runs reuse the cache.
set -euo pipefail

out=.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$PWD/$out/gocache" GOMODCACHE="$PWD/$out/gomodcache" GOTMPDIR="$PWD/$out/tmp" \
	XDG_CONFIG_HOME="$PWD/$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C cmd/xbarload -o "$PWD/$out/xbarload" .
go build -o "$out/xbard" ./cmd/xbard
exec "$out/xbarload" -xbard "$out/xbard" -o "$out/result.json" -spans "$out/spans.jsonl" "$@"
