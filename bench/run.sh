#!/usr/bin/env bash
# Builds the benchmark from source and runs it; all arguments are passed
# on, for example:
#
#   bash bench/run.sh --workload serve-small --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and
# every file a run writes stay under .bench_build/ there; the build
# never touches the network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
(
	cd "$root/bench"
	env HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOPATH="$out/gopath" \
		GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
		go build -o "$out/bench" .
) >&2
exec "$out/bench" "$@"
