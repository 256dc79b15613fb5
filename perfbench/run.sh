#!/usr/bin/env bash
# Builds the cost-ladder benchmark from this checkout's sources and runs
# it. Run from the root of the repository:
#
#   bash perfbench/run.sh --workload ladder-fine --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary, temporary files, result stamps and
# span files all stay under .bench_build/ at the root of the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

go -C "$root/perfbench" build -o "$build/perfbench" . >&2
# Not exec: the build's child processes would count in the
# benchmark's peak resident set of its children.
"$build/perfbench" "$@"
