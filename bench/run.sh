#!/usr/bin/env bash
# Builds the benchmark driver (package ./bench of the repository's module)
# from source and runs it from the repository root, passing every argument
# through:
#
#   bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-runs N] [-trace 0|1] [-json FILE]
#
# The binary, the Go build cache and the saved CPU profiles all live under
# .bench_build, so a run writes nothing outside the checkout and needs no
# network.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/bench" ./bench
exec "$out/bench" "$@"
