#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in, then runs it
# with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload fig5 --seed 42 --seconds 20 --trace 0
#
# The binary, the Go build cache and the toolchain's scratch and config
# files all stay under .bench_build/ at the root of the tree. A failed
# build exits non-zero before anything is printed on standard output.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/cache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS=-buildvcs=false

(cd "$root/benchmark" && go build -o "$out/memtis-bench" .) >&2
exec "$out/memtis-bench" "$@"
