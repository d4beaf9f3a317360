#!/usr/bin/env bash
# Builds the benchmark from the sources in the current directory (the
# repository root) and runs it, passing every argument through:
#
#   bash perfbench/run.sh --workload radix-conv --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary live under
# .bench_build, so the benchmark writes nothing outside the checkout and
# needs no network. Without the repository's sources the build fails and
# so does this script.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
