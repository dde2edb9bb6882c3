#!/bin/sh
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument through (see main.go for the flags). Run it from the
# repository root:
#
#	sh perfbench/run.sh --workload table4 --seed 1 --seconds 35 --trace 0
#
# The binary, the Go build cache, the toolchain's own state and the runs'
# scratch files all live under .bench_build/, so nothing is written outside
# the checkout; the first build fills the cache and takes a minute or two.
set -e
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
