#!/usr/bin/env bash
# Builds the benchmark and the routing daemon from the checkout's source,
# then runs the benchmark with the given arguments. Run from the checkout
# root:  bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
# Every file the toolchain and the benchmark write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/gomod" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go build -C perfbench -o "$out/perfbench" . >&2
go build -C perfbench -o "$out/oarsmt-serve" oarsmt/cmd/oarsmt-serve >&2
exec "$out/perfbench" -serve-bin "$out/oarsmt-serve" -work "$out" "$@"
